"""The array-first dataset reader against the per-line loader it replaced.

reference_load_split is the loader as it was before load_split existed:
parse every line into a record, check it coordinate by coordinate, build
one scene per line, then translate and stack the scenes. load_split must
give the same bytes on every valid file and the same exception, message and
line on every malformed one. The one outcome that changed since: a scene
whose translation into the model frame overflows, which the reference
stacked as inf, is now an InputError (reference_outcome). load_dataset,
which now wraps the same reader, must give the reference's scenes.

A split that loads is kept in the process under the sha256 of its file's
bytes. Every file is loaded twice, so the second load, a hit, must give the
reference's bytes too; a file that fails must keep nothing. TestSplitCache
covers what is a hit and what is a miss.

Both loaders read a file datagen.READ_BYTES at a time. TestStreamedReads
shrinks the reads to a few bytes, so that characters, CRLFs and lines fall
across them, and TestReadMemory bounds what a load holds besides its result.
"""

import hashlib
import json
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtalab import ConfigurationError, DatasetParseError, InputError, WtalabError
from wtalab import datagen
from wtalab.datagen import CHUNK_RECORDS, load_dataset, load_split

EXAMPLES = 150

# ---------------------------------------------------------------------------
# The reference: the per-line loader and the per-scene stacking, as they were.
# ---------------------------------------------------------------------------

_NUMBER = (int, float)


def _reference_waypoints(raw, key, line_number):
    if type(raw) is not list or not raw:
        raise DatasetParseError(line_number, f"{key} must be a non-empty list")
    for point in raw:
        if (
            type(point) is not list
            or len(point) != 2
            or type(point[0]) not in _NUMBER
            or type(point[1]) not in _NUMBER
        ):
            raise DatasetParseError(line_number, f"{key} must be a list of [x, y] pairs")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise DatasetParseError(line_number, "scene coordinates must be finite") from None


def reference_text(path):
    """The file's text as Path.read_text gives it. Bytes that are not UTF-8
    raise InputError naming the offset of the first bad one."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return Path(path).read_text(encoding="utf-8")


def reference_load_records(path):
    """(scene_id, past, future, mode_label) per record, with the old checks."""
    records = []
    text = reference_text(path)
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(line_number, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise DatasetParseError(line_number, "record must be a JSON object")
        missing = {"scene_id", "past", "future", "mode_label"} - record.keys()
        if missing:
            raise DatasetParseError(line_number, f"missing keys: {sorted(missing)}")
        if type(record["scene_id"]) is not str:
            raise DatasetParseError(line_number, "scene_id must be a string")
        if type(record["mode_label"]) is not int:
            raise DatasetParseError(line_number, "mode_label must be an integer")
        past = _reference_waypoints(record["past"], "past", line_number)
        future = _reference_waypoints(record["future"], "future", line_number)
        if not (np.all(np.isfinite(past)) and np.all(np.isfinite(future))):
            raise DatasetParseError(line_number, "scene coordinates must be finite")
        records.append((record["scene_id"], past, future, record["mode_label"]))
    return records


def reference_load_split(path):
    """The split of reference_load_records(path), one scene at a time."""
    features, targets = [], []
    for _, past, future, _ in reference_load_records(path):
        offset = past[-1].copy()
        features.append((past - offset).reshape(-1))
        targets.append(future - offset)
    if len({f.size for f in features}) != 1 or len({t.shape[0] for t in targets}) != 1:
        raise ConfigurationError(
            "a split needs at least one scene, and its scenes must share one"
            " past length and one future length"
        )
    return np.stack(features), np.stack(targets)


# ---------------------------------------------------------------------------
# Comparison.
# ---------------------------------------------------------------------------


def outcome(loader, path):
    """What loader does with path: its arrays' shapes and bytes, or its error."""
    try:
        with np.errstate(over="ignore"):
            features, targets = loader(path)
    except WtalabError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    assert features.dtype == targets.dtype == np.float64
    return features.shape, features.tobytes(), targets.shape, targets.tobytes()


def overflow_message(path, scene_id):
    return (
        f"{path}: scene {scene_id!r} overflows the model frame: its"
        " coordinates less its last past point are not finite"
    )


def reference_outcome(path):
    """outcome(reference_load_split, path), except that when every record
    parses, the first scene whose coordinates less its last past point are
    not finite gives InputError."""
    try:
        records = reference_load_records(path)
    except WtalabError:
        records = []
    with np.errstate(over="ignore"):
        for scene_id, past, future, _ in records:
            if not (np.isfinite(past - past[-1]).all() and np.isfinite(future - past[-1]).all()):
                return InputError, overflow_message(path, scene_id), None
    return outcome(reference_load_split, path)


def cache_key(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def load_split_hit(path):
    """load_split(path), failing the test if it parses the file."""
    with mock.patch.object(datagen, "_parse_split", side_effect=AssertionError("parsed")):
        return load_split(path)


def assert_same_as_reference(text: str, newline: str = "\n"):
    return assert_bytes_same_as_reference(text.replace("\n", newline).encode())


def assert_bytes_same_as_reference(data: bytes):
    """load_split and load_dataset of a file of these bytes give the
    reference's outcome, and a split that loads is kept; its outcome."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "split.jsonl"
        path.write_bytes(data)
        want = reference_outcome(path)
        assert outcome(load_split, path) == want
        if type(want[0]) is tuple:  # loaded: kept, and read back the same
            assert outcome(load_split_hit, path) == want
        else:
            assert cache_key(path) not in datagen._splits
        try:
            want_scenes = reference_load_records(path)
        except WtalabError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                load_dataset(path)
            return want
        scenes = load_dataset(path)
    assert len(scenes) == len(want_scenes)
    for scene, (scene_id, past, future, mode_label) in zip(scenes, want_scenes):
        assert (scene.scene_id, scene.mode_label) == (scene_id, mode_label)
        assert type(scene.mode_label) is int
        assert scene.past.shape == past.shape and scene.past.tobytes() == past.tobytes()
        assert scene.future.shape == future.shape
        assert scene.future.tobytes() == future.tobytes()
    return want


def record_line(
    scene_id="s", past=((0.0, 0.0),), future=((1.0, 0.0),), mode_label=0, ensure_ascii=True
):
    return json.dumps(
        {
            "scene_id": scene_id,
            "past": [list(p) for p in past],
            "future": [list(p) for p in future],
            "mode_label": mode_label,
        },
        ensure_ascii=ensure_ascii,
    )


def good_lines(count, past_len=1, future_len=1):
    """Valid records; with the default lengths they share a chunk's bulk
    check with record_line's, so a bad record is found there first."""
    return [
        record_line(
            f"scene-{i}",
            [(i + 0.5 * j, -j) for j in range(past_len)],
            [(i - j, 0.25 * j) for j in range(future_len)],
            i % 3,
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Valid files.
# ---------------------------------------------------------------------------

COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from(
        [
            -0.0,
            0,
            5e-324,
            -5e-324,
            2.2250738585072014e-308,
            1e308,
            -1e308,
            1.7976931348623157e308,
            10**308,
            2**53 + 1,
            -(2**63),
        ]
    ),
)


@st.composite
def valid_files(draw):
    """Text of a valid split: records of one length, blank lines between them."""
    past_len = draw(st.integers(1, 4))
    future_len = draw(st.integers(1, 4))
    count = draw(st.sampled_from([1, 2, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1]))
    count = draw(st.integers(1, 3 * CHUNK_RECORDS + 5)) if draw(st.booleans()) else count
    points = st.tuples(COORDINATES, COORDINATES)
    lines = []
    for i in range(count):
        record = {
            "scene_id": draw(st.text(max_size=3)),
            "past": [list(p) for p in draw(st.lists(points, min_size=past_len, max_size=past_len))],
            "future": [
                list(p) for p in draw(st.lists(points, min_size=future_len, max_size=future_len))
            ],
            "mode_label": draw(st.integers(-3, 10**20)),
        }
        if draw(st.integers(0, 9)) == 0:
            record["extra"] = draw(st.none() | st.text(max_size=2))
        keys = draw(st.permutations(list(record)))
        lines.append(json.dumps({key: record[key] for key in keys}))
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n  "]))


class TestValidFiles:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(text=valid_files(), newline=st.sampled_from(["\n", "\r\n"]))
    def test_same_bytes_as_reference(self, text, newline):
        want = assert_same_as_reference(text, newline)
        # The reference loaded the file, or a scene overflowed the model frame.
        assert type(want[0]) is tuple or want[0] is InputError

    def test_round_number_of_chunks(self):
        for count in (CHUNK_RECORDS, 2 * CHUNK_RECORDS, 2 * CHUNK_RECORDS + 1):
            features, _, targets, _ = assert_same_as_reference("\n".join(good_lines(count)))
            assert features == (count, 2) and targets == (count, 1, 2)

    def test_special_values_keep_their_bits(self):
        past = [(-0.0, 5e-324), (1e308, -1e308), (3, -(10**300))]
        line = record_line(past=past, future=[(-0.0, -5e-324)])
        assert_same_as_reference("\n".join([line] * 3))

    def test_crlf_and_whitespace_lines(self):
        text = "\n".join([" ", *good_lines(3), "\t", ""])
        assert_same_as_reference(text, newline="\r\n")


# ---------------------------------------------------------------------------
# Malformed files.
# ---------------------------------------------------------------------------

BAD_LINES = {
    "invalid-json": '{"scene_id": ',
    "not-object": "[1, 2]",
    "missing-key": json.dumps({"scene_id": "s", "past": [[0, 0]], "future": [[1, 0]]}),
    "bool-coordinate": record_line(past=[(True, 0.0)]),
    "null-coordinate": record_line(future=[(1.0, None)]),
    "string-coordinate": record_line(future=[("1.5", 0.0)]),
    "int-too-large": record_line(future=[(1.0, 10**400)]),
    "nan": record_line(past=[(0.0, 0.0)]).replace("[[0.0, 0.0]]", "[[NaN, 0.0]]"),
    "infinity": record_line().replace("[[1.0, 0.0]]", "[[1.0, -Infinity]]"),
    "overflowing-float": record_line().replace("[[1.0, 0.0]]", "[[1e400, 0.0]]"),
    "int-scene-id": record_line(scene_id=7),
    "null-scene-id": record_line(scene_id=None),
    "bool-label": record_line(mode_label=True),
    "float-label": record_line(mode_label=1.0),
    "three-coordinates": record_line(past=[(0.0, 0.0, 0.0)]),
    "one-coordinate": record_line(past=[(0.0,), (1.0, 2.0, 3.0)]),
    "empty-past": record_line(past=[]),
    "past-not-list": json.dumps(
        {"scene_id": "s", "past": {"a": 1, "b": 2}, "future": [[1, 0]], "mode_label": 0}
    ),
    "point-is-string": json.dumps(
        {"scene_id": "s", "past": ["ab"], "future": [[1, 0]], "mode_label": 0}
    ),
    "point-is-object": json.dumps(
        {"scene_id": "s", "past": [{"x": 1, "y": 2}], "future": [[1, 0]], "mode_label": 0}
    ),
    "point-is-number": json.dumps(
        {"scene_id": "s", "past": [1], "future": [[1, 0]], "mode_label": 0}
    ),
    "bom": "﻿" + record_line(),
    "extra-data": record_line() + " 1",
}


class TestMalformedFiles:
    @pytest.mark.parametrize("line_number", [1, 2, 64, 65, 128, 129, 150])
    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_bad_record_on_its_line(self, kind, line_number):
        lines = good_lines(150)
        lines[line_number - 1] = BAD_LINES[kind]
        error, message, line = assert_same_as_reference("\n".join(lines))
        assert error is DatasetParseError and line == line_number

    @pytest.mark.parametrize("kind", ["mixed-lengths", *sorted(BAD_LINES)])
    @pytest.mark.usefixtures("no_splits")
    def test_the_reader_builds_no_scene(self, tmp_path, monkeypatch, kind):
        lines = good_lines(150)
        lines[70] = good_lines(1, future_len=2)[0] if kind == "mixed-lengths" else BAD_LINES[kind]
        path = tmp_path / "split.jsonl"
        path.write_text("\n".join(lines))
        want = reference_outcome(path)
        monkeypatch.setattr(datagen, "Scene", mock.Mock(side_effect=AssertionError("a Scene")))
        assert outcome(load_split, path) == want

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_every_record_of_a_chunk_bad(self, kind):
        error, message, line = assert_same_as_reference("\n".join([BAD_LINES[kind]] * 3))
        assert error is DatasetParseError and line == 1

    def test_type_error_wins_over_a_later_json_error_in_its_chunk(self):
        lines = good_lines(20)
        lines[2] = BAD_LINES["bool-coordinate"]
        lines[9] = BAD_LINES["invalid-json"]
        error, message, line = assert_same_as_reference("\n".join(lines))
        assert (error, line) == (DatasetParseError, 3)
        assert message == "line 3: past must be a list of [x, y] pairs"

    def test_a_bad_record_wins_over_mixed_lengths(self):
        lines = good_lines(200)
        lines[29] = good_lines(1, past_len=3)[0]
        lines[99] = BAD_LINES["float-label"]
        error, message, line = assert_same_as_reference("\n".join(lines))
        assert (error, line) == (DatasetParseError, 100)

    @pytest.mark.parametrize("where", [0, 40, CHUNK_RECORDS, 150])
    def test_mixed_lengths_load_as_scenes_but_not_as_a_split(self, where):
        lines = good_lines(160)
        lines[where] = good_lines(1, future_len=2)[0]
        error, message, line = assert_same_as_reference("\n".join(lines))
        assert error is ConfigurationError and line is None
        assert len(load_dataset_of("\n".join(lines))) == 160

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"])
    def test_empty_file(self, text):
        error, _, _ = assert_same_as_reference(text)
        assert error is ConfigurationError
        assert load_dataset_of(text) == []

    @pytest.mark.parametrize("line_number", [1, 65, 140])
    def test_overflow_in_the_model_frame_names_the_scene(self, line_number):
        lines = good_lines(150)
        huge = record_line("far", past=[(-1e308, 0.0), (1e308, 0.0)], future=[(0.0, 0.0)])
        lines[line_number - 1] = huge
        lines[line_number + 5] = huge.replace('"far"', '"later"')
        # The other records' pasts are shorter, so it also wins over mixed lengths.
        error, message, _ = assert_same_as_reference("\n".join(lines))
        assert error is InputError and "scene 'far' overflows" in message
        # A malformed record anywhere in the file still wins.
        lines[-1] = BAD_LINES["float-label"]
        error, message, line = assert_same_as_reference("\n".join(lines))
        assert (error, line) == (DatasetParseError, 150)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "split.jsonl"
        path.write_bytes(good_lines(1)[0].encode() + b"\n\xff\n")
        with pytest.raises(InputError, match="not UTF-8") as excinfo:
            load_split(path)
        assert not isinstance(excinfo.value, DatasetParseError)
        assert cache_key(path) not in datagen._splits


def load_dataset_of(text):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "split.jsonl"
        path.write_text(text)
        return load_dataset(path)


@st.composite
def one_line_spoiled(draw):
    """A valid file with one or two lines replaced by near-valid or bad text."""
    count = draw(st.integers(1, 2 * CHUNK_RECORDS + 3))
    lines = good_lines(count, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    for index in draw(st.sets(st.integers(0, count - 1), min_size=1, max_size=2)):
        record = json.loads(lines[index])
        spoil = draw(st.sampled_from(["value", "line", "length"]))
        if spoil == "line":
            lines[index] = draw(st.sampled_from(sorted(BAD_LINES.values())) | st.text(max_size=8))
        elif spoil == "length":
            key = draw(st.sampled_from(["past", "future"]))
            record[key] = record[key] + record[key][:1]
            lines[index] = json.dumps(record)
        else:
            key = draw(st.sampled_from(sorted(record)))
            point = draw(st.integers(0, 5))
            value = draw(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats()
                | st.text(max_size=2)
                | st.lists(st.integers() | st.floats(), max_size=3)
            )
            if key in ("past", "future") and draw(st.booleans()):
                waypoints = record[key]
                waypoints[point % len(waypoints)][point % 2] = value
            else:
                record[key] = value
            lines[index] = json.dumps(record)
    return "\n".join(lines)


class TestAnyFileMatchesReference:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(text=one_line_spoiled())
    def test_near_valid_files(self, text):
        assert_same_as_reference(text)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(text=st.text(alphabet=st.sampled_from(list('[]{}",: 0123456789.-eE\n\tatrufnl')), max_size=60))
    def test_json_like_text(self, text):
        assert_same_as_reference(text)


# ---------------------------------------------------------------------------
# Reads of a few bytes.
# ---------------------------------------------------------------------------

READ_SIZES = [1, 2, 3, 7]

# One record per length of UTF-8 character: 2, 3 and 4 bytes.
WIDE_LINES = [record_line(char * 3, ensure_ascii=False) for char in ("é", "€", "😀")]

NOT_UTF8 = {
    "invalid-start": b"\xff",
    "lone-continuation": b"\x80",
    "overlong": b"\xc0\xaf",
    "surrogate": b"\xed\xa0\x80",
    "invalid-continuation": b"\xe2\x28\xa1",
    "above-unicode": b"\xf4\x90\x80\x80",
}


@pytest.fixture(params=READ_SIZES)
def small_reads(request, monkeypatch):
    """Loaders that read request.param bytes at a time."""
    monkeypatch.setattr(datagen, "READ_BYTES", request.param)


@pytest.mark.usefixtures("small_reads")
class TestStreamedReads:
    def test_crlf_and_lone_cr_split_across_reads(self):
        lines = good_lines(6)
        for newline in ("\r\n", "\r"):
            text = newline.join(lines) + newline
            assert type(assert_same_as_reference(text)[0]) is tuple
        # Every mix: CRLF, CR, LF, CR CRLF, LF CR and CRLF CRLF.
        separators = ["\r\n", "\r", "\n", "\r\r\n", "\n\r", "\r\n\r\n"]
        text = "".join(line + sep for line, sep in zip(lines, separators))
        assert type(assert_same_as_reference(text)[0]) is tuple
        # An error's line number counts a CRLF as one newline: 7 before it.
        text = "".join(line + sep for line, sep in zip(lines[:5], separators))
        error, _, line = assert_same_as_reference(text + BAD_LINES["bool-label"])
        assert (error, line) == (DatasetParseError, 8)

    def test_a_file_that_ends_in_cr(self):
        assert type(assert_same_as_reference("\r".join(good_lines(3)) + "\r")[0]) is tuple
        error, _, line = assert_same_as_reference("\r\r".join(good_lines(2) + ["[1]\r"]))
        assert (error, line) == (DatasetParseError, 5)

    def test_characters_split_across_reads(self):
        want = assert_same_as_reference("\n".join(WIDE_LINES + good_lines(2) + WIDE_LINES))
        assert type(want[0]) is tuple and want[0][0] == 8
        error, _, line = assert_same_as_reference("\n".join(WIDE_LINES + [WIDE_LINES[2][:-1]]))
        assert (error, line) == (DatasetParseError, 4)

    @pytest.mark.parametrize("kind", sorted(NOT_UTF8))
    def test_a_byte_that_is_not_utf8_in_a_late_read(self, kind):
        head = "\n".join(good_lines(20) + WIDE_LINES).encode()
        error, message, line = assert_bytes_same_as_reference(head + b"\n" + NOT_UTF8[kind] + b"\n")
        assert error is InputError and line is None
        assert message.endswith(f" at byte {len(head) + 1}")

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_a_character_cut_off_at_the_end_of_the_file(self, cut):
        data = "\n".join(good_lines(3) + ["😀"]).encode()
        error, message, _ = assert_bytes_same_as_reference(data[:-cut])
        assert error is InputError and "unexpected end of data" in message

    @pytest.mark.parametrize("kind", ["invalid-json", "float-label", "bom"])
    def test_a_byte_that_is_not_utf8_wins_over_an_earlier_bad_record(self, kind):
        lines = good_lines(3 * CHUNK_RECORDS)  # the bad byte is chunks after the bad record
        lines[1] = BAD_LINES[kind]
        data = "\n".join(lines).encode() + b"\n\xff"
        error, message, _ = assert_bytes_same_as_reference(data)
        assert error is InputError and "not UTF-8" in message
        # So does one after an overflow and after mixed lengths.
        lines[1] = record_line("far", past=[(-1e308, 0.0), (1e308, 0.0)])
        lines[5] = good_lines(1, future_len=3)[0]
        error, message, _ = assert_bytes_same_as_reference("\n".join(lines).encode() + b"\xc3")
        assert error is InputError and "not UTF-8" in message

    def test_blank_lines_are_counted_and_the_last_line_needs_no_newline(self):
        lines = ["", " ", *good_lines(3), "\t", "", *good_lines(2), "  "]
        assert type(assert_same_as_reference("\n".join(lines), "\r\n")[0]) is tuple
        lines.append(BAD_LINES["missing-key"])
        error, _, line = assert_same_as_reference("\n".join(lines), "\r")
        assert (error, line) == (DatasetParseError, 11)

    def test_a_line_longer_than_many_reads(self):
        long_line = record_line(past=[(i, -i) for i in range(400)])
        lines = [long_line, *good_lines(3, past_len=400), long_line]
        assert type(assert_same_as_reference("\n".join(lines))[0]) is tuple


@st.composite
def mixed_files(draw):
    """Bytes of near-valid files: good, wide, blank and bad lines joined by
    LF, CRLF and CR, and sometimes a byte that is not UTF-8."""
    lines = draw(
        st.lists(
            st.sampled_from(good_lines(3) + WIDE_LINES + ["", " ", "\t"])
            | st.sampled_from(sorted(BAD_LINES.values())),
            max_size=8,
        )
    )
    newlines = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines)))
    data = "".join(line + newline for line, newline in zip(lines, newlines)).encode()
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(sorted(NOT_UTF8.values()))) + data[at:]
    return data


class TestAnyReadSizeMatchesReference:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=mixed_files(), read_bytes=st.integers(1, 16), chunk=st.integers(1, 3))
    def test_mixed_files(self, data, read_bytes, chunk):
        """Small chunks put a bad record's chunk before a later bad byte."""
        with mock.patch.multiple(datagen, READ_BYTES=read_bytes, CHUNK_RECORDS=chunk):
            assert_bytes_same_as_reference(data)


# ---------------------------------------------------------------------------
# The split cache.
# ---------------------------------------------------------------------------


@pytest.fixture
def no_splits(monkeypatch):
    """An empty split cache for one test."""
    monkeypatch.setattr(datagen, "_splits", {})


def write_split(path, n=70):
    path.write_text("\n".join(good_lines(n, past_len=2, future_len=3)) + "\n")
    return path


def assert_same_arrays(got, want):
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (b.dtype, b.shape, b.tobytes()) for b in want
    ]


def counting_parses():
    return mock.patch.object(datagen, "_parse_split", wraps=datagen._parse_split)


def edit_one_coordinate(data: bytes) -> bytes:
    """data with scene-5's first past x changed, at the same size."""
    edited = data.replace(b"[[5.0, ", b"[[7.0, ", 1)
    assert edited != data and len(edited) == len(data)
    return edited


@pytest.mark.usefixtures("no_splits")
class TestSplitCache:
    def test_a_hit_returns_the_same_read_only_arrays(self, tmp_path):
        path = write_split(tmp_path / "split.jsonl")
        features, targets = load_split(path)
        assert_same_arrays((features, targets), reference_load_split(path))
        hit = load_split_hit(path)
        assert hit[0] is features and hit[1] is targets
        assert not features.flags.writeable and not targets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            targets[0, 0, 0] = 1.0
        assert list(datagen._splits) == [cache_key(path)]

    def test_the_same_bytes_under_another_name_are_a_hit(self, tmp_path):
        path = write_split(tmp_path / "split.jsonl")
        want = load_split(path)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(path.read_bytes())
        assert load_split_hit(copy) is want

    def test_a_same_size_edit_is_a_miss(self, tmp_path):
        path = write_split(tmp_path / "split.jsonl")
        before = load_split(path)
        path.write_bytes(edit_one_coordinate(path.read_bytes()))
        with counting_parses() as parse:
            after = load_split(path)
        assert parse.call_count == 1
        assert not np.array_equal(before[0], after[0])
        assert_same_arrays(after, reference_load_split(path))
        assert load_split_hit(path) is after

    def test_only_the_last_split_is_kept(self, tmp_path):
        a, b = (write_split(tmp_path / f"{name}.jsonl", n) for name, n in zip("ab", (3, 4)))
        load_split(a)
        load_split(b)
        assert list(datagen._splits) == [cache_key(b)]
        load_split_hit(b)
        with counting_parses() as parse:
            assert_same_arrays(load_split(a), reference_load_split(a))
        assert parse.call_count == 1
        assert list(datagen._splits) == [cache_key(a)]

    def test_the_parse_reads_the_bytes_that_were_hashed(self, tmp_path):
        """A file edited between the hash that misses and the parse gets the
        arrays of the bytes parsed, kept under their own sha256."""
        path = write_split(tmp_path / "split.jsonl")
        original = path.read_bytes()
        edited = edit_one_coordinate(original)
        real_file_lines = datagen._file_lines

        def edit_then_read(*args):
            path.write_bytes(edited)
            return real_file_lines(*args)

        with mock.patch.object(datagen, "_file_lines", edit_then_read):
            first = load_split(path)
        assert_same_arrays(first, reference_load_split(path))
        assert list(datagen._splits) == [hashlib.sha256(edited).digest()]
        assert load_split_hit(path) is first
        path.write_bytes(original)
        with counting_parses() as parse:
            assert_same_arrays(load_split(path), reference_load_split(path))
        assert parse.call_count == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_loads_like_a_file(self, tmp_path):
        """A pipe cannot be read twice, for the hash and for the parse."""
        path = write_split(tmp_path / "split.jsonl")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        for load in (load_split, load_dataset):
            datagen._splits.clear()
            writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
            writer.start()
            try:
                got = load(pipe)
            finally:
                writer.join()
            if load is load_split:
                assert_same_arrays(got, reference_load_split(path))
                assert list(datagen._splits) == [cache_key(path)]
            else:
                assert [s.scene_id for s in got] == [r[0] for r in reference_load_records(path)]

    @pytest.mark.parametrize("kind", ["invalid-json", "float-label", "bom"])
    def test_a_file_that_turns_malformed_raises_its_error(self, tmp_path, kind):
        path = write_split(tmp_path / "split.jsonl")
        kept = load_split(path)
        lines = path.read_text().splitlines()
        lines[3] = BAD_LINES[kind]
        path.write_text("\n".join(lines))
        with pytest.raises(DatasetParseError) as excinfo:
            load_split(path)
        assert excinfo.value.line_number == 4
        assert list(datagen._splits.values()) == [kept]


# ---------------------------------------------------------------------------
# What a load holds.
# ---------------------------------------------------------------------------


def traced(call):
    """call's result, the tracemalloc peak while it ran and the memory it
    left traced, both counted from the start of the call."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


@pytest.mark.usefixtures("no_splits")
class TestReadMemory:
    """Besides what it returns, a load holds one read's bytes and their
    text, and one chunk of records, however large the file. At the
    concatenate that ends it, load_split also holds its arrays twice."""

    @pytest.fixture(params=[500, 4000])
    def path(self, request, tmp_path):
        path = tmp_path / "split.jsonl"
        datagen.save_generated(datagen.GeneratorConfig(), request.param, path)
        return path

    def bound(self):
        # A read's bytes and its text, and a MiB for a chunk of records.
        return 2 * datagen.READ_BYTES + 2**20

    def test_load_split(self, path):
        (features, targets), peak, kept = traced(lambda: load_split(path))
        arrays = features.nbytes + targets.nbytes
        assert arrays <= kept < arrays + 2**16
        assert peak - kept - arrays < self.bound()

    def test_load_dataset(self, path):
        scenes, peak, kept = traced(lambda: load_dataset(path))
        assert kept >= sum(s.past.nbytes + s.future.nbytes for s in scenes)
        assert peak - kept < self.bound()
