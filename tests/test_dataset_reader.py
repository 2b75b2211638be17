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
"""

import hashlib
import json
import re
import tempfile
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


def reference_load_records(path):
    """(scene_id, past, future, mode_label) per record, with the old checks."""
    records = []
    text = Path(path).read_text(encoding="utf-8")
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
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "split.jsonl"
        path.write_bytes(text.replace("\n", newline).encode())
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


def record_line(scene_id="s", past=((0.0, 0.0),), future=((1.0, 0.0),), mode_label=0):
    return json.dumps(
        {
            "scene_id": scene_id,
            "past": [list(p) for p in past],
            "future": [list(p) for p in future],
            "mode_label": mode_label,
        }
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

    def test_the_last_two_splits_used_are_kept(self, tmp_path):
        a, b, c = (write_split(tmp_path / f"{name}.jsonl", n) for name, n in zip("abc", (3, 4, 5)))
        for path in (a, b, a, c):
            load_split(path)
        assert datagen.SPLIT_CACHE_SIZE == 2
        assert list(datagen._splits) == [cache_key(a), cache_key(c)]
        load_split_hit(a)
        with counting_parses() as parse:
            assert_same_arrays(load_split(b), reference_load_split(b))
        assert parse.call_count == 1
        assert list(datagen._splits) == [cache_key(a), cache_key(b)]

    def test_the_parse_reads_the_bytes_that_were_hashed(self, tmp_path):
        """A file edited between the read and the parse cannot get the edit's
        arrays kept under the key of the bytes read."""
        path = write_split(tmp_path / "split.jsonl")
        original = path.read_bytes()
        real_decode = datagen.decode_text

        def edit_then_decode(data, *args):
            path.write_bytes(edit_one_coordinate(original))
            return real_decode(data, *args)

        with mock.patch.object(datagen, "decode_text", edit_then_decode):
            first = load_split(path)
        path.write_bytes(original)
        assert_same_arrays(first, reference_load_split(path))
        assert load_split_hit(path) is first

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
