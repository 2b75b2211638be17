"""Property tests for the file loaders: the dataset JSONL, checkpoints and
epochs.csv, and through the command line also configs.

Each loader is fed arbitrary bytes and near-valid files: a file written by
the program, then edited at the byte level or, for the JSON formats, with
one value replaced by arbitrary JSON. A checkpoint's base64 tensor data is
also truncated, extended or overwritten in place. Every input must either
load or raise a WtalabError; any other exception fails the test.

The same files go through the command line (`train --config`, `train` on
a dataset block, `eval --checkpoint`, `charts --epochs-csv`): each command
must exit 0, or exit 1 with exactly one JSON line on stderr.
"""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtalab import (
    DatasetParseError,
    EpochRecord,
    GeneratorConfig,
    ModelConfig,
    WtalabError,
    generate,
    init_params,
    load_checkpoint,
    load_dataset,
    load_split,
    save_checkpoint,
    save_dataset,
)
from wtalab.cli import main
from wtalab.harness import read_epoch_csv, write_epoch_csv
from wtalab.network import forward_batch

from test_harness import ANY_JSON

EXAMPLES = 200


def written_bytes(write, value) -> bytes:
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "file"
        write(value, path)
        return path.read_bytes()


@functools.cache
def valid_dataset() -> bytes:
    config = GeneratorConfig(
        probabilities=(0.5, 0.5),
        turns=(0.4, -0.4),
        speed=1.0,
        noise_std=0.05,
        past_len=2,
        future_len=2,
        seed=1,
    )
    return written_bytes(save_dataset, generate(config, 2))


@functools.cache
def valid_checkpoint() -> bytes:
    config = ModelConfig(input_dim=2, n_heads=2, horizon=1, hidden=(2,))
    return written_bytes(save_checkpoint, init_params(config, seed=0))


@functools.cache
def valid_epochs_csv() -> bytes:
    records = [
        EpochRecord(0, 10.0, 1.5, 0.5, 0.75, 0.0, 0.9, 2, 0.01),
        EpochRecord(1, None, 1.25, 0.5, 0.5, 0.25, 0.8, 1, 0.02),
    ]
    return written_bytes(write_epoch_csv, records)


# Pieces that are likely to move a file from valid to almost valid.
TOKENS = st.sampled_from(
    [
        b"0", b"1", b"-", b".", b"e", b"e999", b"1e400", b"NaN", b"Infinity",
        b"true", b"null", b'"', b",", b";", b":", b"[", b"]", b"{", b"}",
        b"\n", b"\r", b" ", b"\xff", b"\x00",
    ]
) | st.binary(max_size=4)


@st.composite
def byte_edits(draw, valid: bytes) -> bytes:
    """valid with one to three truncations, deletions, insertions or overwrites."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 6)))
        edit = draw(st.sampled_from(["truncate", "delete", "insert", "overwrite"]))
        if edit == "truncate":
            del data[start:]
        elif edit == "delete":
            del data[start:stop]
        elif edit == "insert":
            data[start:start] = draw(TOKENS)
        else:
            data[start:stop] = draw(TOKENS)
    return bytes(data)


# Shape-like lists, including an empty shape too large to build.
SHAPES = st.lists(st.sampled_from([0, 1, 2, 10**30]), max_size=3)


def one_value_replaced(draw, payload):
    """payload (parsed JSON) with one value, at any depth, set to arbitrary JSON."""
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return payload
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        node[key] = draw(ANY_JSON | st.integers() | st.floats() | SHAPES)
        return payload


# Text for a tensor's base64 data: mostly its own alphabet and padding, with
# the characters strict decoding refuses (whitespace, URL-safe base64, other
# ASCII and beyond).
BASE64_TEXT = st.text(
    st.sampled_from("AQgw/+=") | st.sampled_from(" \n-_!é") | st.characters(), max_size=8
)


def data_string_edited(draw, payload):
    """payload (parsed JSON) with one tensor's data string truncated,
    extended, padded with a stray "=" or "==", or with characters replaced;
    unchanged if no data string is left."""
    entries = [
        entry
        for kind in ("weights", "biases")
        if isinstance(payload.get(kind), list)
        for entry in payload[kind]
        if isinstance(entry, dict) and isinstance(entry.get("data"), str)
    ]
    if not entries:
        return payload
    entry = draw(st.sampled_from(entries))
    data = entry["data"]
    start = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["truncate", "extend", "pad", "replace"]))
    text = draw(BASE64_TEXT)
    if edit == "truncate":
        entry["data"] = data[:start]
    elif edit == "pad":
        entry["data"] = data + draw(st.sampled_from(["=", "=="]))
    elif edit == "extend":
        entry["data"] = data + text
    else:
        entry["data"] = data[:start] + text + data[start + len(text) :]
    return payload


@st.composite
def checkpoint_edits(draw) -> bytes:
    payload = json.loads(valid_checkpoint())
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from([one_value_replaced, data_string_edited]))
        payload = edit(draw, payload)
    return json.dumps(payload).encode()


@st.composite
def dataset_edits(draw) -> bytes:
    lines = valid_dataset().decode().splitlines()
    line = draw(st.integers(0, len(lines) - 1))
    lines[line] = json.dumps(one_value_replaced(draw, json.loads(lines[line])))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def csv_field_edits(draw, valid: bytes) -> bytes:
    """valid with one field of one data row replaced by short text."""
    lines = valid.decode().splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row].split(",")
    column = draw(st.integers(0, len(fields) - 1))
    fields[column] = draw(
        st.sampled_from(["", "x", "-1", "1e400", "nan", "inf", "2.5", "1;2", "3;-3"])
        | st.text(max_size=5)
    )
    lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def load_bytes(loader, data: bytes):
    """loader's result on a file holding data, or None if it raised a WtalabError."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "file"
        path.write_bytes(data)
        try:
            return loader(path)
        except WtalabError:
            return None


def inputs(valid, *edits):
    return st.one_of(st.binary(max_size=120), *edits, st.just(valid))


class TestLoadersTakeAnyBytes:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=inputs(valid_dataset(), byte_edits(valid_dataset()), dataset_edits()))
    def test_dataset(self, data):
        scenes = load_bytes(load_dataset, data)
        if scenes is not None:
            for scene in scenes:
                assert scene.past.ndim == scene.future.ndim == 2

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=inputs(valid_dataset(), byte_edits(valid_dataset()), dataset_edits()))
    def test_dataset_split(self, data):
        split = load_bytes(load_split, data)
        if split is not None:
            features, targets = split
            assert features.ndim == 2 and targets.ndim == 3
            assert len(features) == len(targets) >= 1

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        data=inputs(valid_checkpoint(), byte_edits(valid_checkpoint()), checkpoint_edits())
    )
    def test_checkpoint(self, data):
        params = load_bytes(load_checkpoint, data)
        if params is not None:
            trajectories, logits, _ = forward_batch(params, np.zeros((1, params.input_dim)))
            assert logits.shape == (1, params.n_heads)
            # A loaded tensor's data is whole base64 groups: no stray padding.
            payload = json.loads(data)
            for kind in ("weights", "biases"):
                assert all(len(entry["data"]) % 4 == 0 for entry in payload[kind])

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        data=inputs(
            valid_epochs_csv(),
            byte_edits(valid_epochs_csv()),
            csv_field_edits(valid_epochs_csv()),
        )
    )
    def test_epochs_csv(self, data):
        records = load_bytes(read_epoch_csv, data)
        if records is not None:
            assert all(isinstance(r, EpochRecord) for r in records)

    def test_the_unedited_files_load(self):
        assert len(load_bytes(load_dataset, valid_dataset())) == 2
        assert load_bytes(load_split, valid_dataset())[1].shape == (2, 2, 2)
        assert load_bytes(load_checkpoint, valid_checkpoint()).hidden == (2,)
        assert len(load_bytes(read_epoch_csv, valid_epochs_csv())) == 2


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """main's exit code and the lines it wrote to stderr.

    A warning would print on stderr of a real process, so each one counts
    as a line.
    """
    stderr = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(stderr),
    ):
        warnings.simplefilter("always")
        code = main(argv)
    return code, stderr.getvalue().splitlines() + [str(w.message) for w in caught]


def assert_exit_zero_or_one_json_line(code: int, lines: list[str]) -> None:
    if code != 0:
        assert code == 1
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}
        assert isinstance(payload["message"], str)


# Small enough that a valid file trains in milliseconds.
TINY_CONFIG = {"model": {"n_heads": 2, "hidden": [2]}, "epochs": 1, "batch_size": 2}

# One-point pasts and futures fit valid_checkpoint's input and horizon.
ONE_POINT_GENERATOR = {
    "probabilities": [1.0],
    "turns": [0.0],
    "past_len": 1,
    "future_len": 1,
}


def train_on_dataset(data: bytes) -> tuple[int, list[str]]:
    """`wtalab train` of a config whose train and val splits are data."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "scenes.jsonl").write_bytes(data)
        path = str(root / "scenes.jsonl")
        config = dict(TINY_CONFIG, out_dir=str(root / "run"))
        config["dataset"] = {"train_path": path, "val_path": path}
        (root / "config.json").write_text(json.dumps(config))
        return run_cli(["train", "--config", str(root / "config.json")])


@functools.cache
def valid_config() -> bytes:
    config = dict(TINY_CONFIG, generator=ONE_POINT_GENERATOR, train_count=2, val_count=3)
    return json.dumps(config, indent=2).encode()


def train_on_config(data: bytes) -> tuple[int, list[str]]:
    """`wtalab train --config` of data, into a temporary run directory."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "config.json").write_bytes(data)
        argv = ["train", "--config", str(root / "config.json")]
        return run_cli(argv + ["--out-dir", str(root / "run")])


def eval_checkpoint(data: bytes) -> tuple[int, list[str]]:
    """`wtalab eval --checkpoint` of data on generated one-point scenes."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "checkpoint.json").write_bytes(data)
        config = dict(TINY_CONFIG, generator=ONE_POINT_GENERATOR, train_count=2, val_count=3)
        (root / "config.json").write_text(json.dumps(config))
        argv = ["eval", "--config", str(root / "config.json")]
        return run_cli(argv + ["--checkpoint", str(root / "checkpoint.json")])


def charts_of_epochs_csv(data: bytes) -> tuple[int, list[str]]:
    """`wtalab charts --epochs-csv` of data."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "epochs.csv").write_bytes(data)
        argv = ["charts", "--epochs-csv", str(root / "epochs.csv")]
        return run_cli(argv + ["--out-dir", str(root / "charts")])


# JSON that json.loads rejects with other errors than JSONDecodeError:
# nesting deeper than the recursion limit (RecursionError), and an integer
# with more digits than int() converts (ValueError).
DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000
LONG_INTEGER = b'{"seed": ' + b"1" * 5000 + b"}"


def train_on_dataset_line(line: bytes) -> tuple[int, list[str]]:
    """train_on_dataset of the valid dataset with line appended as line 3."""
    return train_on_dataset(valid_dataset() + line + b"\n")


class TestCliReportsOneJsonLine:
    @settings(max_examples=EXAMPLES // 2, deadline=None)
    @given(data=inputs(valid_config(), byte_edits(valid_config())))
    def test_train_config(self, data):
        assert_exit_zero_or_one_json_line(*train_on_config(data))

    @settings(max_examples=EXAMPLES // 2, deadline=None)
    @given(data=inputs(valid_dataset(), byte_edits(valid_dataset()), dataset_edits()))
    def test_train_on_a_dataset_block(self, data):
        assert_exit_zero_or_one_json_line(*train_on_dataset(data))

    @settings(max_examples=EXAMPLES // 2, deadline=None)
    @given(
        data=inputs(valid_checkpoint(), byte_edits(valid_checkpoint()), checkpoint_edits())
    )
    def test_eval_checkpoint(self, data):
        assert_exit_zero_or_one_json_line(*eval_checkpoint(data))

    @settings(max_examples=EXAMPLES // 2, deadline=None)
    @given(
        data=inputs(
            valid_epochs_csv(),
            byte_edits(valid_epochs_csv()),
            csv_field_edits(valid_epochs_csv()),
        )
    )
    def test_charts_epochs_csv(self, data):
        assert_exit_zero_or_one_json_line(*charts_of_epochs_csv(data))

    def test_the_unedited_files_exit_zero(self):
        assert train_on_config(valid_config()) == (0, [])
        assert train_on_dataset(valid_dataset()) == (0, [])
        assert eval_checkpoint(valid_checkpoint()) == (0, [])
        assert charts_of_epochs_csv(valid_epochs_csv()) == (0, [])

    def test_a_bad_record_exits_one(self):
        code, lines = train_on_dataset(valid_dataset().replace(b"[", b"{", 1))
        assert code == 1
        assert json.loads(lines[0])["message"].startswith("line 1: invalid JSON")

    @pytest.mark.parametrize("data", [DEEP_ARRAY, LONG_INTEGER], ids=["deep", "long"])
    @pytest.mark.parametrize(
        "run, error, message",
        [
            (train_on_config, "ConfigurationError", "config.json is not valid JSON: "),
            (eval_checkpoint, "ConfigurationError", "checkpoint.json is not valid JSON: "),
            (train_on_dataset_line, "DatasetParseError", "line 3: invalid JSON ("),
        ],
        ids=["config", "checkpoint", "dataset"],
    )
    def test_json_past_the_parser_limits_exits_one(self, run, error, message, data):
        code, lines = run(data)
        assert code == 1
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert payload["error"] == error
        assert message in payload["message"]

    @pytest.mark.parametrize("data", [DEEP_ARRAY, LONG_INTEGER], ids=["deep", "long"])
    @pytest.mark.parametrize("loader", [load_split, load_dataset])
    def test_dataset_readers_name_the_line_past_the_parser_limits(self, loader, data):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "scenes.jsonl"
            path.write_bytes(valid_dataset() + data + b"\n")
            with pytest.raises(DatasetParseError, match="^line 3: invalid JSON") as excinfo:
                loader(path)
        assert excinfo.value.line_number == 3
