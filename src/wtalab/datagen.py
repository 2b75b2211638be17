"""Synthetic branching-trajectory scenes.

Every scene has a straight constant-speed past segment ending at the origin
and a future drawn from a small set of branches (straight or turning arcs).
The branch is sampled independently of the past, so the future is genuinely
multimodal given the context: no model can do better than covering the
branches with separate hypotheses.

Randomness is derived per scene from (seed, scene index), so generating a
range of scenes in parallel chunks gives bitwise the same data as one serial
pass.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._files import NUMBER_TYPES, decode_reads, write_text_atomic
from .errors import ConfigurationError, DatasetParseError, InputError

_SPLIT_SHAPE_MESSAGE = (
    "a split needs at least one scene, and its scenes must share one"
    " past length and one future length"
)


@dataclasses.dataclass(frozen=True)
class Scene:
    """One training example: an observed past and one realized future.

    Only generate and load_dataset build Scenes, for callers that want one
    object per scene, such as the benchmark's set-up in perfbench/. Training,
    evaluation and `wtalab generate` work on arrays and build none.
    """

    scene_id: str
    past: np.ndarray
    future: np.ndarray
    mode_label: int

    def __post_init__(self):
        past = np.asarray(self.past, dtype=float)
        future = np.asarray(self.future, dtype=float)
        object.__setattr__(self, "past", past)
        object.__setattr__(self, "future", future)
        if past.ndim != 2 or past.shape[1] != 2 or past.shape[0] < 1:
            raise InputError(f"past must be (P, 2) with P >= 1, got {past.shape}")
        if future.ndim != 2 or future.shape[1] != 2 or future.shape[0] < 1:
            raise InputError(f"future must be (L, 2) with L >= 1, got {future.shape}")
        if not (np.isfinite(past).all() and np.isfinite(future).all()):
            raise InputError("scene coordinates must be finite")


@dataclasses.dataclass
class GeneratorConfig:
    """Branch geometry and sampling parameters.

    probabilities are the branch sampling weights, one per branch, and
    turns holds the total heading change of each branch over the future,
    in radians; 0 is straight, positive turns left. The number of branches
    is their common length. noise_std is the standard deviation of the
    i.i.d. Gaussian waypoint noise added to both past and future.
    """

    probabilities: tuple[float, ...] = (0.4, 0.4, 0.2)
    turns: tuple[float, ...] = (math.pi / 2, 0.0, -math.pi / 2)
    speed: float = 1.0
    noise_std: float = 0.1
    past_len: int = 20
    future_len: int = 30
    seed: int = 0

    def validate(self) -> None:
        n_probabilities, n_turns = len(self.probabilities), len(self.turns)
        if n_probabilities == 0 or n_probabilities != n_turns:
            raise ConfigurationError(
                "probabilities and turns need one entry per branch and at least"
                f" one branch, got {n_probabilities} probabilities and {n_turns} turns"
            )
        if not all(math.isfinite(p) for p in self.probabilities):
            raise ConfigurationError("branch probabilities must be finite")
        if any(p < 0 for p in self.probabilities):
            raise ConfigurationError("branch probabilities must be nonnegative")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ConfigurationError("branch probabilities must sum to 1 within 1e-9")
        if not self.speed > 0:
            raise ConfigurationError(f"speed must be positive, got {self.speed}")
        if self.noise_std < 0:
            raise ConfigurationError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.past_len < 1 or self.future_len < 1:
            raise ConfigurationError("past_len and future_len must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def branch_waypoints(config: GeneratorConfig, branch: int) -> np.ndarray:
    """Noise-free future for one branch, starting from the origin."""
    heading_step = config.turns[branch] / config.future_len
    steps = np.arange(1, config.future_len + 1)
    headings = steps * heading_step
    deltas = config.speed * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    return np.cumsum(deltas, axis=0)


def _generate_arrays(
    config: GeneratorConfig, count: int, start_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branches (N,), pasts (N, P, 2) and futures (N, L, 2) of a scene range.

    Scene i draws from its own default_rng([seed, i]): one uniform that picks
    the branch exactly as Generator.choice(n, p=p) does, then the past noise
    and the future noise. Everything else is whole-array work.
    """
    config.validate()
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    if start_index < 0:
        raise InputError(f"scene index must be >= 0, got {start_index}")
    past_len, future_len = config.past_len, config.future_len
    uniforms = np.empty(count)
    normals = np.empty((count, 2 * (past_len + future_len)))
    for row in range(count):
        rng = np.random.default_rng([config.seed, start_index + row])
        uniforms[row] = rng.random()
        rng.standard_normal(out=normals[row])
    cdf = np.asarray(config.probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    branches = cdf.searchsorted(uniforms, side="right")
    # Generator.normal(0.0, noise_std) returns 0.0 + noise_std * z, which
    # turns a -0.0 product into +0.0; keep that rounding.
    noise = 0.0 + config.noise_std * normals
    past_x = (np.arange(past_len) - (past_len - 1)) * config.speed
    past_template = np.stack([past_x, np.zeros(past_len)], axis=1)
    waypoints = np.stack([branch_waypoints(config, b) for b in range(len(config.turns))])
    pasts = past_template + noise[:, : 2 * past_len].reshape(count, past_len, 2)
    futures = waypoints[branches] + noise[:, 2 * past_len :].reshape(count, future_len, 2)
    if not (np.isfinite(pasts).all() and np.isfinite(futures).all()):
        raise InputError("scene coordinates must be finite")
    return branches, pasts, futures


# A scene's fields in Scene's order: scene_id, past, future, mode_label.
_Row = tuple[str, np.ndarray, np.ndarray, int]


def _scene_rows(config: GeneratorConfig, count: int, start_index: int) -> Iterator[_Row]:
    """The rows of `count` consecutive scenes starting at start_index.

    One _generate_arrays call makes every row, when the first is drawn.
    """
    branches, pasts, futures = _generate_arrays(config, count, start_index)
    for row, branch in enumerate(branches.tolist()):
        scene_id = f"scene-{config.seed}-{start_index + row:06d}"
        yield scene_id, pasts[row], futures[row], branch


def generate(config: GeneratorConfig, count: int, start_index: int = 0) -> list[Scene]:
    """Generate `count` consecutive scenes starting at start_index.

    A Scene per row, for callers that want objects; the benchmark's set-up
    in perfbench/ calls it. generate_split gives the same scenes as arrays.
    """
    return [Scene(*row) for row in _scene_rows(config, count, start_index)]


def generate_split(
    config: GeneratorConfig, count: int, start_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(N, P*2) features and (N, L, 2) targets of `count` generated scenes.

    Row i is featurize(generate(config, count, start_index)[i]), byte for
    byte, without building a Scene per row.
    """
    _, pasts, futures = _generate_arrays(config, count, start_index)
    if count == 0:
        raise ConfigurationError(_SPLIT_SHAPE_MESSAGE)
    return _model_frame(pasts, futures)


def _model_frame(pasts: np.ndarray, futures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features and targets of (N, P, 2) pasts and (N, L, 2) futures.

    Each scene moves so that its last past point is the origin, exactly as
    featurize does one scene.
    """
    offsets = pasts[:, -1:, :]
    return (pasts - offsets).reshape(len(pasts), -1), futures - offsets


# ---------------------------------------------------------------------------
# Line-delimited dataset files.
# ---------------------------------------------------------------------------


def _record_lines(rows: Iterable[_Row]) -> Iterator[str]:
    """One JSON record per row, each a line; floats round-trip exactly."""
    for scene_id, past, future, mode_label in rows:
        record = {
            "scene_id": scene_id,
            "past": past.tolist(),
            "future": future.tolist(),
            "mode_label": mode_label,
        }
        yield json.dumps(record) + "\n"


def save_dataset(scenes: list[Scene], path: str | Path) -> None:
    """Write one JSON record per scene, each a line, atomically.

    The benchmark's set-up in perfbench/ calls it; save_generated writes
    generated scenes the same way without building them.
    """
    rows = ((s.scene_id, s.past, s.future, s.mode_label) for s in scenes)
    write_text_atomic(path, _record_lines(rows))


def save_generated(
    config: GeneratorConfig, count: int, path: str | Path, start_index: int = 0
) -> None:
    """Write the bytes of save_dataset(generate(config, count, start_index), path).

    The lines stream from the generated arrays into the temporary file, so
    the file's text is never held whole, and a path that cannot be written
    fails before any scene is generated.
    """
    write_text_atomic(path, _record_lines(_scene_rows(config, count, start_index)))


# Bytes read from a dataset file at a time. Besides the arrays it returns,
# which load_split's final concatenate briefly holds twice, a load holds one
# read's bytes and text and one chunk of records, whatever the file's size.
READ_BYTES = 1 << 20

# Records held as parsed JSON at one time. A record's Python objects take
# about five times the memory of its arrays, so a file is parsed and turned
# into arrays a bounded chunk at a time: parsing a whole split first raises
# the peak memory of reading it, and larger chunks are no faster.
CHUNK_RECORDS = 64

# The last split load_split parsed, by the sha256 of its file's bytes. One
# is enough: a command rereads no file but the last, as repeated evals do.
_splits: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

_FIELDS = operator.itemgetter("scene_id", "past", "future", "mode_label")


class _Block(NamedTuple):
    """Consecutive records of one past length and one future length."""

    scene_ids: tuple[str, ...]
    mode_labels: tuple[int, ...]
    pasts: np.ndarray
    futures: np.ndarray


def _parse_waypoints(raw, key: str, line_number: int) -> np.ndarray:
    if type(raw) is not list or not raw:
        raise DatasetParseError(line_number, f"{key} must be a non-empty list")
    for point in raw:
        if (
            type(point) is not list
            or len(point) != 2
            or type(point[0]) not in NUMBER_TYPES
            or type(point[1]) not in NUMBER_TYPES
        ):
            raise DatasetParseError(line_number, f"{key} must be a list of [x, y] pairs")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise DatasetParseError(line_number, "scene coordinates must be finite") from None


def _parse_record(line_number: int, line: str) -> _Block:
    """One line's record as a block, or the DatasetParseError of its first
    problem."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also too deep, or a number too long
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise DatasetParseError(line_number, f"invalid JSON ({reason})") from exc
    if not isinstance(record, dict):
        raise DatasetParseError(line_number, "record must be a JSON object")
    missing = {"scene_id", "past", "future", "mode_label"} - record.keys()
    if missing:
        raise DatasetParseError(line_number, f"missing keys: {sorted(missing)}")
    if type(record["scene_id"]) is not str:
        raise DatasetParseError(line_number, "scene_id must be a string")
    if type(record["mode_label"]) is not int:
        raise DatasetParseError(line_number, "mode_label must be an integer")
    past = _parse_waypoints(record["past"], "past", line_number)
    future = _parse_waypoints(record["future"], "future", line_number)
    if not (np.isfinite(past).all() and np.isfinite(future).all()):
        raise DatasetParseError(line_number, "scene coordinates must be finite")
    return _Block((record["scene_id"],), (record["mode_label"],), past[None], future[None])


def _waypoint_array(lists: tuple) -> np.ndarray | None:
    """(n, P, 2) array of n waypoint lists, each of which _parse_record
    accepts with one shared P; None if any of them would fail."""
    lengths = set(map(len, lists)) if set(map(type, lists)) == {list} else set()
    if len(lengths) != 1 or 0 in lengths:
        return None
    points = list(itertools.chain.from_iterable(lists))
    try:
        if set(map(len, points)) != {2}:
            return None
    except TypeError:  # a number or null
        return None
    # A JSON value of length 2 is a list, an object or a string; the items
    # of the last two are strings, so this check also makes every point a list.
    coordinates = list(itertools.chain.from_iterable(points))
    if not set(map(type, coordinates)) <= NUMBER_TYPES:
        return None
    try:
        array = np.array(coordinates, dtype=float)
    except OverflowError:
        return None
    return array.reshape(len(lists), -1, 2) if np.isfinite(array).all() else None


def _bulk_block(records: list) -> _Block | None:
    """records as one block if every one passes _parse_record's checks and
    they share their lengths, else None. Each check runs over the whole
    chunk at once."""
    if set(map(type, records)) != {dict}:
        return None
    try:
        scene_ids, pasts, futures, mode_labels = zip(*map(_FIELDS, records))
    except KeyError:
        return None
    if set(map(type, scene_ids)) != {str} or set(map(type, mode_labels)) != {int}:
        return None
    past_array = _waypoint_array(pasts)
    future_array = None if past_array is None else _waypoint_array(futures)
    if future_array is None:
        return None
    return _Block(scene_ids, mode_labels, past_array, future_array)


def _read_chunk(chunk: list[tuple[int, str]]) -> list[_Block]:
    """Blocks of (line number, line) pairs, in order.

    A chunk that fails a bulk check is walked record by record, which raises
    the error of its first bad record, or, when every record is good but
    their lengths differ, gives one block per record.
    """
    try:
        records = [json.loads(line) for _, line in chunk]
    except (ValueError, RecursionError):  # bad JSON: the walk reports it in order
        records = None
    block = None if records is None else _bulk_block(records)
    if block is not None:
        return [block]
    return [_parse_record(line_number, line) for line_number, line in chunk]


def _file_lines(handle, path: str | Path, digest=None) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of an open dataset file that is not
    blank, numbered as in text.split("\n") of read_text of the file.

    The file is read READ_BYTES at a time, and each read goes into digest
    if one is given. Only one read's text is held, besides a line that
    runs on into the next read.
    """

    def read() -> bytes:
        data = handle.read(READ_BYTES)
        if digest is not None:
            digest.update(data)
        return data

    number = 0
    head: list[str] = []  # the start of a line that runs on into the next read
    for text in decode_reads(iter(read, b""), path, InputError):
        start = 0
        while (end := text.find("\n", start)) >= 0:
            line = text[start:end]
            if head:
                line = "".join([*head, line])
                head.clear()
            number += 1
            if line.strip():
                yield number, line
            start = end + 1
        head.append(text[start:])
        del text  # before the next read
    line = "".join(head)
    if line.strip():
        yield number + 1, line


def _read_blocks(lines: Iterator[tuple[int, str]]) -> Iterator[_Block]:
    """The records of _file_lines as blocks, CHUNK_RECORDS lines at a time.

    A malformed record's DatasetParseError is raised once the rest of the
    lines are read, so that bytes that are not UTF-8 anywhere in the file
    win over it, as they did when a file was decoded whole before parsing.
    """
    while chunk := list(itertools.islice(lines, CHUNK_RECORDS)):
        try:
            blocks = _read_chunk(chunk)
        except DatasetParseError:
            collections.deque(lines, maxlen=0)
            raise
        yield from blocks


def load_split(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """(N, P*2) features and (N, L, 2) targets of a dataset file.

    Row i is featurize(load_dataset(path)[i]), byte for byte, without a
    Scene per line. Bytes that are not UTF-8 raise InputError; else a
    malformed record raises DatasetParseError naming its line; else a scene
    whose offsets from its last past point overflow raises InputError
    naming it; else a file that is empty or mixes lengths raises
    ConfigurationError.

    The arrays are read-only, and the last split that parsed is kept in
    this process under the sha256 of its file's bytes: a later call on the
    same bytes returns the same arrays without parsing again. A call reads
    the file once to hash it, and on a miss once more to parse it. The
    parse hashes the bytes it parses and keys the arrays by them, so an edit
    between the two reads is never kept under the wrong key.
    """
    with Path(path).open("rb", buffering=0) as handle:
        if not handle.seekable():  # a pipe can be read only once, so hold its bytes
            handle = io.BytesIO(handle.read())
        split = _splits.get(hashlib.file_digest(handle, "sha256").digest())
        if split is None:
            handle.seek(0)
            digest = hashlib.sha256()
            split = _parse_split(path, _file_lines(handle, path, digest))
            for array in split:
                array.flags.writeable = False
            _splits.clear()
            _splits[digest.digest()] = split
    return split


def _parse_split(
    path: str | Path, lines: Iterator[tuple[int, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """load_split's arrays of the lines of the dataset file at path."""
    features, targets, overflowed = [], [], []
    for block in _read_blocks(lines):
        # The check below reports an overflow; numpy's warning would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            block_features, block_targets = _model_frame(block.pasts, block.futures)
        finite = np.isfinite(block_features).all(axis=1)
        finite &= np.isfinite(block_targets).all(axis=(1, 2))
        overflowed.extend(itertools.compress(block.scene_ids, ~finite))
        features.append(block_features)
        targets.append(block_targets)
    if overflowed:
        raise InputError(
            f"{path}: scene {overflowed[0]!r} overflows the model frame: its"
            " coordinates less its last past point are not finite"
        )
    if len({f.shape[1] for f in features}) != 1 or len({t.shape[1] for t in targets}) != 1:
        raise ConfigurationError(_SPLIT_SHAPE_MESSAGE)
    return np.concatenate(features), np.concatenate(targets)


def load_dataset(path: str | Path) -> list[Scene]:
    """Read a dataset written by save_dataset, a Scene per record.

    The benchmark's set-up in perfbench/ calls it; load_split reads the
    same records as arrays. Raises DatasetParseError naming the 1-based
    line number of the first malformed record, and InputError if the file
    is not UTF-8. An empty file loads as an empty list, and scenes may
    differ in length.
    """
    with Path(path).open("rb", buffering=0) as handle:
        return [
            Scene(scene_id, past, future, mode_label)
            for block in _read_blocks(_file_lines(handle, path))
            for scene_id, mode_label, past, future in zip(*block)
        ]


# ---------------------------------------------------------------------------
# Model-facing features.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FeaturizedScene:
    """A scene translated into the model frame: one row of a split's arrays.

    featurize returns it; the benchmark in perfbench/ uses both.

    features: flattened past waypoints after moving the last past point to
        the origin.
    target: the future translated by the same offset.
    offset: the translation to add back for de-normalization.
    """

    scene_id: str
    features: np.ndarray
    target: np.ndarray
    offset: np.ndarray
    mode_label: int


def featurize(scene: Scene) -> FeaturizedScene:
    """Translate a scene so the last past point is the origin and flatten.

    The benchmark's tracer in perfbench/ hooks featurize, here and where
    harness and metrics import it.
    """
    offset = scene.past[-1].copy()
    return FeaturizedScene(
        scene_id=scene.scene_id,
        features=(scene.past - offset).reshape(-1),
        target=scene.future - offset,
        offset=offset,
        mode_label=scene.mode_label,
    )
