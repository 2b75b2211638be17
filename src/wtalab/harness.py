"""Experiment orchestration: configs, training loop, evaluation, sweeps, charts.

A run is described by one JSON config. Training is deterministic given
(config, seed): data, initialization and batch order all derive from the
seed, and every reduction uses a fixed order. The wall-clock column in the
epoch log is the only non-reproducible output.

`build_splits` turns a config's generator or dataset block into read-only
train and val arrays. `train` builds them itself or takes them ready-made;
`sweep` builds them once and hands them to every grid cell, since cells
differ only in schedule and seed. The cells run one after another in grid
order. Each calls `train` through this module's global name, so a wrapper
patched onto `harness.train` sees every cell.

Output directory layout for one run, written after the last epoch (a run
that fails leaves no directory); every file is written to a temporary name
and renamed into place:

    config.json          the fully resolved config that was executed
    epochs.csv           one row per epoch
    checkpoint_final.json  parameters after the last epoch
    checkpoint_best.json   parameters at the best validation minFDE epoch
    metrics.csv          validation metrics of the best checkpoint
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import time
import typing
from pathlib import Path

import numpy as np

from . import schedulers
from ._files import csv_header, csv_text, parse_csv_row, read_json_object, read_text
from ._files import write_text_atomic
from ._svgchart import line_chart
# featurize is not called here; perfbench/test_perfbench.py patches this binding.
from .datagen import featurize  # noqa: F401
from .datagen import GeneratorConfig, generate_split, load_split
from .errors import ConfigurationError, InputError, NonFiniteError
from .losses import LossConfig, batch_objective
from .metrics import MetricsReport, evaluate, write_report_csv
from .network import (
    AdamState,
    GradientBuffer,
    ModelConfig,
    ModelParams,
    adam_step,
    backward_batch,
    forward_batch,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .postselect import NMSConfig
from .schedulers import ScheduleState

OUT_ROOT_ENV = "WTALAB_OUT_ROOT"


@dataclasses.dataclass
class OptimizerConfig:
    """Adam's step size; every run uses network's ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPS."""

    lr: float = 1e-3

    def validate(self) -> None:
        if not self.lr > 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")


@dataclasses.dataclass
class DatasetPaths:
    """Pre-generated dataset files, the alternative to an inline generator."""

    train_path: str
    val_path: str


@dataclasses.dataclass
class ExperimentConfig:
    """Everything needed to reproduce one training run."""

    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    loss: LossConfig = dataclasses.field(default_factory=LossConfig)
    scheduler: ScheduleState = dataclasses.field(
        default_factory=lambda: ScheduleState(kind="exponential")
    )
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)
    generator: GeneratorConfig | None = None
    dataset: DatasetPaths | None = None
    train_count: int = 1000
    val_count: int = 400
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    out_dir: str = "run"
    nms: NMSConfig | None = None

    def validate(self) -> None:
        if (self.generator is None) == (self.dataset is None):
            raise ConfigurationError(
                "exactly one of 'generator' and 'dataset' must be set"
            )
        if self.generator is not None:
            self.generator.validate()
            if self.train_count < 1 or self.val_count < 1:
                raise ConfigurationError("train_count and val_count must be >= 1")
        self.model.validate()
        self.loss.validate(self.model.n_heads)
        self.optimizer.validate()
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        # Post-selection runs only after the last epoch, so its sizes are
        # checked here, before any training.
        if self.nms is not None:
            self.nms.validate()
            if self.nms.k_out > self.model.n_heads:
                raise ConfigurationError(
                    f"nms.k_out={self.nms.k_out} exceeds"
                    f" model.n_heads={self.model.n_heads}"
                )
        kinds = schedulers.CONTROLS.get(self.loss.variant)
        if kinds is not None and self.scheduler.kind not in kinds:
            raise ConfigurationError(
                f"{self.loss.variant} needs a schedule of kind"
                f" {' or '.join(kinds)}, got kind {self.scheduler.kind!r}"
            )


def resolve_out_dir(out_dir: str) -> Path:
    """Relative output paths land under $WTALAB_OUT_ROOT (default: cwd)."""
    path = Path(out_dir)
    if not path.is_absolute():
        root = os.environ.get(OUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    return path


# ---------------------------------------------------------------------------
# Config JSON round trip.
# ---------------------------------------------------------------------------


def _to_json(obj) -> dict:
    """The JSON object of a config dataclass, its fields in order."""
    out = {}
    for field in dataclasses.fields(obj):
        if field.metadata.get("json", True):
            value = getattr(obj, field.name)
            if dataclasses.is_dataclass(value):
                value = _to_json(value)
            out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def config_to_dict(config: ExperimentConfig) -> dict:
    out = _to_json(config)
    # The data source goes last, and only the one that is set.
    for name in ("generator", "dataset"):
        block = out.pop(name)
        if block is not None:
            out[name] = block
    return out


def _checked(hint, value, where: str):
    """value if it has the JSON type of the annotation hint; lists become tuples.

    Values are checked, not converted, so config.json keeps the numbers as
    they were written: an int stays an int in a float field.
    """
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_checked(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if hint is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif hint is int:
        ok = isinstance(value, int)
    else:
        try:
            ok = math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            ok = False
    if not ok:
        expected = {str: "a string", int: "an integer", float: "a finite number"}[hint]
        raise ConfigurationError(f"{where} must be {expected}, got {value!r}")
    return value


def _from_json(cls, block, where: str, **defaults):
    """An instance of the config dataclass cls from its JSON object block.

    Unknown keys are rejected and a field without a default is required.
    A key that is absent or null takes its value from defaults, else the
    dataclass default. Fields marked {"json": False} are not JSON keys.
    """
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {block!r}")
    fields = {
        f.name: f for f in dataclasses.fields(cls) if f.metadata.get("json", True)
    }
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(defaults)
    for key, value in block.items():
        if value is None:
            continue
        hint = hints[key]
        if type(None) in typing.get_args(hint):  # X | None
            hint = typing.get_args(hint)[0]
        if dataclasses.is_dataclass(hint):
            kwargs[key] = _from_json(hint, value, key)
        else:
            kwargs[key] = _checked(hint, value, f"{where}.{key}")
    missing = [
        name
        for name, f in fields.items()
        if name not in kwargs
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigurationError(f"missing keys in {where}: {missing}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from its JSON form.

    Unknown keys, missing required keys and values of the wrong JSON type
    raise ConfigurationError.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"config must be a JSON object, got {data!r}")
    late = ("scheduler", "generator")
    config = _from_json(
        ExperimentConfig, {k: v for k, v in data.items() if k not in late}, "config"
    )
    # Defaults that depend on top-level values; an unspecified ladder length
    # means "the whole run".
    scheduler = _from_json(
        ScheduleState,
        data.get("scheduler"),
        "scheduler",
        kind="exponential",
        total_steps=max(config.epochs, 1),
    )
    generator = data.get("generator")
    if generator is not None:
        generator = _from_json(
            GeneratorConfig, generator, "generator", seed=config.seed
        )
    config = dataclasses.replace(config, scheduler=scheduler, generator=generator)
    config.validate()
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path, "config", ConfigurationError))


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(config_to_dict(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Epoch records.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EpochRecord:
    """One training epoch as logged to epochs.csv."""

    epoch: int
    schedule_value: float | None
    train_loss: float
    val_min_ade: float
    val_min_fde: float
    val_miss_rate: float
    val_brier_fde: float
    effective_hypotheses: int
    wall_s: float


def write_epoch_csv(records: list[EpochRecord], path: str | Path) -> None:
    columns = csv_header(EpochRecord)
    rows = (
        [f"{r.wall_s:.4f}" if name == "wall_s" else getattr(r, name) for name in columns]
        for r in records
    )
    write_text_atomic(path, csv_text(columns, rows))


def read_epoch_csv(path: str | Path) -> list[EpochRecord]:
    lines = read_text(path, InputError).splitlines()
    if not lines or lines[0] != ",".join(csv_header(EpochRecord)):
        raise InputError(f"{path} is not an epoch log CSV")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        where = f"{path} line {number}"
        record = parse_csv_row(EpochRecord, line, where, InputError)
        values = [x for x in vars(record).values() if x is not None]
        if not all(math.isfinite(x) for x in values):
            raise InputError(f"{where}: values must be finite")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


Splits = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _split_arrays(config: ExperimentConfig, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Features and targets of the "train" or "val" split.

    Generated val scenes follow the train range.
    """
    if config.generator is not None:
        if split == "train":
            return generate_split(config.generator, config.train_count, 0)
        return generate_split(config.generator, config.val_count, config.train_count)
    assert config.dataset is not None
    return load_split(getattr(config.dataset, f"{split}_path"))


def build_splits(config: ExperimentConfig) -> Splits:
    """(features, targets, val_features, val_targets) of the config's data.

    The data depends only on the generator or dataset block and the split
    counts, so every cell of a sweep can share one build. The arrays are
    read-only.
    """
    features, targets = _split_arrays(config, "train")
    val_features, val_targets = _split_arrays(config, "val")
    if (
        val_features.shape[1:] != features.shape[1:]
        or val_targets.shape[1:] != targets.shape[1:]
    ):
        raise ConfigurationError(
            "train and val scenes must share one past length and one future length"
        )
    splits = (features, targets, val_features, val_targets)
    for array in splits:
        array.flags.writeable = False
    return splits


@dataclasses.dataclass
class TrainResult:
    params: ModelParams
    records: list[EpochRecord]
    best_params: ModelParams
    best_epoch: int
    report: MetricsReport
    out_dir: Path


def _check_writable(out_dir: Path) -> None:
    """Fail before training when out_dir, a run's directory or a sweep's,
    could not be created."""
    existing = out_dir
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise InputError(
            f"cannot write {out_dir}: {existing} is not a writable directory"
        )


# While an awta temperature falls, exp passes through the gradual-underflow
# band and a losing head's trajectory gradient w * (2 / L) * r / B can be
# subnormal; each product that reads one takes a microcode assist on x86
# (about 8% of a benchmark_awta run). So training replaces output-gradient
# entries with 0 < |x| < tiny by zeros of their sign before backward_batch,
# which moves no parameter of ordinary size (README, "Run directory"). With
# w >= FLUSH_WEIGHT_BOUND an entry is subnormal only if |r| < 2**-512 * B * L,
# so only batches with a positive weight below the bound are flushed. The
# check does not see the logit columns, which need a logit gap above about
# 700. Runs with fewer output-layer weights than FLUSH_MIN_OUTPUT_WEIGHTS
# never check: the assists cost in proportion to that layer's fan-in, and a
# 64 x 18 output gradient showed no extra time.
FLUSH_WEIGHT_BOUND = 2.0**-512
FLUSH_MIN_OUTPUT_WEIGHTS = 4096
_TINY = np.finfo(float).tiny


def _has_tiny_weight(weights: np.ndarray) -> bool:
    """Whether any assignment weight lies in (0, FLUSH_WEIGHT_BOUND)."""
    return bool(((weights > 0.0) & (weights < FLUSH_WEIGHT_BOUND)).any())


def _flush_subnormals(gradient: np.ndarray) -> None:
    """Replace each entry with 0 < |x| < tiny by a zero of its sign, in place.

    Zeros, tiny itself, normal values, infinities and NaNs keep their bits:
    each is multiplied by 1.0, or a NaN or zero by 0.0.
    """
    gradient *= np.abs(gradient) >= _TINY


def _train_epochs(
    config: ExperimentConfig, params: ModelParams, splits: Splits
) -> tuple[ModelParams, list[EpochRecord], ModelParams, int]:
    """Run every epoch; return the final params, the records and the best
    params and epoch by validation minFDE."""
    features, targets, val_features, val_targets = splits
    n_scenes = features.shape[0]
    check_weights = params.weights[-1].size >= FLUSH_MIN_OUTPUT_WEIGHTS
    shuffle_rng = np.random.default_rng([config.seed, 2])
    adam: AdamState = init_adam(params)
    grads = GradientBuffer.zeros_like(params)
    # Each epoch gathers the train split once, in shuffled order, into these
    # buffers; its batches are then contiguous slices of them.
    shuffled_features = np.empty_like(features)
    shuffled_targets = np.empty_like(targets)
    records: list[EpochRecord] = []
    best_epoch = -1
    best_fde = math.inf
    best_params = params.copy()
    variant = config.loss.variant

    for epoch in range(config.epochs):
        started = time.perf_counter()
        # A scheduled variant's kernel takes the schedule's value as its
        # knob. A temperature is logged as the schedule gives it, a ladder
        # rung as a float.
        knob = schedule_value = None
        if variant in schedulers.CONTROLS:
            knob = schedulers.value(config.scheduler, epoch, config.model.n_heads)
            schedule_value = knob if variant == "awta" else float(knob)
        order = shuffle_rng.permutation(n_scenes)
        # A permutation is always in range; mode="raise" would copy out first.
        np.take(features, order, axis=0, out=shuffled_features, mode="clip")
        np.take(targets, order, axis=0, out=shuffled_targets, mode="clip")
        loss_sum = 0.0
        for batch_index, start in enumerate(range(0, n_scenes, config.batch_size)):
            stop = start + config.batch_size
            preds, logits, activations = forward_batch(
                params, shuffled_features[start:stop]
            )
            objective = batch_objective(
                preds, logits, shuffled_targets[start:stop], variant, knob
            )
            # A finite sum proves every loss finite; only a non-finite one
            # needs the element check, which accepts finite losses whose sum
            # overflows.
            batch_loss = float(np.add.reduce(objective.loss))
            if not math.isfinite(batch_loss) and not np.isfinite(objective.loss).all():
                raise NonFiniteError(
                    f"non-finite loss at epoch {epoch} batch {batch_index}"
                )
            if check_weights and _has_tiny_weight(objective.weights):
                _flush_subnormals(objective.d_outputs)
            backward_batch(params, activations, objective.d_outputs, out=grads)
            try:
                params, adam = adam_step(params, grads, adam, lr=config.optimizer.lr)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"epoch {epoch} batch {batch_index}: {exc}"
                ) from exc
            loss_sum += batch_loss
        report = evaluate(params, val_features, val_targets)
        records.append(
            EpochRecord(
                epoch=epoch,
                schedule_value=schedule_value,
                train_loss=loss_sum / n_scenes,
                val_min_ade=report.min_ade,
                val_min_fde=report.min_fde,
                val_miss_rate=report.miss_rate,
                val_brier_fde=report.brier_fde,
                effective_hypotheses=report.effective_hypotheses,
                wall_s=time.perf_counter() - started,
            )
        )
        if report.min_fde < best_fde:
            best_fde = report.min_fde
            best_epoch = epoch
            best_params.vector[...] = params.vector
    return params, records, best_params, best_epoch


def train(
    config: ExperimentConfig, write_outputs: bool = True, splits: Splits | None = None
) -> TrainResult:
    """Train one model per the config.

    Returns the final parameters, the per-epoch records, and the best
    checkpoint by validation minFDE. With write_outputs (the default) the
    run directory described in the module docstring is produced after the
    last epoch, so a run that fails leaves none. splits, when given, must be
    build_splits of a config with the same data blocks; by default they are
    built here.

    Raises NonFiniteError naming the epoch and batch if the loss or a
    gradient stops being finite.
    """
    config.validate()
    out_dir = resolve_out_dir(config.out_dir)
    if write_outputs:
        _check_writable(out_dir)
    if splits is None:
        splits = build_splits(config)
    features, targets, val_features, val_targets = splits
    model_config = dataclasses.replace(
        config.model, input_dim=features.shape[1], horizon=targets.shape[1]
    )
    # Independent streams so the init does not shift with the batch order.
    params = init_params(model_config, np.random.default_rng([config.seed, 1]))
    # Overflow in the step is caught by the finite checks, which raise
    # NonFiniteError; numpy's own warnings would only repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        params, records, best_params, best_epoch = _train_epochs(config, params, splits)

    best_report = evaluate(best_params, val_features, val_targets, nms=config.nms)

    result = TrainResult(
        params=params,
        records=records,
        best_params=best_params,
        best_epoch=best_epoch,
        report=best_report,
        out_dir=out_dir,
    )
    if write_outputs:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_config(config, out_dir / "config.json")
        write_epoch_csv(records, out_dir / "epochs.csv")
        save_checkpoint(params, out_dir / "checkpoint_final.json")
        save_checkpoint(best_params, out_dir / "checkpoint_best.json")
        write_report_csv(best_report, out_dir / "metrics.csv")
    return result


def evaluate_cmd(
    config: ExperimentConfig,
    checkpoint_path: str | Path,
    out_path: str | Path | None = None,
) -> MetricsReport:
    """Evaluate a saved checkpoint on the config's validation split.

    Raises ConfigurationError when the checkpoint's n_heads or hidden widths
    differ from the config's model block, which sizes nms.k_out.
    """
    config.validate()
    params = load_checkpoint(checkpoint_path)
    model = config.model
    if (params.n_heads, params.hidden) != (model.n_heads, tuple(model.hidden)):
        raise ConfigurationError(
            f"checkpoint {checkpoint_path} has n_heads={params.n_heads} and"
            f" hidden={list(params.hidden)}, but the config's model block has"
            f" n_heads={model.n_heads} and hidden={list(model.hidden)}"
        )
    features, targets = _split_arrays(config, "val")
    report = evaluate(params, features, targets, nms=config.nms)
    if out_path is not None:
        write_report_csv(report, out_path)
    return report


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SweepCell:
    t0: float
    rho: float
    seed: int
    status: str
    error: str = ""
    report: MetricsReport | None = None


SWEEP_METRICS = ("min_ade", "min_fde", "miss_rate", "brier_fde", "effective_hypotheses")


def sweep(
    base: ExperimentConfig,
    t0_values: list[float],
    rho_values: list[float],
    seeds: list[int],
    out_dir: str | Path | None = None,
    workers: int = 1,
    write_cell_outputs: bool = False,
) -> list[SweepCell]:
    """Train one run per (t0, rho, seed) cell, one after another in grid
    order (t0 outermost, seed innermost), and return the cells in that order.

    The cells share one build_splits of base, since they differ only in
    schedule and seed; each cell's outputs are byte-identical to a solo train
    of its config. Data that cannot be built raises before the first cell,
    since every cell would fail on it. A failed cell is recorded, not raised.
    Each cell calls the module-global train, so a wrapper patched onto
    harness.train sees it. A given out_dir is checked before the first cell
    and receives sweep.csv.
    workers stays only for callers that pass 1; any other value raises
    InputError before a cell trains.

    A grid whose cells would repeat a run or share a directory raises
    InputError before the first cell: a value listed twice, two t0 or rho
    values that print alike at 6 significant digits, or more than one value
    of t0 or rho where the run does not read it (schedulers.fields_read).
    One such value is allowed, since the command line always passes both.
    """
    if workers != 1:
        raise InputError(f"sweep runs cells serially; workers must be 1, got {workers}")
    if not t0_values or not rho_values or not seeds:
        raise InputError("sweep needs at least one t0, rho and seed")
    read = schedulers.fields_read(base.loss.variant, base.scheduler)
    for name, values in (("t0", t0_values), ("rho", rho_values), ("seed", seeds)):
        if len(set(values)) < len(values):
            raise InputError(f"sweep grid repeats a {name} value: {values}")
        if name == "seed":
            continue
        # A cell's directory names its t0 and rho at 6 significant digits.
        if len({f"{v:g}" for v in values}) < len(values):
            raise InputError(
                f"sweep grid has {name} values that print alike at 6 significant"
                f" digits, so two cells would share a directory: {values}"
            )
        if len(values) > 1 and name not in read:
            raise InputError(
                f"a {base.loss.variant} run with a {base.scheduler.kind} schedule"
                f" does not read {name}, so its {len(values)} {name} values would"
                f" train the same run; sweep one {name} value, got {values}"
            )
    if out_dir is not None:
        out = resolve_out_dir(str(out_dir))
        _check_writable(out)
    splits = build_splits(base)
    cells = []
    for t0, rho, seed in itertools.product(t0_values, rho_values, seeds):
        cell = SweepCell(t0=t0, rho=rho, seed=seed, status="ok")
        try:  # a t0 or rho the schedule rejects fails its cell like a bad seed
            scheduler = dataclasses.replace(base.scheduler, t0=t0, rho=rho)
            cell_dir = Path(base.out_dir) / f"cell-t0_{t0:g}-rho_{rho:g}-seed_{seed}"
            config = dataclasses.replace(
                base, scheduler=scheduler, seed=seed, out_dir=str(cell_dir)
            )
            result = train(config, write_outputs=write_cell_outputs, splits=splits)
            cell.report = result.report
        except Exception as exc:  # a failed cell must not sink the sweep
            cell.status, cell.error = "failed", f"{type(exc).__name__}: {exc}"
        cells.append(cell)
    if out_dir is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(cells, out / "sweep.csv")
    return cells


def write_sweep_csv(cells: list[SweepCell], path: str | Path) -> None:
    """One row per cell: its own fields, then its report's SWEEP_METRICS,
    empty for a failed cell."""
    columns = tuple(name for name in csv_header(SweepCell) if name != "report")
    rows = (
        [getattr(cell, name) for name in columns]
        + [getattr(cell.report, name, None) for name in SWEEP_METRICS]
        for cell in cells
    )
    write_text_atomic(path, csv_text(columns + SWEEP_METRICS, rows))


# ---------------------------------------------------------------------------
# Charts.
# ---------------------------------------------------------------------------


# (file, title, y label, EpochRecord column) of each epoch chart. A column
# that is None in every record, such as schedule_value for wta, gets none.
EPOCH_CHARTS = (
    ("loss_vs_epoch.svg", "Training loss", "loss", "train_loss"),
    (
        "effective_hypotheses_vs_epoch.svg",
        "Effective hypotheses",
        "heads in use",
        "effective_hypotheses",
    ),
    ("schedule_vs_epoch.svg", "Schedule control value", "value", "schedule_value"),
)


def emit_charts(
    data: list[EpochRecord] | list[SweepCell], out_dir: str | Path
) -> list[Path]:
    """Write deterministic SVG line charts plus the underlying CSV.

    Epoch records produce loss, schedule value and effective-hypotheses
    curves against the epoch index. Sweep cells produce final minADE
    against t0 with one line per rho; each point is the mean over that
    t0's successful seeds.
    """
    if not data:
        raise InputError("no records to chart")
    kinds = {type(item) for item in data}
    if kinds == {EpochRecord}:
        charts = []
        for filename, title, y_label, column in EPOCH_CHARTS:
            points = [
                (float(r.epoch), float(value))
                for r in data
                if (value := getattr(r, column)) is not None
            ]
            if points:
                series = [(column, *map(list, zip(*points)))]
                charts.append((filename, title, "epoch", y_label, series))
        csv_name, write_csv = "charts_data.csv", write_epoch_csv
    elif kinds == {SweepCell}:
        series = []
        for rho in sorted({c.rho for c in data}):
            by_t0: dict[float, list[float]] = {}
            for c in data:
                if c.rho == rho and c.report is not None:
                    by_t0.setdefault(c.t0, []).append(c.report.min_ade)
            if by_t0:
                t0s = sorted(by_t0)
                means = [math.fsum(by_t0[t0]) / len(by_t0[t0]) for t0 in t0s]
                series.append((f"rho={rho:g}", t0s, means))
        if not series:
            raise InputError("no successful sweep cells to chart")
        charts = [("sweep_min_ade_vs_t0.svg", "Sweep: min ADE vs t0", "t0", "min_ade", series)]
        csv_name, write_csv = "sweep_data.csv", write_sweep_csv
    else:
        raise InputError("chart input must be all EpochRecord or all SweepCell")
    out = resolve_out_dir(str(out_dir))
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, title, x_label, y_label, series in charts:
        written.append(out / filename)
        write_text_atomic(written[-1], line_chart(series, title, x_label, y_label))
    written.append(out / csv_name)
    write_csv(data, written[-1])
    return written
