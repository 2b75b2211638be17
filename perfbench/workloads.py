"""The benchmark's workloads: what each builds, calls and checks.

Every workload derives its inputs from the workload seed alone: the config
seed and the generator seed are both set to it, so the same seed gives the
same scenes, initialization and batch order. The one fixed input is the
checkpoint that `eval-nms12` scores (see `EvalNMS12.prepare`).

`train-branch3` is one `harness.train` of the paper's headline config; its
time goes to the training step. `sweep-phase2` trains many tiny models, so
per-call overhead, validation and per-cell scene regeneration dominate.
`eval-nms12` is the read-only path: load a checkpoint and two dataset files,
score the validation split through per-scene NMS; no backward, Adam or loss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

from wtalab import datagen, harness

# Grid cells that split into two heads on every seed tried (0-9), so no
# cell's quality guard flips between seeds.
SWEEP_T0 = (20.0, 40.0)
SWEEP_RHO = (0.85, 0.9)

EVAL_TRAIN_SCENES = 1000
EVAL_VAL_SCENES = 2000
EVAL_CHECKPOINT_EPOCHS = 10


@dataclasses.dataclass
class Inputs:
    config: object
    expected_scenes: int
    checkpoint: Path | None = None


@dataclasses.dataclass
class CallOutcome:
    """What one timed call produced, after its outputs were checked.

    records holds one entry per operation (a run, a sweep cell or an eval
    call): label, ok, error, digests, min_fde, effective_hypotheses.
    scene_rates holds the scene passes per second of each ok operation.
    epoch_groups holds the epoch wall times of each training run in the
    call; an eval call is one epoch, a pass over the validation split.
    """

    scene_rates: list[float]
    epoch_groups: list[list[float]]
    records: list[dict]


def reseed(config, seed: int):
    """The config with its own seed and its generator seed set to `seed`."""
    generator = config.generator
    if generator is not None:
        generator = dataclasses.replace(generator, seed=seed)
    return dataclasses.replace(config, seed=seed, generator=generator)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def epochs_digest(path: Path) -> str:
    """Digest of epochs.csv without its wall_s column, the one timed field."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    wall = header.index("wall_s")
    kept = [",".join(v for i, v in enumerate(line.split(",")) if i != wall) for line in lines]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def run_dir_digests(path: Path) -> dict[str, str]:
    digests = {
        name: sha256(path / name)
        for name in ("metrics.csv", "checkpoint_final.json", "checkpoint_best.json")
    }
    digests["epochs.csv"] = epochs_digest(path / "epochs.csv")
    return digests


def report_error(report, expected_scenes: int) -> str:
    """Empty when the report is finite and its histogram counts every scene."""
    values = (report.min_ade, report.min_fde, report.miss_rate, report.brier_fde)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite metric in {values}"
    if report.n_scenes != expected_scenes:
        return f"report covers {report.n_scenes} scenes, expected {expected_scenes}"
    if sum(report.winner_histogram) != report.n_scenes:
        return (
            f"winner histogram sums to {sum(report.winner_histogram)},"
            f" not n_scenes={report.n_scenes}"
        )
    return ""


def record(label: str, error: str = "", digests=None, report=None) -> dict:
    return {
        "label": label,
        "ok": not error,
        "error": error,
        "digests": digests or {},
        "min_fde": report.min_fde if report is not None and not error else None,
        "effective_hypotheses": (
            report.effective_hypotheses if report is not None and not error else None
        ),
    }


def training_passes(config) -> int:
    """Scenes a training run passes over: every epoch plus the final eval."""
    return config.train_count * config.epochs + config.val_count * (config.epochs + 1)


class Workload:
    name = ""
    config_path = ""
    # The calibrate kernels that slow down as this workload's calls do.
    reference = ("python", "small_numpy")

    def prepare(self, seed: int, work: Path) -> None:
        """Untimed, once per benchmark run, before any worker starts."""

    def setup(self, seed: int, work: Path) -> Inputs:
        """Load and reseed the config; build the validation split the
        reports are checked against."""
        config = reseed(harness.load_config(self.config_path), seed)
        val = datagen.generate(config.generator, config.val_count, start_index=config.train_count)
        return Inputs(config=config, expected_scenes=len(val))

    def call(self, inputs: Inputs, out: Path):
        raise NotImplementedError

    def check(self, inputs: Inputs, result, out: Path, call_s: float) -> CallOutcome:
        raise NotImplementedError

    def labels(self, inputs: Inputs) -> list[str]:
        """The operations one call attempts, for counting a call that raised."""
        return [self.name]


class TrainBranch3(Workload):
    name = "train-branch3"
    config_path = "configs/benchmark_awta.json"
    reference = ("gemm", "batch_numpy")

    def call(self, inputs, out):
        return harness.train(dataclasses.replace(inputs.config, out_dir=str(out)))

    def check(self, inputs, result, out, call_s):
        config = inputs.config
        error = report_error(result.report, inputs.expected_scenes)
        if not error and len(result.records) != config.epochs:
            error = f"{len(result.records)} epoch records, expected {config.epochs}"
        if not error and not all(math.isfinite(r.train_loss) for r in result.records):
            error = "non-finite train_loss"
        return CallOutcome(
            scene_rates=[] if error else [training_passes(config) / call_s],
            epoch_groups=[[r.wall_s for r in result.records]],
            records=[record(self.name, error, run_dir_digests(out), result.report)],
        )


class SweepPhase2(Workload):
    name = "sweep-phase2"
    config_path = "configs/phase_transition.json"

    def seeds(self, inputs):
        return [inputs.config.seed, inputs.config.seed + 1]

    def call(self, inputs, out):
        """Run the sweep, keeping each cell's time and epoch records.

        `sweep` returns only the cells' reports, and epochs.csv rounds
        wall_s to 0.1 ms (2% of a 4 ms epoch), so a pass-through wrapper on
        `harness.train` keeps them; it costs four calls per cell. A sweep
        that no longer calls `train` per cell leaves the dict empty.
        """
        cells_seen = {}
        train = harness.train

        def keep_cell(config, *args, **kwargs):
            start = time.perf_counter()
            result = train(config, *args, **kwargs)
            key = (config.scheduler.t0, config.scheduler.rho, config.seed)
            cells_seen[key] = (time.perf_counter() - start, [r.wall_s for r in result.records])
            return result

        harness.train = keep_cell
        try:
            cells = harness.sweep(
                dataclasses.replace(inputs.config, out_dir=str(out)),
                list(SWEEP_T0),
                list(SWEEP_RHO),
                self.seeds(inputs),
                out_dir=str(out),
                workers=1,
                write_cell_outputs=True,
            )
        finally:
            harness.train = train
        return cells, cells_seen

    def labels(self, inputs):
        return [
            f"cell-t0_{t0:g}-rho_{rho:g}-seed_{seed}"
            for t0 in SWEEP_T0
            for rho in SWEEP_RHO
            for seed in self.seeds(inputs)
        ]

    def check(self, inputs, result, out, call_s):
        result, cells_seen = result
        labels = self.labels(inputs)
        if len(result) != len(labels):
            return CallOutcome(
                [], [], [record(label, f"sweep returned {len(result)} cells") for label in labels]
            )
        records, rates, groups = [], [], []
        passes = training_passes(inputs.config)
        for label, cell in zip(labels, result):
            if cell.status != "ok":
                records.append(record(label, f"cell failed: {cell.error}"))
                continue
            error = report_error(cell.report, inputs.expected_scenes)
            records.append(record(label, error, run_dir_digests(out / label), cell.report))
            seen = cells_seen.get((cell.t0, cell.rho, cell.seed))
            if seen is not None and not error:
                rates.append(passes / seen[0])
                groups.append(seen[1])
        if not cells_seen:
            ok = sum(1 for r in records if r["ok"])
            rates = [ok * passes / call_s] if ok else []
        return CallOutcome(scene_rates=rates, epoch_groups=groups, records=records)


class EvalNMS12(Workload):
    name = "eval-nms12"
    config_path = "configs/benchmark_wta12_nms.json"

    def prepare(self, seed, work):
        """Write the two dataset splits and a briefly trained checkpoint.

        The checkpoint is trained from the config file as it stands, with
        its own seed, so every workload seed scores the same model: hard WTA
        with 12 heads collapses onto a seed-dependent subset of the branches,
        and a checkpoint trained per seed would swing min_fde between about
        6 m and 14 m. The workload seed draws the scenes that are scored.
        The final checkpoint after 10 epochs is used because its second head
        wins about 20% of the scenes; the best-epoch one has a head near the
        1% line, so effective_hypotheses would flip between seeds.
        """
        file_config = harness.load_config(self.config_path)
        harness.train(
            dataclasses.replace(
                file_config, epochs=EVAL_CHECKPOINT_EPOCHS, out_dir=str(work / "checkpoint")
            ),
        )
        generator = reseed(file_config, seed).generator
        splits = {
            "train_path": (work / "train.jsonl", 0, EVAL_TRAIN_SCENES),
            "val_path": (work / "val.jsonl", EVAL_TRAIN_SCENES, EVAL_VAL_SCENES),
        }
        for path, start, count in splits.values():
            datagen.save_dataset(datagen.generate(generator, count, start), path)
        raw = json.loads(Path(self.config_path).read_text())
        raw.pop("generator")
        raw["dataset"] = {key: str(path) for key, (path, _, _) in splits.items()}
        raw["seed"] = seed
        (work / "eval_config.json").write_text(json.dumps(raw, indent=2))

    def setup(self, seed, work):
        config = harness.load_config(work / "eval_config.json")
        val = datagen.load_dataset(config.dataset.val_path)
        return Inputs(
            config=config,
            expected_scenes=len(val),
            checkpoint=work / "checkpoint" / "checkpoint_final.json",
        )

    def call(self, inputs, out):
        out.mkdir(parents=True, exist_ok=True)
        return harness.evaluate_cmd(inputs.config, inputs.checkpoint, out / "metrics.csv")

    def check(self, inputs, result, out, call_s):
        error = report_error(result, inputs.expected_scenes)
        digests = {"metrics.csv": sha256(out / "metrics.csv")}
        return CallOutcome(
            scene_rates=[] if error else [result.n_scenes / call_s],
            epoch_groups=[[call_s]],
            records=[record(self.name, error, digests, result)],
        )


WORKLOADS = {w.name: w for w in (TrainBranch3(), SweepPhase2(), EvalNMS12())}
