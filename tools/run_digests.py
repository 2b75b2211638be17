"""Print sha256 digests of every documented run output, for the determinism contract.

Runs, with one BLAS thread and a fresh temporary output root:

    wtalab train     on each file in configs/, then on short configs derived
                     from configs/phase_transition.json: one per loss variant
                     and schedule kind it accepts, and an awta run with a
                     constant schedule at an integer t0
    wtalab eval      of benchmark_wta12_nms's best checkpoint
    wtalab generate  --config configs/benchmark_awta.json
    wtalab eval      of the same checkpoint on the generated JSONL file, read
                     through a dataset block as both splits
    wtalab sweep     on configs/phase_transition.json: two t0 values, one rho,
                     one seed
    wtalab charts    of benchmark_awta's epochs.csv

and prints one "sha256  path" line per output file, the path relative to the
output root. epochs.csv and the charts' copy of it, charts_data.csv, are
hashed without their wall_s column, the one column that is not byte-stable.
Two checkouts keep the contract when their outputs match line for line. One
command runs both and compares them:

    python tools/run_digests.py --against ../parent

It prints each line that differs ("- " the other checkout, "+ " this one)
and a count of identical digests, and exits 1 on any difference, 0 when
every digest matches. Every wtalab process inherits this one's environment,
so OPENBLAS_CORETYPE set on the command line makes numpy's bundled OpenBLAS
use that CPU kernel in both checkouts (for example SkylakeX, Haswell or
Sandybridge; the CPU must support it):

    OPENBLAS_CORETYPE=Haswell python tools/run_digests.py --against ../parent

The comparison can also be made by hand:

    python tools/run_digests.py > after.txt
    python tools/run_digests.py --repo ../parent > before.txt
    diff before.txt after.txt

Nothing is written inside the checkouts: outputs go to a temporary directory
that is removed afterwards, and bytecode caching is off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_FILES = (
    "config.json",
    "epochs.csv",
    "metrics.csv",
    "checkpoint_final.json",
    "checkpoint_best.json",
)
EVAL_CONFIG = "benchmark_wta12_nms"
GENERATE_CONFIG = "benchmark_awta"
SWEEP_CONFIG = "phase_transition"
SWEEP_ARGS = ("--t0", "40,10", "--rho", "0.78", "--seeds", "4")
CHARTS_CONFIG = "benchmark_awta"
CHART_FILES = (
    "loss_vs_epoch.svg",
    "effective_hypotheses_vs_epoch.svg",
    "schedule_vs_epoch.svg",
    "charts_data.csv",
)
WITHOUT_WALL_S = ("epochs.csv", "charts_data.csv")
PAIRINGS_CONFIG = "phase_transition"
SCHEDULE_KINDS = ("exponential", "constant", "ewta-topn", "dac-depth")
# Loss variant -> (its loss block, the schedule kinds it accepts). wta and
# rwta take no schedule value, so they accept every kind; ewta and dac take
# only their ladder.
PAIRINGS = {
    "wta": ({"variant": "wta"}, SCHEDULE_KINDS),
    "rwta": ({"variant": "rwta"}, SCHEDULE_KINDS),
    "ewta": ({"variant": "ewta"}, ("ewta-topn",)),
    "dac": ({"variant": "dac"}, ("dac-depth",)),
    "awta": ({"variant": "awta"}, ("exponential", "constant")),
}
# A constant schedule's integer t0 reaches config.json and epochs.csv as an
# int.
INTEGER_TEMPERATURES = {
    "awta_constant_int_t0": {"kind": "constant", "t0": 2},
}


def epochs_csv_without_wall_s(path: Path) -> bytes:
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index("wall_s")
    kept = []
    for line in lines:
        fields = line.split(",")
        del fields[column]
        kept.append(",".join(fields))
    return ("\n".join(kept) + "\n").encode()


def digest(path: Path) -> str:
    if path.name in WITHOUT_WALL_S:
        return hashlib.sha256(epochs_csv_without_wall_s(path)).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wtalab(repo: Path, root: Path, *args: str) -> None:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(repo / "src"),
        WTALAB_OUT_ROOT=str(root),
    )
    subprocess.run(
        [sys.executable, "-m", "wtalab", *args],
        cwd=root,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def run_dir(root: Path, config: Path) -> Path:
    """Where a train run of config lands: its own relative out_dir under root.

    Keeping the config's out_dir means config.json holds no temporary path.
    """
    return root / json.loads(config.read_text())["out_dir"]


def dataset_config(eval_config: Path, scenes: Path, path: Path) -> Path:
    """Write eval_config to path with a dataset block in place of its
    generator: both splits read the JSONL file scenes."""
    raw = json.loads(eval_config.read_text())
    del raw["generator"]
    raw["dataset"] = {"train_path": str(scenes), "val_path": str(scenes)}
    path.write_text(json.dumps(raw, indent=2))
    return path


def pairing_configs(repo: Path, root: Path) -> list[Path]:
    """Write the short train configs of PAIRINGS and INTEGER_TEMPERATURES
    under root and return their paths.

    Each is PAIRINGS_CONFIG with 4 heads and 8 epochs. Its schedule keeps
    t0 and rho but not total_steps, so a ladder spans the 8 epochs.
    """
    base = json.loads((repo / "configs" / f"{PAIRINGS_CONFIG}.json").read_text())
    schedule = {k: v for k, v in base["scheduler"].items() if k != "total_steps"}
    runs = [
        (f"{variant}_{kind}", loss, {"kind": kind})
        for variant, (loss, kinds) in PAIRINGS.items()
        for kind in kinds
    ]
    awta = PAIRINGS["awta"][0]
    runs += [(name, awta, block) for name, block in INTEGER_TEMPERATURES.items()]
    folder = root / "pairings"
    folder.mkdir()
    paths = []
    for name, loss, scheduler in runs:
        raw = dict(
            base,
            model=dict(base["model"], n_heads=4),
            loss=loss,
            scheduler=dict(schedule, **scheduler),
            epochs=8,
            out_dir=f"runs/pairings/{name}",
        )
        path = folder / f"{name}.json"
        path.write_text(json.dumps(raw, indent=2))
        paths.append(path)
    return paths


def evaluate(repo: Path, root: Path, config: Path, checkpoint: Path, out: Path) -> Path:
    """Write the eval CSV of checkpoint on config's val split to out."""
    wtalab(
        repo,
        root,
        "eval",
        "--config",
        str(config),
        "--checkpoint",
        str(checkpoint),
        "--out",
        str(out),
    )
    return out


def run_outputs(repo: Path, root: Path) -> list[Path]:
    """Produce every output under root and return the files to hash, in order."""
    outputs: list[Path] = []
    configs = sorted((repo / "configs").glob("*.json"))
    for config in configs + pairing_configs(repo, root):
        wtalab(repo, root, "train", "--config", str(config))
        outputs.extend(run_dir(root, config) / name for name in RUN_FILES)
    eval_config = repo / "configs" / f"{EVAL_CONFIG}.json"
    checkpoint = run_dir(root, eval_config) / "checkpoint_best.json"
    outputs.append(
        evaluate(repo, root, eval_config, checkpoint, root / f"{EVAL_CONFIG}_eval.csv")
    )
    scenes = root / f"{GENERATE_CONFIG}.jsonl"
    wtalab(
        repo,
        root,
        "generate",
        "--config",
        str(repo / "configs" / f"{GENERATE_CONFIG}.json"),
        "--out",
        str(scenes),
    )
    outputs.append(scenes)
    # The one eval that reads a dataset file; both configs have P=20, L=30.
    jsonl_config = dataset_config(eval_config, scenes, root / f"{EVAL_CONFIG}_jsonl.json")
    jsonl_csv = root / f"{EVAL_CONFIG}_eval_{GENERATE_CONFIG}_jsonl.csv"
    outputs.append(evaluate(repo, root, jsonl_config, checkpoint, jsonl_csv))
    sweep_config = repo / "configs" / f"{SWEEP_CONFIG}.json"
    sweep_dir = root / f"{SWEEP_CONFIG}_sweep"
    sweep_args = ("--config", str(sweep_config), *SWEEP_ARGS, "--out-dir", str(sweep_dir))
    wtalab(repo, root, "sweep", *sweep_args)
    outputs.append(sweep_dir / "sweep.csv")
    charts_dir = root / f"{CHARTS_CONFIG}_charts"
    epochs_csv = run_dir(root, repo / "configs" / f"{CHARTS_CONFIG}.json") / "epochs.csv"
    wtalab(repo, root, "charts", "--epochs-csv", str(epochs_csv), "--out-dir", str(charts_dir))
    outputs.extend(charts_dir / name for name in CHART_FILES)
    return outputs


def digest_lines(repo: Path) -> list[str]:
    """Run repo's outputs in a temporary root and return its "sha256  path" lines."""
    with tempfile.TemporaryDirectory(prefix="wtalab-digests-") as tmp:
        root = Path(tmp)
        outputs = run_outputs(repo, root)
        return [f"{digest(path)}  {path.relative_to(root)}" for path in outputs]


def compare(ours: list[str], theirs: list[str]) -> tuple[list[str], int, int]:
    """The lines that differ, the number of identical digests, the number of paths.

    Lines are matched by output path. A path whose digests differ gives "- "
    its line from theirs and "+ " its line from ours; a path that only one
    side produced gives just that side's line.
    """
    mine = {line.split("  ", 1)[1]: line for line in ours}
    other = {line.split("  ", 1)[1]: line for line in theirs}
    paths = dict.fromkeys([*other, *mine])
    differing = []
    for path in paths:
        if mine.get(path) != other.get(path):
            differing += [f"- {other[path]}"] if path in other else []
            differing += [f"+ {mine[path]}"] if path in mine else []
    same = sum(mine.get(path) == other.get(path) for path in paths)
    return differing, same, len(paths)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo",
        type=Path,
        default=Path(__file__).resolve().parents[1],
        help="checkout to run (default: the one holding this script)",
    )
    parser.add_argument(
        "--against",
        type=Path,
        help="another checkout to run too; print the lines that differ and"
        " exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    ours = digest_lines(args.repo.resolve())
    if args.against is None:
        print("\n".join(ours))
        return 0
    differing, same, total = compare(ours, digest_lines(args.against.resolve()))
    for line in differing:
        print(line)
    print(f"{same} of {total} digests identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
