"""wtalab benchmark: time the real program on one workload and check its outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-branch3 --seed 0 --seconds 30 --trace 0

Each run starts fresh worker interpreters one after another (never two at
once), each with BLAS pinned to one thread. A worker imports wtalab, loads
the config, builds its inputs and then times calls until its share of the
run is spent. With `--trace 0` the run reports the end-to-end metrics named
in BENCHMARK.json; with `--trace 1` workers alternate untraced and traced
units and the run reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A results
file with the environment is written under .perfbench_results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_ROOT = ".perfbench_work"
RESULTS_ROOT = ".perfbench_results"
REQUIRED = ("BENCHMARK.json", "src/wtalab/__init__.py")

# Workers per run: each one is a fresh interpreter, so this is also the
# number of set-up samples behind setup_s.
WORKER_SHARE = 6
MIN_WORKERS = 3
# A run must end within 180 s: no worker starts after LAST_START_S and
# every worker is stopped at RUN_LIMIT_S.
LAST_START_S = 100
RUN_LIMIT_S = 170

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]."""
    return (
        0 < len(name) <= 64
        and name[0].isascii()
        and name[0].isalnum()
        and set(name) <= NAME_CHARS
    )


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def mark_mismatches(records: list[dict]) -> None:
    """Fail every record whose output digests differ from the first ok
    repeat of the same operation label in this run."""
    reference: dict[str, dict] = {}
    for rec in records:
        if not rec["ok"]:
            continue
        first = reference.setdefault(rec["label"], rec["digests"])
        differing = sorted(k for k in first if rec["digests"].get(k) != first[k])
        if differing:
            rec["ok"] = False
            rec["error"] = f"output differs from the first repeat: {', '.join(differing)}"


def end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts.

    Every timing is first rescaled to the nominal host by the factor of the
    reference kernels run around it (see calibrate.py), then summarized by
    a median over the whole run:
    - setup_s: median over workers of set-up time x the factor of the
      reference run just after it;
    - scenes_per_s: median over operations (a train run, a sweep cell or
      an eval call) of scene passes per rescaled second;
    - epoch percentiles: the percentile within each training run of its
      rescaled epoch times, median over runs. Where an epoch is a whole
      eval call, the percentiles are taken over all rescaled calls.
    Memory is the median over workers; the quality guards are means over
    ok operations.
    """
    values, samples = {}, {}

    def put(name, value, n):
        values[name], samples[name] = value, n

    put("setup_s", statistics.median(w["setup_s"] * w["setup_factor"] for w in workers),
        len(workers))
    put("peak_rss_mb", statistics.median(w["peak_rss_mb"] for w in workers), len(workers))
    calls = [c for w in workers for c in w["calls"]]
    put("host_factor", statistics.median(c["host_factor"] for c in calls), len(calls))
    rates = [rate / c["host_factor"] for c in calls for rate in c["scene_rates"]]
    if rates:
        put("scenes_per_s", statistics.median(rates), len(rates))
    groups = [[t * c["host_factor"] for t in g] for c in calls for g in c["epoch_groups"]]
    if groups and all(len(g) == 1 for g in groups):
        groups = [[g[0] for g in groups]]
    if groups:
        n_epochs = sum(len(g) for g in groups)
        for name, q in (("epoch_s_p50", 50), ("epoch_s_p90", 90)):
            put(name, statistics.median(percentile(g, q) for g in groups), n_epochs)
    ok_records = [r for c in calls for r in c["records"] if r["ok"]]
    if ok_records:
        put("min_fde", statistics.fmean(r["min_fde"] for r in ok_records), len(ok_records))
        put(
            "effective_hypotheses",
            statistics.fmean(r["effective_hypotheses"] for r in ok_records),
            len(ok_records),
        )
    return values, samples


def per_layer(calls: list[dict]) -> tuple[dict, dict]:
    """Median of each per-layer metric over traced units, plus the tracing
    overhead: fastest traced call over fastest untraced call of the run."""
    traced = [c for c in calls if c.get("traced")]
    plain = [c["call_s"] for c in calls if not c.get("traced")]
    values, samples = {}, {}
    names = sorted({name for c in traced for name in c["layers"]})
    for name in names:
        series = [c["layers"][name] for c in traced if name in c["layers"]]
        values[name], samples[name] = statistics.median(series), len(series)
    if traced and plain:
        values["trace.overhead_ratio"] = min(c["call_s"] for c in traced) / min(plain) - 1.0
        samples["trace.overhead_ratio"] = len(traced) + len(plain)
    return values, samples


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("WTALAB_OUT_ROOT", None)
    return env


def start_worker(job: dict, root: Path, env: dict, timeout: float) -> tuple[dict | None, str]:
    """Run one worker to completion; returns (result or None, diagnostic)."""
    job = dict(job, spawned=time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker {job['index']} timed out after {timeout:.0f} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"worker {job['index']} exited {done.returncode}: {done.stderr[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"worker {job['index']} printed no result: {lines[-1][:200]}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(args, root: Path, work: Path, started: float) -> tuple[list[dict], list[str]]:
    """Prepare the workload, then run workers one at a time for --seconds."""
    env = child_env(root)
    job = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "work": str(work), "index": 0}

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    prepared, why = start_worker(dict(job, prepare=True, budget_s=0), root, env, remaining())
    if prepared is None:
        raise RuntimeError(f"preparing {args.workload} failed: {why}")
    workers: list[dict] = []
    problems: list[str] = []
    measure_start = time.monotonic()
    share = args.seconds / WORKER_SHARE
    while True:
        elapsed = time.monotonic() - measure_start
        if len(workers) >= MIN_WORKERS and elapsed >= args.seconds:
            break
        if time.monotonic() - started > LAST_START_S or len(problems) > MIN_WORKERS:
            problems.append("stopped starting workers early")
            break
        budget = max(min(share, args.seconds - elapsed), 0.0)
        index = len(workers) + len(problems)
        result, why = start_worker(dict(job, index=index, budget_s=budget), root, env, remaining())
        if result is None:
            problems.append(why)
        else:
            workers.append(result)
    return workers, problems


def environment(args, root: Path, workers: list[dict], wall_s: float) -> tuple[dict, list[str]]:
    """Where the numbers came from, plus flags for a run that is not pinned."""
    envs = [w["env"] for w in workers]
    threads = sorted({e["blas_threads"] for e in envs}, key=str)
    flags = [] if threads == [1] else [f"BLAS threads not pinned to 1: {threads}"]
    first = envs[0] if envs else {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": workers[0]["python"] if workers else platform.python_version(),
        "numpy": first.get("numpy"),
        "blas_name": first.get("blas_name"),
        "blas_version": first.get("blas_version"),
        "blas_threads": threads,
        "blas_threads_pinned": not flags,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(root),
        "workers": len(workers),
        "wall_s": wall_s,
    }, flags


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from a wtalab checkout; missing {missing}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    invalid = [n for n in names + [m["name"] for m in declared] if not valid_name(n)]
    if invalid:
        print(f"perfbench: invalid names in BENCHMARK.json: {invalid}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = root / WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = root / RESULTS_ROOT
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        workers, problems = measure(args, root, work, started)
        spans = sorted(work.glob("spans-*.json"))
        if spans:
            shutil.copyfile(spans[-1], results / f"{args.workload}-seed{args.seed}.spans.json")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [c for w in workers for c in w["calls"]]
    records = [r for c in calls for r in c["records"]]
    mark_mismatches(records)
    if args.trace:
        values, samples = per_layer(calls)
        for c in calls:
            if c.get("traced") and abs(c["self_time_gap_s"]) > 1e-6 * max(c["root_s"], 1.0):
                problems.append(f"self times miss the traced call by {c['self_time_gap_s']} s")
    else:
        values, samples = end_to_end(workers) if workers else ({}, {})
    # A worker that died took an unknown number of operations with it;
    # each counts as one failed operation.
    attempted = len(records) + len(problems)
    failed = sum(1 for r in records if not r["ok"]) + len(problems)
    env, flags = environment(args, root, workers, time.monotonic() - started)

    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in declared
        if spec["name"] in values
    }
    absent = [spec["name"] for spec in declared if spec["name"] not in values]
    errors = sorted({r["error"].strip().splitlines()[-1] for r in records if not r["ok"]})
    summary = {
        "correct": failed == 0 and bool(workers),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "environment": env,
                "flags": flags,
                "error_rate": error_rate(attempted, failed),
                "errors": errors,
                "problems": problems,
                "samples": samples,
                "absent": absent,
                "all_values": values,
                "workers": [
                    {
                        "setup_s": w["setup_s"],
                        "setup_factor": w["setup_factor"],
                        "calls": [
                            {k: c[k] for k in ("call_s", "host_factor", "scene_rates",
                                               "epoch_groups")}
                            for c in w["calls"]
                        ],
                    }
                    for w in workers
                ],
                "result": summary,
            },
            indent=2,
        )
    )

    units = {spec["name"]: spec["unit"] for spec in declared}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(workers)} workers, {len(calls)} calls, {env['wall_s']:.1f} s")
    for name, value in values.items():
        print(f"  {name:34s} {value:>14.6g} {units.get(name, ''):16s} n={samples[name]}")
    print(f"  {'error_rate':34s} {error_rate(attempted, failed):>14.6g} {'ratio':16s} "
          f"({failed} of {attempted} operations failed)")
    for line in flags + problems + errors + [f"absent: {name}" for name in absent]:
        print(f"  ! {line}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
