"""`wtalab train` writes the same bytes whatever BLAS thread count the
environment asks for.

OpenBLAS splits a matrix product across threads in blocks whose sums round
differently, so with two threads the 366-wide output layer of a
`benchmark_awta`-shaped model computes other bits than with one. The
command line runs BLAS on one thread, so a run's files do not depend on
OPENBLAS_NUM_THREADS.
"""

import json
import os
import subprocess
import sys

import pytest

from wtalab import cli
from wtalab.errors import InputError

# benchmark_awta's model and scenes (6 heads of 30 steps: 6 * 61 = 366
# outputs, hidden 64 x 64), on fewer scenes and epochs.
CONFIG = {
    "model": {"n_heads": 6, "hidden": [64, 64], "init": "glorot"},
    "loss": {"variant": "awta"},
    "scheduler": {"kind": "exponential", "t0": 150.0, "rho": 0.92, "total_steps": 8},
    "optimizer": {"lr": 0.02},
    "generator": {
        "probabilities": [0.4, 0.4, 0.2],
        "turns": [1.5707963267948966, 0.0, -1.5707963267948966],
        "speed": 1.0,
        "noise_std": 0.1,
        "past_len": 20,
        "future_len": 30,
    },
    "train_count": 256,
    "val_count": 400,
    "epochs": 2,
    "batch_size": 64,
    "seed": 0,
}

OUTPUTS = ("checkpoint_final.json", "checkpoint_best.json", "metrics.csv")


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_outputs(tmp_path, threads: str) -> dict[str, bytes]:
    """The run files of `wtalab train` in a fresh process with
    OPENBLAS_NUM_THREADS=threads."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out_dir = tmp_path / f"threads-{threads}"
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    command = [sys.executable, "-m", "wtalab", "train", "--config", str(config)]
    subprocess.run(
        [*command, "--out-dir", str(out_dir)], env=env, capture_output=True, check=True
    )
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    if usable_cpus() < 2:
        pytest.skip(
            "this host gives the process one CPU, where OpenBLAS runs one thread"
            " whatever OPENBLAS_NUM_THREADS asks, so the two runs cannot differ"
        )
    one, two = train_outputs(tmp_path, "1"), train_outputs(tmp_path, "2")
    for name in OUTPUTS:
        assert one[name] == two[name], f"{name} differs between 1 and 2 BLAS threads"


def test_main_runs_one_thread_and_restores_the_callers_count(monkeypatch):
    functions = cli._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy does not bundle OpenBLAS here, so main leaves BLAS as it is")
    get, set_ = functions
    seen = []

    def command(args):
        seen.append(get())
        raise InputError("stop")

    monkeypatch.setitem(cli.COMMANDS, "charts", command)
    before = get()
    set_(2)
    try:
        caller = get()  # 1 where the process may use only one CPU
        assert cli.main(["charts", "--epochs-csv", "x", "--out-dir", "y"]) == 1
        assert seen == [1]
        assert get() == caller
    finally:
        set_(before)
