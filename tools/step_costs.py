"""Print the median and interquartile range, in microseconds, of each piece
of a training step, timed in process with one BLAS thread, and the median
minor page faults of one call of it:

    python tools/step_costs.py [CONFIG] [--repeats N] [--repo CHECKOUT]

N training steps on the first batch of CONFIG's train split (default
configs/phase_transition.json), each timing forward_batch, batch_objective,
backward_batch and adam_step, then N of the per-epoch validation evaluate.
The loss is CONFIG's variant with its schedule's knob at epoch 0, and
Adam's step count advances as in training; batch_objective takes the output
rows that forward_batch leaves as the last entry of its activations.
--repo times the wtalab sources of another checkout; it calls
batch_objective(outputs, targets, variant, knob), so the checkout must be
one whose batch_objective takes output rows. Time an older tree, one that
takes (preds, logits, targets, ...), with that tree's own copy of this
tool. The minflt
column is the median change in resource.getrusage's ru_minflt over one call:
pages the piece touched that were not mapped, such as memory that the
allocator had handed back to the system after an earlier call.

The first line names the BLAS the timings come from: numpy's BLAS name and
version, the CPU kernel OpenBLAS picked at run time (its get_corename
function, looked up in the OpenBLAS bundled with numpy) and its thread
count, "unknown" where numpy or the library does not say:

    blas scipy-openblas 0.3.31.188.0 core SkylakeX threads 1
"""

import argparse
import ctypes
import dataclasses
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Symbol name prefixes and suffixes of the OpenBLAS builds numpy bundles.
OPENBLAS_AFFIXES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def openblas_core_and_threads() -> tuple[str, int | str]:
    """The run-time CPU kernel and thread count of the OpenBLAS bundled with
    numpy, found as wtalab.cli finds its thread-count functions."""
    import numpy as np

    numpy_dir = Path(np.__file__).parent
    candidates = sorted(numpy_dir.parent.glob("numpy.libs/*blas*")) + sorted(
        numpy_dir.glob(".libs/*blas*")
    )
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in OPENBLAS_AFFIXES:
            get_core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_core is not None and get_threads is not None:
                get_core.restype, get_core.argtypes = ctypes.c_char_p, []
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                return get_core().decode(), get_threads()
    return "unknown", "unknown"


def blas_line() -> str:
    """'blas NAME VERSION core CORE threads N' for numpy's BLAS."""
    import numpy as np

    name = version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", name), blas.get("version", version)
    except (TypeError, KeyError, AttributeError):  # numpy without dict-mode config
        pass
    core, threads = openblas_core_and_threads()
    return f"blas {name} {version} core {core} threads {threads}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", nargs="?", default=ROOT / "configs" / "phase_transition.json")
    parser.add_argument("--repeats", type=int, default=1000)
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy loads
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    from wtalab import harness, losses, metrics, network, schedulers

    config = harness.load_config(args.config)
    features, targets, val_features, val_targets = harness.build_splits(config)
    model = dataclasses.replace(config.model, input_dim=features.shape[1], horizon=targets.shape[1])
    params = network.init_params(model, seed=config.seed)
    variant = config.loss.variant
    knob = None
    if variant in schedulers.CONTROLS:
        knob = schedulers.value(config.scheduler, 0, model.n_heads)
    batch, batch_targets = features[: config.batch_size], targets[: config.batch_size]
    adam, grads = network.init_adam(params), network.GradientBuffer.zeros_like(params)
    pieces = ("forward_batch", "batch_objective", "backward_batch", "adam_step", "evaluate")
    seconds = {name: [] for name in pieces}
    faults = {name: [] for name in pieces}

    def timed(name, fn, *fn_args, **fn_kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = fn(*fn_args, **fn_kwargs)
        seconds[name].append(time.perf_counter() - start)
        faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return result

    for _ in range(args.repeats):
        activations = timed("forward_batch", network.forward_batch, params, batch)[2]
        objective = timed(
            "batch_objective", losses.batch_objective, activations[-1], batch_targets, variant, knob
        )
        timed(
            "backward_batch",
            network.backward_batch,
            params,
            activations,
            objective.d_outputs,
            out=grads,
        )
        timed("adam_step", network.adam_step, params, grads, adam, lr=config.optimizer.lr)
    for _ in range(args.repeats):
        timed("evaluate", metrics.evaluate, params, val_features, val_targets)
    print(blas_line())
    print(f"{'piece':<16}{'median_us':>11}{'iqr_us':>9}{'minflt':>8}{'calls':>7}")
    for name in pieces:
        q1, median, q3 = statistics.quantiles([s * 1e6 for s in seconds[name]], n=4)
        minflt = statistics.median_low(faults[name])
        print(f"{name:<16}{median:>11.2f}{q3 - q1:>9.2f}{minflt:>8}{len(seconds[name]):>7}")


if __name__ == "__main__":
    main()
