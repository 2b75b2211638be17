"""Print the median and interquartile range, in microseconds, of each piece
of a training step, timed in process with one BLAS thread, and the median
minor page faults of one call of it:

    python tools/step_costs.py [CONFIG] [--repeats N] [--repo CHECKOUT]

N training steps on the first batch of CONFIG's train split (default
configs/phase_transition.json), each timing forward_batch, batch_objective,
backward_batch and adam_step, then N of the per-epoch validation evaluate.
The loss is CONFIG's at epoch 0 and Adam's step count advances as in
training. --repo times the wtalab sources of another checkout. The minflt
column is the median change in resource.getrusage's ru_minflt over one call:
pages the piece touched that were not mapped, such as memory that the
allocator had handed back to the system after an earlier call.
"""

import argparse
import dataclasses
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    loss = schedulers.control(config.loss, config.scheduler, 0, model.n_heads)[1]
    batch, batch_targets = features[: config.batch_size], targets[: config.batch_size]
    adam, grads = network.init_adam(params), network.GradientBuffer.zeros_like(params)
    optimizer = dataclasses.asdict(config.optimizer)
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
        preds, logits, activations = timed("forward_batch", network.forward_batch, params, batch)
        objective = timed(
            "batch_objective", losses.batch_objective, preds, logits, batch_targets, loss
        )
        timed(
            "backward_batch",
            network.backward_batch,
            params,
            activations,
            objective.d_outputs,
            out=grads,
        )
        timed("adam_step", network.adam_step, params, grads, adam, **optimizer)
    for _ in range(args.repeats):
        timed("evaluate", metrics.evaluate, params, val_features, val_targets)
    print(f"{'piece':<16}{'median_us':>11}{'iqr_us':>9}{'minflt':>8}{'calls':>7}")
    for name in pieces:
        q1, median, q3 = statistics.quantiles([s * 1e6 for s in seconds[name]], n=4)
        minflt = statistics.median_low(faults[name])
        print(f"{name:<16}{median:>11.2f}{q3 - q1:>9.2f}{minflt:>8}{len(seconds[name]):>7}")


if __name__ == "__main__":
    main()
