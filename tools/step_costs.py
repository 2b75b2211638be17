"""Print the median and interquartile range, in microseconds, of each piece
of a training step, timed in process with one BLAS thread:

    python tools/step_costs.py [CONFIG] [--repeats N] [--repo CHECKOUT]

N training steps on the first batch of CONFIG's train split (default
configs/phase_transition.json), each timing forward_batch, batch_objective,
backward_batch and adam_step, then N of the per-epoch validation evaluate.
The loss is CONFIG's at epoch 0 and Adam's step count advances as in
training. --repo times the wtalab sources of another checkout.
"""

import argparse
import dataclasses
import os
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
    times = {name: [] for name in ("forward_batch", "batch_objective", "backward_batch", "adam_step")}
    for _ in range(args.repeats):
        stamps = [time.perf_counter()]
        preds, logits, activations = network.forward_batch(params, batch)
        stamps.append(time.perf_counter())
        objective = losses.batch_objective(preds, logits, batch_targets, loss)
        stamps.append(time.perf_counter())
        network.backward_batch(params, activations, objective.d_outputs, out=grads)
        stamps.append(time.perf_counter())
        network.adam_step(params, grads, adam, **optimizer)
        stamps.append(time.perf_counter())
        for seconds, start, stop in zip(times.values(), stamps, stamps[1:]):
            seconds.append(stop - start)
    times["evaluate"] = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        metrics.evaluate(params, val_features, val_targets)
        times["evaluate"].append(time.perf_counter() - start)
    print(f"{'piece':<16}{'median_us':>11}{'iqr_us':>9}{'calls':>7}")
    for name, seconds in times.items():
        q1, median, q3 = statistics.quantiles([s * 1e6 for s in seconds], n=4)
        print(f"{name:<16}{median:>11.2f}{q3 - q1:>9.2f}{len(seconds):>7}")


if __name__ == "__main__":
    main()
