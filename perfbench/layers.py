"""Per-layer metrics of one traced unit: a set-up followed by one timed call.

Metrics describe the timed call, except `harness.load_config.s`, which only
runs in the set-up. A metric whose functions were not found in the package
is left out (reported as absent), never guessed. The traced functions are
not recursive, so a function's time is the sum of its spans' durations.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracing import LAYERS, Spans, Tracer

# Functions whose inclusive time and call count are reported as
# `<name>.s` and `<name>.calls`.
TIMED = (
    "datagen.generate",
    "datagen.load_dataset",
    "datagen.featurize",
    "network.forward_batch",
    "network.backward_batch",
    "network.adam_step",
    "network.save_checkpoint",
    "network.load_checkpoint",
    "losses.batch_objective",
    "metrics.evaluate",
    "postselect.nms_select",
)

# The config, CSV and report writes of a run or sweep.
OUTPUT_WRITES = (
    "harness.save_config",
    "harness.write_epoch_csv",
    "harness.write_sweep_csv",
    "metrics.write_report_csv",
)


def span_totals(spans: Spans) -> tuple[dict, dict, Counter]:
    """Per function name: summed duration, summed self time, call count."""
    time_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, duration, own in zip(spans.names, spans.durations(), spans.self_times()):
        time_s[name] += duration
        self_s[name] += own
        calls[name] += 1
    return time_s, self_s, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, setup: Spans, call: Spans) -> dict[str, float]:
    """Every per-layer metric whose functions exist, for one traced unit.

    The tracer's counts and scene ids must cover the call only.
    """
    available = tracer.installed
    counts, scene_ids = tracer.counts, tracer.scene_ids
    time_s, self_s, calls = span_totals(call)
    out: dict[str, float] = {}

    def put(metric: str, value, *needs: str) -> None:
        if all(n in available and n not in tracer.broken_hooks for n in needs):
            out[metric] = float(value)

    for name in TIMED:
        put(f"{name}.s", time_s[name], name)
        put(f"{name}.calls", calls[name], name)
    for layer in LAYERS:
        prefix = layer + "."
        if any(name.startswith(prefix) for name in available):
            out[f"{layer}.self_s"] = sum(
                (v for n, v in self_s.items() if n.startswith(prefix)), 0.0
            )

    for name in ("datagen.generate", "datagen.load_dataset"):
        put(f"{name}.scenes", counts[f"{name}.scenes"], name)
    featurize = "datagen.featurize"
    put(f"{featurize}.distinct_ratio", _ratio(len(scene_ids), calls[featurize]), featurize)
    built = counts["datagen.generate.scenes"] + counts["datagen.load_dataset.scenes"]
    put(
        "datagen.scenes_used_ratio",
        _ratio(len(scene_ids), built),
        featurize,
        "datagen.generate",
        "datagen.load_dataset",
    )

    forward, backward = "network.forward_batch", "network.backward_batch"
    put(f"{forward}.rows", counts[f"{forward}.rows"], forward)
    gflop = counts["network.gemm_flop"] / 1e9
    put("network.gemm_gflop", gflop, forward, backward)
    put(
        "network.gemm_gflop_per_s",
        _ratio(gflop, time_s[forward] + time_s[backward]),
        forward,
        backward,
    )
    put("network.save_checkpoint.bytes", counts["network.save_checkpoint.bytes"], "network.save_checkpoint")

    put("metrics.evaluate.self_s", self_s["metrics.evaluate"], "metrics.evaluate")
    put("metrics.evaluate.scenes", counts["metrics.evaluate.scenes"], "metrics.evaluate")

    setup_time, _, _ = span_totals(setup)
    put("harness.load_config.s", setup_time["harness.load_config"], "harness.load_config")
    put("harness.train.self_s", self_s["harness.train"], "harness.train")
    present_writes = [n for n in OUTPUT_WRITES if n in available]
    if present_writes:
        out["harness.write_outputs.s"] = sum(time_s[n] for n in present_writes)
    put("harness.sweep.self_s", self_s["harness.sweep"], "harness.sweep")
    put("harness.sweep.cells", counts["harness.sweep.cells"], "harness.sweep")
    put("harness.sweep.failed_cells", counts["harness.sweep.failed_cells"], "harness.sweep")
    return out


def self_time_gap(spans: Spans) -> float:
    """Root durations minus the summed self time of every span, in seconds.

    Zero up to rounding when the spans nest properly: every instant inside
    a root span is then charged to exactly one span.
    """
    durations = spans.durations()
    return sum(durations[i] for i in spans.roots()) - sum(spans.self_times())
