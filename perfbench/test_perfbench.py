"""Unit tests for the benchmark's own logic: span arithmetic, names, flop
counts, failure counting and patching. They run in a second or two.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.append(str(HERE.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wtalab import harness, metrics, network  # noqa: E402


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_times_of_hand_built_nested_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    spans = tracing.Spans(
        names=["a", "b", "c", "d"],
        starts=[0.0, 1.0, 5.0, 6.0],
        ends=[10.0, 4.0, 9.0, 8.0],
        parents=[-1, 0, 0, 2],
    )
    assert spans.self_times() == [3.0, 3.0, 2.0, 2.0]
    assert sum(spans.self_times()) == 10.0
    assert layers.self_time_gap(spans) == 0.0


def test_tracer_records_parents_and_self_time():
    tracer = tracing.Tracer(clock=ticking_clock())
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    spans = tracer.snapshot()
    assert spans.names == ["m.outer", "m.inner", "m.inner"]
    assert spans.parents == [-1, 0, 0]
    # Clock reads: outer 0, inner 1-2, inner 3-4, outer 5.
    assert spans.durations() == [5.0, 1.0, 1.0]
    assert spans.self_times() == [3.0, 1.0, 1.0]


def test_metric_name_rule():
    for good in ("setup_s", "network.gemm_gflop_per_s", "9lives", "a-b.c_d", "x" * 64):
        assert run.valid_name(good), good
    for bad in ("", "_lead", ".lead", "-lead", "has space", "slash/no", "x" * 65, "é"):
        assert not run.valid_name(bad), bad


def test_benchmark_file_follows_the_rules():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(run.valid_name(n) for n in names)
    unit_chars = run.NAME_CHARS | set("/%")
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert 0 < len(metric["unit"]) <= 16 and set(metric["unit"]) <= unit_chars
        assert metric["better"] in ("lower", "higher")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_gemm_flop_hand_count_for_the_branch3_network():
    dims = [40, 64, 64, 366]
    forward_per_row = 2 * (40 * 64 + 64 * 64 + 64 * 366)
    assert forward_per_row == 60160
    # Weight gradients of all three layers, plus the gradient passed down
    # through the two upper layers.
    backward_per_row = forward_per_row + 2 * (64 * 64 + 64 * 366)
    assert backward_per_row == 115200
    assert tracing.gemm_flop(dims, 7) == 7 * 60160
    assert tracing.gemm_flop(dims, 7, backward=True) == 7 * 115200


def test_gemm_gflop_metric_counts_the_real_kernels():
    config = network.ModelConfig(input_dim=40, n_heads=6, horizon=30, hidden=(64, 64))
    params = network.init_params(config, 0)
    assert tracing._layer_dims(params) == [40, 64, 64, 366]
    rows = 5
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        trajectories, logits, activations = harness.forward_batch(params, np.zeros((rows, 40)))
        harness.backward_batch(params, activations, np.ones_like(trajectories), np.ones_like(logits))
    call = tracer.snapshot()
    values = layers.layer_metrics(tracer, tracing.Spans([], [], [], []), call)
    assert values["network.gemm_gflop"] == rows * (60160 + 115200) / 1e9
    assert values["network.forward_batch.rows"] == rows
    assert values["network.forward_batch.calls"] == 1


class FlakyWorkload:
    """Second call raises; third call writes different output bytes."""

    name = "flaky"

    def __init__(self):
        self.calls = 0

    def labels(self, inputs):
        return ["op"]

    def call(self, inputs, out):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("injected failure")
        return self.calls

    def check(self, inputs, result, out, call_s):
        digests = {"metrics.csv": "same" if result != 3 else "different"}
        report = types.SimpleNamespace(min_fde=1.0, effective_hypotheses=2)
        return workloads.CallOutcome(
            scene_rates=[10 / call_s],
            epoch_groups=[[call_s]],
            records=[workloads.record("op", "", digests, report)],
        )


def test_error_rate_counts_injected_failures(tmp_path):
    workload = FlakyWorkload()
    calls = [worker.run_call(workload, None, tmp_path) for _ in range(4)]
    records = [r for c in calls for r in c["records"]]
    assert [r["ok"] for r in records] == [True, False, True, True]
    assert "injected failure" in records[1]["error"]
    run.mark_mismatches(records)
    assert [r["ok"] for r in records] == [True, False, False, True]
    failed = sum(1 for r in records if not r["ok"])
    assert run.error_rate(len(records), failed) == 0.5
    # A call that raised contributes no throughput sample.
    for call in calls:
        call["host_factor"] = 1.0
    worker_result = {"setup_s": 0.1, "setup_factor": 1.0, "peak_rss_mb": 1.0, "calls": calls}
    values, samples = run.end_to_end([worker_result])
    assert samples["scenes_per_s"] == 3


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        (harness, "forward_batch"): harness.forward_batch,
        (metrics, "forward_batch"): metrics.forward_batch,
        (harness, "featurize"): harness.featurize,
        (metrics, "featurize"): metrics.featurize,
        (network, "forward_batch"): network.forward_batch,
    }
    assert harness.forward_batch is metrics.forward_batch
    with tracing.traced(tracing.Tracer()) as tracer:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
        assert "network.forward_batch" in tracer.installed
        assert "datagen.featurize" in tracer.installed
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_missing_public_name_is_reported_absent(monkeypatch):
    package = types.ModuleType("fakelab")
    datagen = types.ModuleType("fakelab.datagen")

    def featurize(scene):
        return scene

    featurize.__module__ = "fakelab.datagen"
    datagen.featurize = featurize  # no generate, no load_dataset
    for name, module in (("fakelab", package), ("fakelab.datagen", datagen)):
        monkeypatch.setitem(sys.modules, name, module)
    tracer = tracing.Tracer()
    with tracing.traced(tracer, package="fakelab"):
        datagen.featurize(types.SimpleNamespace(scene_id="s0"))
    values = layers.layer_metrics(tracer, tracing.Spans([], [], [], []), tracer.snapshot())
    assert values["datagen.featurize.calls"] == 1
    assert values["datagen.featurize.distinct_ratio"] == 1.0
    assert "datagen.generate.s" not in values
    assert "datagen.scenes_used_ratio" not in values
    assert "network.forward_batch.s" not in values
    assert datagen.featurize is featurize


def test_percentile_interpolates():
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile(list(map(float, range(11))), 90) == pytest.approx(9.0)
    assert run.percentile([0.0, 10.0], 25) == 2.5


def test_timings_are_rescaled_by_the_host_factor():
    # The reference kernels ran at nominal speed around the first and third
    # calls and at half speed around the second.
    worker = {"setup_s": 0.3, "setup_factor": 0.5, "peak_rss_mb": 1.0, "calls": [
        {"call_s": 4.0, "host_factor": 1.0, "scene_rates": [10.0],
         "epoch_groups": [[1.0] * 9 + [2.0]], "records": []},
        {"call_s": 8.0, "host_factor": 0.5, "scene_rates": [5.0],
         "epoch_groups": [[2.0] * 9 + [4.0]], "records": []},
        {"call_s": 5.0, "host_factor": 1.0, "scene_rates": [8.0],
         "epoch_groups": [[1.5] * 10], "records": []},
    ]}
    values, samples = run.end_to_end([worker])
    assert values["setup_s"] == 0.15
    assert values["scenes_per_s"] == 10.0
    assert samples["scenes_per_s"] == 3
    # Per-run percentiles 1.0, 1.0, 1.5 and 1.1, 1.1, 1.5; median of each.
    assert values["epoch_s_p50"] == 1.0
    assert values["epoch_s_p90"] == pytest.approx(1.1)
    assert samples["epoch_s_p50"] == 30


def test_single_pass_epochs_are_pooled_across_calls():
    calls = [
        {"call_s": t, "host_factor": 1.0, "scene_rates": [100 / t], "epoch_groups": [[t]],
         "records": []}
        for t in (0.9, 0.5, 0.6, 0.7, 0.8, 3.0, 4.0)
    ]
    values, _ = run.end_to_end(
        [{"setup_s": 0.1, "setup_factor": 1.0, "peak_rss_mb": 1.0, "calls": calls}]
    )
    assert values["epoch_s_p50"] == 0.8
    assert values["epoch_s_p90"] == pytest.approx(3.4)
    assert values["scenes_per_s"] == 125.0


def test_host_factor_uses_the_named_kernels():
    nominal = calibrate.NOMINAL_S
    assert calibrate.host_factor(("python",), 2 * nominal["python"]) == 0.5
    both = ("python", "small_numpy")
    assert calibrate.host_factor(both, nominal["python"] + nominal["small_numpy"]) == 1.0
    assert calibrate.reference(("batch_numpy",)) > 0
    assert calibrate.reference(("batch_numpy",), min_s=0.02) > 0
    for workload in workloads.WORKLOADS.values():
        assert set(workload.reference) <= set(calibrate.KERNELS)
