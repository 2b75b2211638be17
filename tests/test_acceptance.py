"""Acceptance gate: end-to-end checks of the package's core claims.

Each check prints exactly one PASS/FAIL line with its measured values and
runtime, then asserts. The eight checks:

  1. assignment-weight kernels: limit behavior and exact values on random
     cost vectors
  2. analytic gradients against central finite differences
  3. annealed training solves a pure quantization task to near
     k-means/Lloyd quality while the hard rule collapses from a clustered
     start
  4. symmetric two-mode task shows an abrupt 1 -> 2 split with a sharp
     error drop
  5. annealed training beats the hard rule on the three-branch benchmark,
     and matches a twice-as-wide model thinned by suppression
  6. relaxed, evolving-top-n and divide-and-conquer baselines finish,
     share the report schema, and the annealed run stays within 5% of the
     best of them on final displacement error
  7. displacement metrics against a plain-Python brute-force evaluator
     plus exact hand-computed examples
  8. byte-identical metrics files for identical (config, seed)

A last test checks that these lines reach pytest's output under its
default capture.
"""

import contextlib
import csv
import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wtalab import (
    ExperimentConfig,
    GeneratorConfig,
    LossConfig,
    ModelConfig,
    NMSConfig,
    OptimizerConfig,
    ScheduleState,
    awta_weights,
    dac_weights,
    evaluate,
    ewta_weights,
    generate_split,
    init_params,
    load_config,
    miss_rate,
    rwta_weights,
    train,
    wta_weights,
)
from wtalab.losses import max_dac_depth, stable_softmax
from wtalab.metrics import (
    REPORT_COLUMNS,
    MetricsReport,
    _scene_metrics,
    write_report_csv,
)

from test_network import gradient_check


_terminal = None
_uncaptured = contextlib.nullcontext


@pytest.fixture(autouse=True)
def _route_announcements(request):
    # Write through the live terminal reporter so the PASS/FAIL lines show
    # up even when pytest captures test stdout. Under the default
    # --capture=fd the reporter's stream is the captured fd 1, so capture is
    # suspended around each line.
    global _terminal, _uncaptured
    plugins = request.config.pluginmanager
    _terminal = plugins.getplugin("terminalreporter")
    capture = plugins.getplugin("capturemanager")
    _uncaptured = capture.global_and_fixture_disabled if capture else contextlib.nullcontext
    yield


def announce(index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{index}/8] {name}: {status} ({detail})"
    if _terminal is None:
        print(line, flush=True)
        return
    with _uncaptured():
        _terminal.ensure_newline()
        if _terminal._tw.width_of_current_line:  # a -q line of progress dots
            _terminal.write("\n")
        _terminal.write_line(line)


# ---------------------------------------------------------------------------
# 1. Assignment-weight kernels.
# ---------------------------------------------------------------------------


def test_weight_kernel_exactness():
    rng = np.random.default_rng(20240816)
    n_vectors = 1000
    started = time.perf_counter()

    max_sum_err = 0.0
    max_floor_err = 0.0
    max_uniform_err = 0.0
    rwta_exact = True
    ewta_matches = True
    dac_matches = True
    ks_seen = set()

    for _ in range(n_vectors):
        k = int(rng.integers(2, 9))
        ks_seen.add(k)
        costs = rng.uniform(0.0, 100.0, size=k)
        eps = 0.05
        temperature = float(10.0 ** rng.uniform(-3.0, 3.0))

        hard = wta_weights(costs)
        relaxed = rwta_weights(costs, epsilon=eps)
        top_n = int(rng.integers(1, k + 1))
        evolving = ewta_weights(costs, top_n=top_n)
        depth = int(rng.integers(0, max_dac_depth(k) + 1))
        blocks = dac_weights(costs, depth=depth)
        soft = awta_weights(costs, temperature=temperature)

        for weights in (hard, relaxed, evolving, blocks, soft):
            max_sum_err = max(max_sum_err, abs(math.fsum(weights) - 1.0))

        floor = awta_weights(costs, temperature=1e-8)
        max_floor_err = max(max_floor_err, float(np.max(np.abs(floor - hard))))
        hot = awta_weights(costs, temperature=1e9)
        max_uniform_err = max(
            max_uniform_err, float(np.max(np.abs(hot - 1.0 / k)))
        )

        allowed = (relaxed == 1.0 - eps) | (relaxed == eps / (k - 1))
        rwta_exact = rwta_exact and bool(np.all(allowed))
        ewta_matches = ewta_matches and np.array_equal(
            ewta_weights(costs, top_n=1), hard
        )
        dac_matches = dac_matches and np.array_equal(
            dac_weights(costs, depth=max_dac_depth(k)), hard
        )

    elapsed = time.perf_counter() - started
    ok = (
        ks_seen == set(range(2, 9))
        and max_sum_err <= 1e-9
        and max_floor_err <= 1e-6
        and max_uniform_err <= 1e-6
        and rwta_exact
        and ewta_matches
        and dac_matches
        and elapsed < 5.0
    )
    announce(
        1,
        "weight-kernel exactness on 1000 random cost vectors",
        ok,
        f"sum err {max_sum_err:.1e} <= 1e-9, floor-vs-hard {max_floor_err:.1e}"
        f" <= 1e-6, hot-vs-uniform {max_uniform_err:.1e} <= 1e-6,"
        f" relaxed exact {rwta_exact}, top1 match {ewta_matches},"
        f" max-depth match {dac_matches}, {elapsed:.2f}s < 5s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Gradient fidelity.
# ---------------------------------------------------------------------------


def test_gradient_fidelity():
    rng = np.random.default_rng(20240819)
    started = time.perf_counter()

    max_err = 0.0
    n_models = 20
    max_params = 0
    for _ in range(n_models):
        input_dim = int(rng.integers(1, 7))
        n_heads = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(4, 13)) for _ in range(depth))
        config = ModelConfig(
            input_dim=input_dim, n_heads=n_heads, horizon=horizon, hidden=hidden
        )
        params = init_params(config, rng)
        assert params.vector.size <= 2000
        max_params = max(max_params, params.vector.size)
        context = rng.normal(size=input_dim)
        target = rng.normal(size=(horizon, 2))
        losses = [LossConfig(variant="awta", temperature=t) for t in (0.1, 1.0, 10.0)]
        losses.append(LossConfig(variant="wta"))
        for loss in losses:
            result = gradient_check(params, context, target, loss)
            max_err = max(max_err, result.max_rel_error)

    elapsed = time.perf_counter() - started
    ok = max_err < 1e-4 and elapsed < 30.0
    announce(
        2,
        "analytic gradients vs central finite differences",
        ok,
        f"20 models <= 2000 params (largest {max_params}), 4 objectives each,"
        f" max rel err {max_err:.2e} < 1e-4, {elapsed:.1f}s < 30s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Quantization oracle.
# ---------------------------------------------------------------------------


RING_GENERATOR = load_config(
    Path(__file__).resolve().parents[1] / "configs" / "quantization_ring.json"
).generator


def lloyd_quantizer(points: np.ndarray, k: int, seed: int) -> float:
    """Independent k-means object: best mean distance-to-nearest-center
    over 10 greedy-seeded restarts of Lloyd iteration."""
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(10):
        centers = [points[rng.integers(len(points))]]
        for _ in range(k - 1):
            d2 = np.min(
                [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
            )
            centers.append(points[rng.choice(len(points), p=d2 / d2.sum())])
        centers = np.array(centers)
        for _ in range(300):
            dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
            assign = dists.argmin(axis=1)
            updated = np.array(
                [
                    points[assign == j].mean(axis=0) if np.any(assign == j) else centers[j]
                    for j in range(k)
                ]
            )
            if np.allclose(updated, centers, atol=1e-12):
                centers = updated
                break
            centers = updated
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        best = min(best, float(dists.min(axis=1).mean()))
    return best


def test_quantization_oracle_and_clustered_collapse():
    started = time.perf_counter()
    n_seeds = 10

    annealed_pass = 0
    worst_ratio = 0.0
    for seed in range(n_seeds):
        config = ExperimentConfig(
            generator=dataclasses.replace(RING_GENERATOR, seed=seed),
            train_count=1000,
            val_count=400,
            model=ModelConfig(n_heads=6, init="glorot"),
            loss=LossConfig(variant="awta"),
            scheduler=ScheduleState(
                kind="exponential", t0=10.0, rho=0.834, total_steps=100
            ),
            optimizer=OptimizerConfig(lr=0.005),
            epochs=100,
            batch_size=64,
            seed=seed,
            out_dir="unused",
        )
        result = train(config, write_outputs=False)
        features, targets = generate_split(config.generator, config.train_count)
        report = evaluate(result.params, features, targets)
        endpoints = targets[:, -1]
        oracle = lloyd_quantizer(endpoints, 6, seed)
        ratio = report.min_ade / oracle
        worst_ratio = max(worst_ratio, ratio)
        if ratio <= 1.05 and report.effective_hypotheses == 6:
            annealed_pass += 1

    collapsed = 0
    for seed in range(n_seeds):
        config = ExperimentConfig(
            generator=dataclasses.replace(RING_GENERATOR, seed=seed),
            train_count=1000,
            val_count=400,
            model=ModelConfig(n_heads=6, init="clustered"),
            loss=LossConfig(variant="wta"),
            scheduler=ScheduleState(kind="constant", t0=1.0, total_steps=100),
            optimizer=OptimizerConfig(lr=0.003),
            epochs=100,
            batch_size=64,
            seed=seed,
            out_dir="unused",
        )
        result = train(config, write_outputs=False)
        if result.records[-1].effective_hypotheses < 6:
            collapsed += 1

    elapsed = time.perf_counter() - started
    ok = annealed_pass >= 9 and collapsed >= 5 and elapsed < 120.0
    announce(
        3,
        "quantization of 6 endpoint modes vs Lloyd oracle",
        ok,
        f"annealed within 5% of oracle with all 6 heads alive in"
        f" {annealed_pass}/10 seeds (need >= 9, worst ratio {worst_ratio:.4f}),"
        f" hard rule from clustered init left dead heads in {collapsed}/10"
        f" seeds (need >= 5), {elapsed:.0f}s < 120s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. Phase transition on a symmetric two-mode task.
# ---------------------------------------------------------------------------


def test_two_mode_phase_transition():
    started = time.perf_counter()
    # Two nearly parallel branches: far common endpoint, small symmetric
    # split, low noise. Chosen so the single-cluster phase is clearly
    # dominated before the split fires.
    along, across = 12.0, 1.0
    speed = math.hypot(along, across)
    half_angle = math.asin(across / speed)
    seed = 4
    config = ExperimentConfig(
        generator=GeneratorConfig(
            probabilities=(0.5, 0.5),
            turns=(half_angle, -half_angle),
            speed=speed,
            noise_std=0.02,
            past_len=1,
            future_len=1,
            seed=seed,
        ),
        train_count=1000,
        val_count=400,
        model=ModelConfig(n_heads=2, hidden=(), init="glorot"),
        loss=LossConfig(variant="awta"),
        scheduler=ScheduleState(kind="exponential", t0=40.0, rho=0.78, total_steps=100),
        optimizer=OptimizerConfig(lr=0.1),
        epochs=60,
        batch_size=64,
        seed=seed,
        out_dir="unused",
    )
    result = train(config, write_outputs=False)
    effs = [r.effective_hypotheses for r in result.records]
    ades = [r.val_min_ade for r in result.records]

    non_decreasing = all(b >= a for a, b in zip(effs, effs[1:]))
    starts_merged = effs[0] == 1
    splits = 2 in effs
    drop = 0.0
    if splits:
        t = effs.index(2)
        if t > 0:
            drop = (ades[t - 1] - ades[t]) / ades[t - 1]
    elapsed = time.perf_counter() - started
    ok = (
        non_decreasing
        and starts_merged
        and splits
        and drop >= 0.20
        and elapsed < 60.0
    )
    announce(
        4,
        "abrupt 1 -> 2 split on the symmetric two-mode task",
        ok,
        f"head-count series non-decreasing {non_decreasing}, starts at 1"
        f" {starts_merged}, reaches 2 {splits}, single-epoch val minADE drop"
        f" {drop:.1%} >= 20%, {elapsed:.0f}s < 60s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5 and 6 share one set of benchmark runs.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    """Five seeds of the three-branch benchmark: the annealed model, the
    hard model at matched and doubled width, and the three baselines."""

    def run(seed, variant, n_heads, scheduler, nms=None):
        config = ExperimentConfig(
            generator=GeneratorConfig(seed=seed),
            train_count=1000,
            val_count=400,
            model=ModelConfig(n_heads=n_heads, hidden=(64, 64), init="glorot"),
            loss=LossConfig(variant=variant),
            scheduler=scheduler,
            optimizer=OptimizerConfig(lr=0.02),
            epochs=100,
            batch_size=64,
            seed=seed,
            out_dir="unused",
            nms=nms,
        )
        return train(config, write_outputs=False).report

    started = time.perf_counter()
    annealing = ScheduleState(kind="exponential", t0=150.0, rho=0.92, total_steps=100)
    constant = ScheduleState(kind="constant", t0=1.0, total_steps=100)
    reports = {}
    for seed in range(5):
        reports["awta", seed] = run(seed, "awta", 6, annealing)
        reports["wta6", seed] = run(seed, "wta", 6, constant)
        reports["wta12nms", seed] = run(
            seed, "wta", 12, constant, nms=NMSConfig(k_out=6, radius=2.0)
        )
        reports["rwta", seed] = run(seed, "rwta", 6, constant)
        reports["ewta", seed] = run(
            seed, "ewta", 6, ScheduleState(kind="ewta-topn", t0=1.0, total_steps=100)
        )
        reports["dac", seed] = run(
            seed, "dac", 6, ScheduleState(kind="dac-depth", t0=1.0, total_steps=100)
        )
    return reports, time.perf_counter() - started


def test_annealed_vs_hard_on_three_branch_benchmark(benchmark_runs):
    reports, elapsed = benchmark_runs
    sweeps = 0
    mr_parity = 0
    for seed in range(5):
        soft = reports["awta", seed]
        hard = reports["wta6", seed]
        wide = reports["wta12nms", seed]
        if (
            soft.min_ade < hard.min_ade
            and soft.min_fde < hard.min_fde
            and soft.miss_rate < hard.miss_rate
        ):
            sweeps += 1
        if soft.miss_rate <= wide.miss_rate:
            mr_parity += 1
    ok = sweeps >= 4 and mr_parity >= 3 and elapsed < 600.0
    announce(
        5,
        "annealed vs hard winner rule, 5-seed benchmark",
        ok,
        f"annealed 6-head strictly beats hard 6-head on minADE+minFDE+miss"
        f" rate in {sweeps}/5 seeds (need >= 4); matches or beats the 12-head"
        f" suppressed model on miss rate in {mr_parity}/5 (need >= 3);"
        f" 30 runs in {elapsed:.0f}s < 600s",
    )
    assert ok


def report_from_cells(cells: list[str]) -> MetricsReport:
    """The report one metrics.csv data row describes, each cell parsed as
    its field's type: ints, floats, and ";"-joined winner counts."""
    n_scenes, min_ade, min_fde, miss, brier, effective, histogram = cells
    return MetricsReport(
        int(n_scenes),
        float(min_ade),
        float(min_fde),
        float(miss),
        float(brier),
        int(effective),
        [int(count) for count in histogram.split(";")],
    )


def test_baseline_parity_and_shared_schema(benchmark_runs, tmp_path):
    reports, _ = benchmark_runs
    started = time.perf_counter()

    all_finite = True
    headers_match = True
    for (label, seed), report in reports.items():
        values = [
            report.min_ade,
            report.min_fde,
            report.miss_rate,
            report.brier_fde,
        ]
        all_finite = all_finite and all(math.isfinite(v) for v in values)
        path = tmp_path / f"{label}-{seed}.csv"
        write_report_csv(report, path)
        # The written file, parsed here with the stdlib reader, must hold
        # the shared header and every value of the report exactly.
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        headers_match = (
            headers_match
            and rows[0] == list(REPORT_COLUMNS)
            and len(rows) == 2
            and report_from_cells(rows[1]) == report
        )

    parity = 0
    worst = 0.0
    for seed in range(5):
        best_baseline = min(
            reports["rwta", seed].min_fde,
            reports["ewta", seed].min_fde,
            reports["dac", seed].min_fde,
        )
        ratio = reports["awta", seed].min_fde / best_baseline
        worst = max(worst, ratio)
        if ratio <= 1.05:
            parity += 1

    elapsed = time.perf_counter() - started
    ok = all_finite and headers_match and parity >= 3
    announce(
        6,
        "relaxed/evolving/divide-and-conquer baselines",
        ok,
        f"all 30 runs finished with finite metrics {all_finite}, one shared"
        f" report schema {headers_match}, annealed final displacement within"
        f" 5% of the best baseline in {parity}/5 seeds (need >= 3, worst"
        f" ratio {worst:.3f}), checks {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Metrics oracle.
# ---------------------------------------------------------------------------


def one_scene_metrics(trajectories, scores, target):
    """(minADE, minFDE, winner, Brier-FDE) from the batch scorer that
    evaluate runs, on a batch holding one scene."""
    ade, fde, winner, brier = _scene_metrics(trajectories[None], target[None], scores[None])
    return float(ade[0]), float(fde[0]), int(winner[0]), float(brier[0])


def test_metrics_against_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)

    max_err = 0.0
    final_errors = []
    for _ in range(50):
        k = int(rng.integers(1, 9))
        horizon = int(rng.integers(1, 13))
        traj = rng.normal(size=(k, horizon, 2)) * 10.0
        target = rng.normal(size=(horizon, 2)) * 10.0
        scores = stable_softmax(rng.normal(size=k))

        best_ade = math.inf
        best_fde = math.inf
        winner = -1
        for head in range(k):
            total = 0.0
            for step in range(horizon):
                total += math.hypot(
                    traj[head, step, 0] - target[step, 0],
                    traj[head, step, 1] - target[step, 1],
                )
            best_ade = min(best_ade, total / horizon)
            final = math.hypot(
                traj[head, -1, 0] - target[-1, 0],
                traj[head, -1, 1] - target[-1, 1],
            )
            if final < best_fde:
                best_fde = final
                winner = head
        brier = best_fde + (1.0 - float(scores[winner])) ** 2

        ade, value, got_winner, got_brier = one_scene_metrics(traj, scores, target)
        max_err = max(max_err, abs(ade - best_ade))
        max_err = max(max_err, abs(value - best_fde))
        assert got_winner == winner
        max_err = max(max_err, abs(got_brier - brier))
        final_errors.append(best_fde)

    loop_rate = sum(1 for e in final_errors if e > 2.0) / len(final_errors)
    max_err = max(max_err, abs(miss_rate(final_errors) - loop_rate))

    offset_target = np.zeros((4, 2))
    offset_traj = np.full((1, 4, 2), [3.0, 4.0])
    hand_ade = one_scene_metrics(offset_traj, np.ones(1), offset_target)[0] == 5.0

    brier_traj = np.array([[[1.0, 0.0]], [[9.0, 0.0]]])
    hand_brier = (
        one_scene_metrics(brier_traj, np.array([0.5, 0.5]), np.zeros((1, 2)))[3] == 1.25
    )

    elapsed = time.perf_counter() - started
    ok = max_err <= 1e-9 and hand_ade and hand_brier
    announce(
        7,
        "displacement metrics vs brute-force evaluator",
        ok,
        f"50 random instances, max abs err {max_err:.1e} <= 1e-9; constant"
        f" (3,4) offset gives exactly 5.0 {hand_ade}; unit final miss at"
        f" score 0.5 gives exactly 1.25 {hand_brier}, {elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Byte-level determinism.
# ---------------------------------------------------------------------------


def test_metrics_csv_byte_determinism(tmp_path):
    started = time.perf_counter()

    def run(out_dir):
        config = ExperimentConfig(
            generator=GeneratorConfig(seed=0, past_len=6, future_len=8),
            train_count=120,
            val_count=60,
            model=ModelConfig(n_heads=4, hidden=(16,), init="glorot"),
            loss=LossConfig(variant="awta"),
            scheduler=ScheduleState(kind="exponential", t0=10.0, rho=0.8, total_steps=3),
            optimizer=OptimizerConfig(lr=0.01),
            epochs=3,
            batch_size=32,
            seed=0,
            out_dir=str(out_dir),
        )
        train(config)
        return (out_dir / "metrics.csv").read_bytes()

    first = run(tmp_path / "first")
    second = run(tmp_path / "second")
    elapsed = time.perf_counter() - started
    ok = first == second
    announce(
        8,
        "byte-identical metrics files for identical (config, seed)",
        ok,
        f"two runs, {len(first)} bytes each, identical {ok}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# The verdict lines reach the log.
# ---------------------------------------------------------------------------


def test_verdict_line_printed_under_default_capture():
    # A fresh pytest with its default --capture=fd must still print the
    # check's [1/8] line on its own stdout.
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
    )
    check = "tests/test_acceptance.py::test_weight_kernel_exactness"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", check],
        cwd=repo,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert any(line.startswith("[1/8] weight-kernel exactness") for line in lines)
