"""Tests for the displacement metrics and the dataset-level report."""

import csv
import dataclasses
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wtalab import (
    ConfigurationError,
    InputError,
    MetricsReport,
    ModelConfig,
    GeneratorConfig,
    effective_hypotheses,
    evaluate,
    generate_split,
    init_params,
    load_config,
    miss_rate,
)
from wtalab.losses import stable_softmax
from wtalab import metrics
from wtalab.metrics import REPORT_COLUMNS, _scene_metrics, write_report_csv
from wtalab.network import ModelParams, forward_batch
from wtalab.postselect import NMSConfig, nms_select


def scene_metrics(trajectories, target, scores=None):
    """The batch scorer evaluate runs, on a batch holding one scene.

    Scores default to the softmax of zero logits. Returns (minADE, minFDE,
    minFDE winner, Brier-FDE).
    """
    trajectories = np.asarray(trajectories, dtype=float)
    if scores is None:
        scores = stable_softmax(np.zeros(trajectories.shape[0]))
    ade, fde, winner, brier = _scene_metrics(
        trajectories[None],
        np.asarray(target, dtype=float)[None],
        np.asarray(scores, dtype=float)[None],
    )
    return float(ade[0]), float(fde[0]), int(winner[0]), float(brier[0])


def brute_force_metrics(trajectories: np.ndarray, target: np.ndarray):
    """Plain-Python loops as an independent oracle."""
    target = np.asarray(target, dtype=float)
    n_heads, horizon, _ = trajectories.shape
    best_ade = math.inf
    best_fde = math.inf
    fde_winner = -1
    for k in range(n_heads):
        total = 0.0
        for step in range(horizon):
            dx = trajectories[k, step, 0] - target[step, 0]
            dy = trajectories[k, step, 1] - target[step, 1]
            total += math.hypot(dx, dy)
        best_ade = min(best_ade, total / horizon)
        dx = trajectories[k, -1, 0] - target[-1, 0]
        dy = trajectories[k, -1, 1] - target[-1, 1]
        final = math.hypot(dx, dy)
        if final < best_fde:
            best_fde = final
            fde_winner = k
    return best_ade, best_fde, fde_winner


class TestHandExamples:
    def test_constant_offset_three_four(self):
        # One hypothesis displaced by (3, 4) at every step: each per-step
        # distance is 5, so the average and the final error are both 5.
        target = np.zeros((4, 2))
        traj = np.full((1, 4, 2), [3.0, 4.0])
        ade, value, winner, _ = scene_metrics(traj, target)
        assert ade == 5.0
        assert value == 5.0 and winner == 0

    def test_brier_penalizes_low_confidence_winner(self):
        # Winning endpoint misses by 1 with score 0.5: 1 + (1-0.5)^2 = 1.25.
        target = np.zeros((1, 2))
        traj = np.array([[[1.0, 0.0]], [[9.0, 0.0]]])
        assert scene_metrics(traj, target, scores=[0.5, 0.5])[3] == 1.25

    def test_best_head_wins_each_metric_independently(self):
        # Head 0 has the better average, head 1 the better endpoint.
        target = np.zeros((2, 2))
        traj = np.array(
            [
                [[0.0, 0.0], [2.0, 0.0]],
                [[5.0, 0.0], [1.0, 0.0]],
            ]
        )
        ade, value, winner, _ = scene_metrics(traj, target)
        assert ade == 1.0
        assert value == 1.0 and winner == 1

    def test_fde_tie_resolves_to_lowest_index(self):
        target = np.zeros((1, 2))
        traj = np.array([[[1.0, 0.0]], [[-1.0, 0.0]]])
        assert scene_metrics(traj, target)[2] == 0


class TestAgainstBruteForce:
    def test_random_sets_match_loop_oracle(self):
        rng = np.random.default_rng(20240818)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            horizon = int(rng.integers(1, 10))
            traj = rng.normal(size=(k, horizon, 2)) * 10.0
            target = rng.normal(size=(horizon, 2)) * 10.0
            scores = stable_softmax(rng.normal(size=k))
            ade_oracle, fde_oracle, winner_oracle = brute_force_metrics(traj, target)
            ade, value, winner, brier = scene_metrics(traj, target, scores=scores)
            assert abs(ade - ade_oracle) <= 1e-9
            assert abs(value - fde_oracle) <= 1e-9
            assert winner == winner_oracle
            expected_brier = fde_oracle + (1.0 - scores[winner_oracle]) ** 2
            assert abs(brier - expected_brier) <= 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        traj = rng.normal(size=(3, 5, 2))
        target = rng.normal(size=(5, 2))
        shift = np.array([12.5, -3.25])
        a = scene_metrics(traj, target)[0]
        b = scene_metrics(traj + shift, target + shift)[0]
        assert abs(a - b) <= 1e-9

    def test_adding_heads_never_hurts(self):
        rng = np.random.default_rng(8)
        target = rng.normal(size=(4, 2))
        traj = rng.normal(size=(6, 4, 2))
        values = [
            scene_metrics(traj[: k + 1], target)[0] for k in range(6)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestMissRate:
    def test_strictly_greater_than_threshold(self):
        # 2.0 is exactly at the threshold and does not count as a miss.
        assert miss_rate([1.0, 2.0, 2.0001, 5.0]) == 0.5

    @pytest.mark.parametrize(
        "error, expected",
        [
            (metrics.MISS_THRESHOLD, 0.0),
            (np.nextafter(metrics.MISS_THRESHOLD, math.inf), 1.0),
            (np.nextafter(metrics.MISS_THRESHOLD, 0.0), 0.0),
        ],
        ids=["at", "one-ulp-above", "one-ulp-below"],
    )
    def test_fixed_threshold_boundary(self, error, expected):
        assert metrics.MISS_THRESHOLD == 2.0
        assert miss_rate([error]) == expected

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            miss_rate([])


class TestEffectiveHypotheses:
    def test_threshold_is_inclusive(self):
        # Head 1 wins exactly 1% of scenes and still counts.
        assert effective_hypotheses([99, 1, 0]) == 2

    def test_just_below_threshold_excluded(self):
        assert effective_hypotheses([999, 1]) == 1

    def test_uniform_histogram_counts_all(self):
        assert effective_hypotheses([10, 10, 10, 10]) == 4

    @pytest.mark.parametrize("histogram", [[], [0, 0], [-1, 2]])
    def test_bad_histograms_rejected(self, histogram):
        with pytest.raises(InputError):
            effective_hypotheses(histogram)


class TestShapes:
    def test_target_shape_mismatch_rejected(self):
        # evaluate checks the targets before it subtracts them, where numpy
        # would broadcast one target row over the whole batch.
        params = init_params(
            ModelConfig(input_dim=8, n_heads=3, horizon=2, hidden=()), seed=0
        )
        features = np.zeros((4, 8))
        for targets in (np.zeros((1, 2, 2)), np.zeros((5, 2, 2)), np.zeros((4, 2, 3))):
            with pytest.raises(InputError, match="targets must be"):
                evaluate(params, features, targets)


RING_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "quantization_ring.json"


class TestEvaluate:
    def make_model_and_split(self, n_scenes=40):
        cfg = GeneratorConfig(seed=5, past_len=4, future_len=6)
        split = generate_split(cfg, n_scenes)
        model_cfg = ModelConfig(input_dim=8, n_heads=4, horizon=6, hidden=(16,))
        params = init_params(model_cfg, seed=2)
        return params, split

    def test_report_matches_per_scene_loop(self):
        params, (features, targets) = self.make_model_and_split()
        report = evaluate(params, features, targets)
        ades, fdes, briers, winners = [], [], [], []
        for context, target in zip(features, targets):
            trajectories, logits, _ = forward_batch(params, context[None])
            ade, fde, winner = brute_force_metrics(trajectories[0], target)
            ades.append(ade)
            fdes.append(fde)
            winners.append(winner)
            briers.append(fde + (1.0 - stable_softmax(logits[0])[winner]) ** 2)
        assert report.n_scenes == len(features)
        assert report.min_ade == pytest.approx(np.mean(ades), abs=1e-12)
        assert report.min_fde == pytest.approx(np.mean(fdes), abs=1e-12)
        assert report.brier_fde == pytest.approx(np.mean(briers), abs=1e-12)
        assert report.miss_rate == miss_rate(fdes)
        assert report.winner_histogram == np.bincount(winners, minlength=4).tolist()
        assert report.effective_hypotheses == effective_hypotheses(
            report.winner_histogram
        )

    def test_duplicating_the_dataset_is_exact(self):
        # fsum aggregation: averaging over scenes twice must reproduce the
        # single-pass result bit for bit.
        params, (features, targets) = self.make_model_and_split(30)
        once = evaluate(params, features, targets)
        twice = evaluate(
            params, np.concatenate([features, features]), np.concatenate([targets, targets])
        )
        assert twice.min_ade == once.min_ade
        assert twice.min_fde == once.min_fde
        assert twice.brier_fde == once.brier_fde
        assert twice.miss_rate == once.miss_rate

    def test_empty_dataset_rejected(self):
        params, _ = self.make_model_and_split(1)
        with pytest.raises(InputError):
            evaluate(params, np.zeros((0, 8)), np.zeros((0, 6, 2)))

    def test_horizon_mismatch_rejected(self):
        params, _ = self.make_model_and_split(1)
        cfg = GeneratorConfig(seed=5, past_len=4, future_len=9)
        with pytest.raises(ConfigurationError):
            evaluate(params, *generate_split(cfg, 3))

    def test_quantization_task_evaluates(self):
        cfg = dataclasses.replace(load_config(RING_CONFIG).generator, seed=0)
        params = init_params(
            ModelConfig(input_dim=2, n_heads=6, horizon=1, hidden=()), seed=0
        )
        report = evaluate(params, *generate_split(cfg, 20))
        assert report.n_scenes == 20
        assert sum(report.winner_histogram) == 20


def reference_scene_metrics(offsets, scores):
    """_scene_metrics as first written, with np.linalg.norm: a test oracle."""
    batch = offsets.shape[0]
    dists = np.linalg.norm(offsets, axis=3)
    fde = dists[:, :, -1]
    winners = np.argmin(fde, axis=1)
    rows = np.arange(batch)
    scene_min_fde = fde[rows, winners]
    scene_brier = scene_min_fde + (1.0 - scores[rows, winners]) ** 2
    return np.min(np.mean(dists, axis=2), axis=1), scene_min_fde, winners, scene_brier


def reference_evaluate(params, features, targets, nms=None):
    """evaluate as first written, a test oracle: post-selection gathers the
    kept (B, H, L, 2) trajectories, and reference_scene_metrics scores all
    of their offsets at once."""
    trajectories, logits, _ = forward_batch(params, features)
    if nms is not None:
        trajectories, logits = nms_select(trajectories, logits, nms)
    scores = stable_softmax(logits)
    offsets = trajectories - targets[:, None, :, :]
    scene_min_ade, scene_min_fde, winners, scene_brier = reference_scene_metrics(offsets, scores)
    n_scenes = len(winners)
    histogram = np.bincount(winners, minlength=offsets.shape[1]).tolist()
    return MetricsReport(
        n_scenes=n_scenes,
        min_ade=math.fsum(scene_min_ade.tolist()) / n_scenes,
        min_fde=math.fsum(scene_min_fde.tolist()) / n_scenes,
        miss_rate=miss_rate(scene_min_fde),
        brier_fde=math.fsum(scene_brier.tolist()) / n_scenes,
        effective_hypotheses=effective_hypotheses(histogram),
        winner_histogram=histogram,
    )


def assert_same_report_bytes(got: MetricsReport, expected: MetricsReport) -> None:
    """Every field of the two reports has the same type and the same bits."""
    for field in dataclasses.fields(MetricsReport):
        g, e = getattr(got, field.name), getattr(expected, field.name)
        assert type(g) is type(e), field.name
        if isinstance(e, float):
            assert struct.pack("<d", g) == struct.pack("<d", e), field.name
        else:
            assert repr(g) == repr(e), field.name


# Post-selection of the oracle comparisons, by the number of heads. With
# radius 0 nothing is suppressed, so NMS keeps the highest scores in score
# order; nms_keep_most drops only one head per scene.
POSTS = ("none", "nms", "nms_radius_0", "nms_keep_most")


def post_kwargs(post: str, n_heads: int) -> dict:
    half = max(1, n_heads // 2)
    return {
        "none": {},
        "nms": {"nms": NMSConfig(k_out=half, radius=0.5)},
        "nms_radius_0": {"nms": NMSConfig(k_out=half, radius=0.0)},
        "nms_keep_most": {"nms": NMSConfig(k_out=max(1, n_heads - 1), radius=0.5)},
    }[post]


class TestSceneMetricsOracle:
    """_scene_metrics and evaluate against the np.linalg.norm formulas, bit
    for bit; _scene_metrics must leave its inputs unchanged."""

    def assert_matches_reference(self, trajectories, targets, scores, keep=None):
        before = trajectories.tobytes(), targets.tobytes()
        got = _scene_metrics(trajectories, targets, scores, keep)
        assert (trajectories.tobytes(), targets.tobytes()) == before
        if keep is not None:
            trajectories = np.take_along_axis(trajectories, keep[:, :, None, None], axis=1)
        offsets = trajectories - targets[:, None, :, :]
        expected = reference_scene_metrics(offsets, scores)
        for name, g, e in zip(("min_ade", "min_fde", "winners", "brier"), got, expected):
            assert g.dtype == e.dtype, name
            assert g.shape == e.shape, name
            assert g.tobytes() == e.tobytes(), f"{name} differs from the reference"

    @pytest.mark.parametrize(
        "shape",
        [(400, 6, 30), (400, 2, 1), (9, 1, 7), (6, 4, 1), (1, 1, 1), (50, 12, 5)],
        ids=lambda s: "B{}-K{}-L{}".format(*s),
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batches(self, shape, seed):
        batch, n_heads, horizon = shape
        rng = np.random.default_rng([seed, batch, n_heads, horizon])
        scale = rng.uniform(0.1, 30.0)
        trajectories = rng.normal(size=(batch, n_heads, horizon, 2)) * scale
        targets = rng.normal(size=(batch, horizon, 2)) * scale
        scores = stable_softmax(rng.normal(size=(batch, n_heads)))
        self.assert_matches_reference(trajectories, targets, scores)
        # A kept subset, in a per-scene order, is scored as its gather.
        kept = int(rng.integers(1, n_heads + 1))
        keep = rng.permuted(np.tile(np.arange(n_heads), (batch, 1)), axis=1)[:, :kept]
        self.assert_matches_reference(trajectories, targets, scores[:, :kept], keep)

    def test_tied_and_mirrored_endpoints(self):
        targets = np.zeros((1, 2, 2))
        trajectories = np.array(
            [[[[1.0, 1.0], [3.0, -4.0]], [[0.5, 0.5], [-4.0, 3.0]], [[0.0, 0.0], [4.0, 3.0]]]]
        )
        scores = np.full((1, 3), 1.0 / 3.0)
        self.assert_matches_reference(trajectories, targets, scores)
        assert _scene_metrics(trajectories, targets, scores)[2].tolist() == [0]

    @pytest.mark.parametrize("post", POSTS)
    def test_evaluate_report_equal(self, post):
        cfg = GeneratorConfig(seed=3, past_len=5, future_len=8)
        features, targets = generate_split(cfg, 120)
        params = init_params(
            ModelConfig(input_dim=10, n_heads=6, horizon=8, hidden=(16,)), seed=4
        )
        kwargs = post_kwargs(post, 6)
        assert_same_report_bytes(
            evaluate(params, features, targets, **kwargs),
            reference_evaluate(params, features, targets, **kwargs),
        )

    # L straddles the 8-element block of numpy's pairwise sum.
    @pytest.mark.parametrize("post", POSTS)
    @pytest.mark.parametrize("n_heads", [1, 2, 6, 12])
    @pytest.mark.parametrize("horizon", [1, 7, 8, 9, 30])
    def test_report_bytes_equal_across_shapes(self, horizon, n_heads, post):
        rng = np.random.default_rng([horizon, n_heads])
        features = rng.normal(size=(64, 6)) * 4.0
        targets = rng.normal(size=(64, horizon, 2))
        params = init_params(
            ModelConfig(input_dim=6, n_heads=n_heads, horizon=horizon, hidden=(8,)), seed=1
        )
        kwargs = post_kwargs(post, n_heads)
        assert_same_report_bytes(
            evaluate(params, features, targets, **kwargs),
            reference_evaluate(params, features, targets, **kwargs),
        )

    @pytest.mark.parametrize("post", POSTS)
    def test_tied_and_mirrored_heads_report_equal(self, post):
        # One-hot contexts and no hidden layer make each output one weight
        # plus its bias, rounded once, so head 1 (the negation of head 0),
        # head 2 (head 0 with x and y swapped) and head 3 (a copy of head 0)
        # lie at exactly head 0's distance from the zero targets at every
        # step. The logits tie too: head 0 wins every scene.
        n_heads, horizon, inputs = 4, 9, 5
        rng = np.random.default_rng(17)
        base_w = rng.normal(size=(horizon, 2, inputs))
        base_b = rng.normal(size=(horizon, 2))
        heads_w = [base_w, -base_w, base_w[:, ::-1], base_w]
        heads_b = [base_b, -base_b, base_b[:, ::-1], base_b]
        weight = np.concatenate(
            [w.reshape(-1, inputs) for w in heads_w] + [np.ones((n_heads, inputs))]
        )
        bias = np.concatenate([b.ravel() for b in heads_b] + [np.zeros(n_heads)])
        params = ModelParams(weights=[weight], biases=[bias], n_heads=n_heads, horizon=horizon)
        features = np.eye(inputs)[np.arange(40) % inputs]
        targets = np.zeros((40, horizon, 2))
        kwargs = post_kwargs(post, n_heads)
        report = evaluate(params, features, targets, **kwargs)
        assert_same_report_bytes(report, reference_evaluate(params, features, targets, **kwargs))
        assert report.winner_histogram[0] == 40


class TestScratchBound:
    """Past the forward pass, evaluate holds the forward output and the
    scratch of one hypothesis at a time: its tracemalloc peak exceeds
    forward_batch's by a fixed multiple of one hypothesis's (B, L, 2)
    float64 bytes, whatever the number of heads."""

    BATCH, HORIZON = 400, 30

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "n_heads, nms", [(6, None), (12, NMSConfig(k_out=6, radius=2.0))], ids=["6", "12-nms6"]
    )
    def test_peak_over_forward(self, n_heads, nms):
        rng = np.random.default_rng(n_heads)
        features = rng.normal(size=(self.BATCH, 10))
        targets = rng.normal(size=(self.BATCH, self.HORIZON, 2))
        params = init_params(
            ModelConfig(input_dim=10, n_heads=n_heads, horizon=self.HORIZON, hidden=(8,)),
            seed=0,
        )
        forward_peak = self.peak(lambda: forward_batch(params, features))
        evaluate_peak = self.peak(lambda: evaluate(params, features, targets, nms=nms))
        hypothesis = self.BATCH * self.HORIZON * 2 * 8
        assert evaluate_peak - forward_peak <= 3 * hypothesis


class TestReportCsv:
    def sample_report(self) -> MetricsReport:
        return MetricsReport(
            n_scenes=100,
            min_ade=0.123456789012345,
            min_fde=1.0 / 3.0,
            miss_rate=0.25,
            brier_fde=0.7071067811865476,
            effective_hypotheses=5,
            winner_histogram=[40, 30, 20, 5, 5, 0],
        )

    def test_written_text_holds_each_exact_value(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "metrics.csv"
        write_report_csv(report, path)
        header, row = path.read_text().splitlines()
        assert header == ",".join(REPORT_COLUMNS)
        *cells, histogram = row.split(",")
        for cell, value in zip(cells, dataclasses.astuple(report)):
            assert type(value)(cell) == value
        assert histogram == "40;30;20;5;5;0"

    def test_same_report_writes_identical_bytes(self, tmp_path):
        report = self.sample_report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, a)
        write_report_csv(report, b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module", params=["none", "nms", "nms_radius_0"])
def written_report(request, tmp_path_factory):
    """An evaluate report, with and without post-selection, and the path of
    its metrics.csv."""
    cfg = GeneratorConfig(seed=11, past_len=4, future_len=6)
    features, targets = generate_split(cfg, 80)
    params = init_params(
        ModelConfig(input_dim=8, n_heads=5, horizon=6, hidden=(8,)), seed=6
    )
    kwargs = {
        "none": {},
        "nms": {"nms": NMSConfig(k_out=3, radius=0.5)},
        "nms_radius_0": {"nms": NMSConfig(k_out=2, radius=0.0)},
    }[request.param]
    report = evaluate(params, features, targets, **kwargs)
    path = tmp_path_factory.mktemp(request.param) / "metrics.csv"
    write_report_csv(report, path)
    return report, path


class TestWrittenReportInvariants:
    """What evaluate writes to metrics.csv is in range: the checks a reader
    of the file would need hold at the source."""

    def test_histogram_counts_every_scene_once(self, written_report):
        report, _ = written_report
        assert all(count >= 0 for count in report.winner_histogram)
        assert sum(report.winner_histogram) == report.n_scenes

    def test_distances_are_finite(self, written_report):
        report, _ = written_report
        for value in (report.min_ade, report.min_fde, report.brier_fde):
            assert math.isfinite(value) and value >= 0.0
        # Brier-FDE adds a nonnegative confidence penalty to each minFDE.
        assert report.brier_fde >= report.min_fde

    def test_miss_rate_is_a_fraction_of_the_scenes(self, written_report):
        report, _ = written_report
        assert 0.0 <= report.miss_rate <= 1.0
        misses = report.miss_rate * report.n_scenes
        assert misses == round(misses)

    def test_effective_hypotheses_within_the_evaluated_heads(self, written_report):
        report, _ = written_report
        assert 1 <= report.effective_hypotheses <= len(report.winner_histogram)
        assert report.effective_hypotheses == effective_hypotheses(report.winner_histogram)

    def test_file_cells_are_the_exact_values(self, written_report):
        report, path = written_report
        with open(path, newline="") as handle:
            header, row = list(csv.reader(handle))
        assert tuple(header) == REPORT_COLUMNS
        *cells, histogram = row
        for cell, value in zip(cells, dataclasses.astuple(report)):
            assert type(value)(cell) == value
        assert [int(count) for count in histogram.split(";")] == report.winner_histogram
