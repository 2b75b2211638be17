"""Tests for the displacement metrics and the dataset-level report."""

import dataclasses
import math
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
from wtalab.metrics import (
    REPORT_COLUMNS,
    _scene_metrics,
    read_report_csv,
    write_report_csv,
)
from wtalab.network import forward_batch
from wtalab.postselect import NMSConfig, truncate_top_k


def scene_metrics(trajectories, target, scores=None):
    """The batch scorer evaluate runs, on a batch holding one scene.

    Scores default to the softmax of zero logits. Returns (minADE, minFDE,
    minFDE winner, Brier-FDE).
    """
    trajectories = np.asarray(trajectories, dtype=float)
    if scores is None:
        scores = stable_softmax(np.zeros(trajectories.shape[0]))
    offsets = trajectories - np.asarray(target, dtype=float)
    ade, fde, winner, brier = _scene_metrics(
        offsets[None], np.asarray(scores, dtype=float)[None]
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

    def test_custom_threshold(self):
        assert miss_rate([0.5, 1.5], threshold=1.0) == 0.5

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


def top_k_one_scene(trajectories, logits, k):
    """truncate_top_k on a batch holding one scene."""
    kept_traj, kept_logits = truncate_top_k(
        np.asarray(trajectories, dtype=float)[None], np.asarray(logits, dtype=float)[None], k
    )
    return kept_traj[0], kept_logits[0]


class TestTruncateTopK:
    def test_keeps_highest_scores_in_order(self):
        traj = np.arange(8.0).reshape(4, 1, 2)
        logits = np.array([0.0, 3.0, 1.0, 2.0])
        kept, _ = top_k_one_scene(traj, logits, 2)
        assert np.array_equal(kept, traj[[1, 3]])

    def test_scores_renormalize_like_subset_softmax(self):
        logits = np.array([0.0, 3.0, 1.0, 2.0])
        _, kept_logits = top_k_one_scene(np.zeros((4, 1, 2)), logits, 3)
        assert kept_logits.tolist() == [3.0, 2.0, 1.0]
        subset = np.exp([3.0, 2.0, 1.0])
        assert np.allclose(stable_softmax(kept_logits), subset / subset.sum(), atol=1e-12)

    def test_tied_scores_keep_index_order(self):
        traj = np.arange(6.0).reshape(3, 1, 2)
        kept, _ = top_k_one_scene(traj, np.zeros(3), 2)
        assert np.array_equal(kept, traj[[0, 1]])

    def test_bad_k_rejected(self):
        for k in (0, 4):
            with pytest.raises(InputError):
                top_k_one_scene(np.zeros((3, 1, 2)), np.zeros(3), k)


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

    def test_top_k_truncation_applies(self):
        params, (features, targets) = self.make_model_and_split(10)
        report = evaluate(params, features, targets, top_k=2)
        assert len(report.winner_histogram) == 2
        full = evaluate(params, features, targets)
        assert report.min_ade >= full.min_ade - 1e-12

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


class TestSceneMetricsOracle:
    """_scene_metrics and evaluate against the np.linalg.norm formulas, bit for bit."""

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
        scores = stable_softmax(rng.normal(size=(batch, n_heads)), axis=1)
        offsets = trajectories - targets[:, None, :, :]
        got = _scene_metrics(offsets, scores)
        expected = reference_scene_metrics(offsets, scores)
        for name, g, e in zip(("min_ade", "min_fde", "winners", "brier"), got, expected):
            assert g.dtype == e.dtype, name
            assert np.array_equal(g, e), f"{name} differs from the reference"

    def test_tied_and_mirrored_endpoints(self):
        targets = np.zeros((1, 2, 2))
        trajectories = np.array(
            [[[[1.0, 1.0], [3.0, -4.0]], [[0.5, 0.5], [-4.0, 3.0]], [[0.0, 0.0], [4.0, 3.0]]]]
        )
        scores = np.full((1, 3), 1.0 / 3.0)
        offsets = trajectories - targets[:, None, :, :]
        got = _scene_metrics(offsets, scores)
        expected = reference_scene_metrics(offsets, scores)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
        assert got[2].tolist() == [0]

    @pytest.mark.parametrize("post", ["none", "top_k", "nms"])
    def test_evaluate_report_equal(self, post, monkeypatch):
        cfg = GeneratorConfig(seed=3, past_len=5, future_len=8)
        features, targets = generate_split(cfg, 120)
        params = init_params(
            ModelConfig(input_dim=10, n_heads=6, horizon=8, hidden=(16,)), seed=4
        )
        kwargs = {
            "none": {},
            "top_k": {"top_k": 3},
            "nms": {"nms": NMSConfig(k_out=3, radius=0.5)},
        }[post]
        report = evaluate(params, features, targets, **kwargs)
        monkeypatch.setattr(metrics, "_scene_metrics", reference_scene_metrics)
        assert evaluate(params, features, targets, **kwargs) == report


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

    def test_round_trip_is_exact(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "metrics.csv"
        write_report_csv(report, path)
        loaded = read_report_csv(path)
        assert loaded == report

    def test_same_report_writes_identical_bytes(self, tmp_path):
        report = self.sample_report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, a)
        write_report_csv(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_checked_on_read(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(InputError):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("abc", "expected 7 fields, got 1"),
            ("100,0.1,0.2,0.0,0.3,2", "expected 7 fields, got 6"),
            ("100,0.1,0.2,0.0,0.3,2,60;40,7", "expected 7 fields, got 8"),
            ("abc,0.1,0.2,0.0,0.3,2,60;40", "invalid literal for int"),
            ("100,0.1,x,0.0,0.3,2,60;40", "could not convert string to float"),
            ("100,0.1,0.2,0.0,0.3,2.5,60;40", "invalid literal for int"),
            ("100,0.1,0.2,0.0,0.3,2,60;x", "invalid literal for int"),
            ("100,0.1,0.2,0.0,0.3,2,", "invalid literal for int"),
            ("100,0.1,0.2,0.0,0.3,2,60;;40", "invalid literal for int"),
            ("100,0.1,0.2,0.0,0.3,2,60;41", "summing to n_scenes 100"),
            ("100,0.1,0.2,0.0,0.3,2,110;-10", "nonnegative counts"),
            ("4,nan,inf,-5.0,1e999,2,3;1", "min_ade must be finite, got nan"),
            ("100,nan,0.2,0.0,0.3,2,60;40", "min_ade must be finite, got nan"),
            ("100,-inf,0.2,0.0,0.3,2,60;40", "min_ade must be finite, got -inf"),
            ("100,0.1,inf,0.0,0.3,2,60;40", "min_fde must be finite, got inf"),
            ("100,0.1,0.2,0.0,1e999,2,60;40", "brier_fde must be finite, got inf"),
            ("100,0.1,0.2,-5.0,0.3,2,60;40", r"miss_rate must be in \[0, 1\], got -5.0"),
            ("100,0.1,0.2,1.5,0.3,2,60;40", r"miss_rate must be in \[0, 1\], got 1.5"),
            ("100,0.1,0.2,nan,0.3,2,60;40", r"miss_rate must be in \[0, 1\], got nan"),
            ("100,0.1,0.2,0.0,0.3,3,60;40", r"effective_hypotheses must be in \[0, 2\]"),
            ("100,0.1,0.2,0.0,0.3,-1,60;40", r"effective_hypotheses must be in \[0, 2\]"),
        ],
        ids=[
            "abc-row",
            "short-row",
            "long-row",
            "abc-count",
            "bad-float",
            "float-count",
            "bad-histogram",
            "empty-histogram",
            "empty-bin",
            "histogram-sum",
            "negative-bin",
            "all-bad-values",
            "nan-min-ade",
            "inf-min-ade",
            "inf-min-fde",
            "inf-brier-fde",
            "negative-miss-rate",
            "miss-rate-above-one",
            "nan-miss-rate",
            "more-effective-than-heads",
            "negative-effective",
        ],
    )
    def test_malformed_row_raises_input_error_naming_path(self, tmp_path, row, problem):
        path = tmp_path / "metrics.csv"
        path.write_text(",".join(REPORT_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(InputError, match=problem) as excinfo:
            read_report_csv(path)
        assert str(path) in str(excinfo.value)
