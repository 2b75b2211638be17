"""Tests for endpoint non-maximum suppression and top-k truncation."""

import math

import numpy as np
import pytest

from wtalab import (
    ConfigurationError,
    InputError,
    ModelConfig,
    NMSConfig,
    GeneratorConfig,
    evaluate,
    generate_split,
    init_params,
    nms_select,
)
from wtalab.losses import stable_softmax
from wtalab.network import forward_batch
from wtalab.postselect import truncate_top_k


def reference_nms(
    trajectories: np.ndarray, logits: np.ndarray, config: NMSConfig
) -> list[int]:
    """Greedy suppression over one scene's (K, L, 2) trajectories and (K,)
    logits with plain lists, as an oracle.

    Returns the kept head indices in the order they were kept.
    """
    endpoints = trajectories[:, -1, :]
    order = np.argsort(-stable_softmax(logits), kind="stable")
    accepted: list[int] = []
    suppressed: list[int] = []
    for candidate in order:
        if len(accepted) == config.k_out:
            break
        dists = [
            float(np.linalg.norm(endpoints[candidate] - endpoints[kept]))
            for kept in accepted
        ]
        if all(d >= config.radius for d in dists):
            accepted.append(int(candidate))
        else:
            suppressed.append(int(candidate))
    for candidate in suppressed:
        if len(accepted) == config.k_out:
            break
        accepted.append(candidate)
    return accepted


def reference_top_k(logits: np.ndarray, top_k: int) -> list[int]:
    """The top_k highest-score heads of one scene's (K,) logits, ties by
    lowest index."""
    return np.argsort(-stable_softmax(logits), kind="stable")[:top_k].tolist()


def select(endpoints, logits, **config):
    """nms_select on one scene whose trajectories are single endpoints."""
    traj = np.asarray(endpoints, dtype=float)[None, :, None, :]
    kept_traj, kept_logits = nms_select(
        traj, np.asarray(logits, dtype=float)[None], NMSConfig(**config)
    )
    return kept_traj[0], kept_logits[0]


class TestNmsConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_out=0),
            dict(k_out=2, radius=-1.0),
            dict(k_out=2, order="distance"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NMSConfig(**kwargs).validate()


class TestNmsSelect:
    def test_radius_zero_is_top_k_by_score(self):
        endpoints = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]
        logits = [1.0, 4.0, 2.0, 3.0]
        kept, _ = select(endpoints, logits, k_out=2, radius=0.0)
        assert np.array_equal(kept[:, 0], [[0.1, 0.0], [0.3, 0.0]])

    def test_near_duplicate_endpoint_suppressed(self):
        # The second-highest score sits within the radius of the best and
        # must lose its slot to the farther third candidate.
        endpoints = [[0.0, 0.0], [0.5, 0.0], [5.0, 0.0]]
        logits = [3.0, 2.0, 1.0]
        kept, _ = select(endpoints, logits, k_out=2, radius=1.0)
        assert np.array_equal(kept[:, 0], [[0.0, 0.0], [5.0, 0.0]])

    def test_boundary_distance_is_accepted(self):
        endpoints = [[0.0, 0.0], [2.0, 0.0]]
        kept, _ = select(endpoints, [1.0, 0.0], k_out=2, radius=2.0)
        assert len(kept) == 2
        assert np.array_equal(kept[:, 0], endpoints)

    def test_suppressed_candidates_backfill(self):
        # All endpoints coincide, so only one survives suppression; the
        # remaining slots are filled by the best suppressed candidates.
        endpoints = [[0.0, 0.0]] * 4
        logits = [0.0, 3.0, 2.0, 1.0]
        kept, kept_logits = select(endpoints, logits, k_out=3, radius=1.0)
        assert len(kept) == 3
        assert kept_logits.tolist() == [3.0, 2.0, 1.0]

    def test_selected_scores_are_subset_softmax(self):
        endpoints = [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]
        logits = [2.0, 1.0, 0.0]
        _, kept_logits = select(endpoints, logits, k_out=2, radius=1.0)
        scores = stable_softmax(kept_logits)
        subset = np.exp([2.0, 1.0])
        assert np.allclose(scores, subset / subset.sum(), atol=1e-12)
        assert scores.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tied_scores_visit_lowest_index_first(self):
        endpoints = [[0.0, 0.0], [1.0, 1.0], [9.0, 9.0]]
        kept, _ = select(endpoints, [0.0, 0.0, 0.0], k_out=1, radius=0.5)
        assert np.array_equal(kept[0, 0], [0.0, 0.0])

    def test_k_out_equal_heads_keeps_everything(self):
        endpoints = [[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]]
        kept, _ = select(endpoints, [0.0, 1.0, 2.0], k_out=3, radius=1.0)
        assert len(kept) == 3

    def test_radius_compares_like_a_per_pair_norm(self):
        # The second endpoint lies at exactly `radius` from the first, as a
        # per-pair np.linalg.norm rounds it (a norm over the last axis of a
        # stacked array rounds this pair one bit lower). It must be accepted,
        # which leaves no slot for the third.
        endpoints = [[0.0, 0.0], [-0.524, -1.267], [10.0, 10.0]]
        radius = float(np.linalg.norm(np.array([-0.524, -1.267])))
        _, kept_logits = select(endpoints, [2.0, 1.0, 0.0], k_out=2, radius=radius)
        assert kept_logits.tolist() == [2.0, 1.0]

    def test_k_out_above_heads_rejected(self):
        with pytest.raises(InputError):
            select([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0], k_out=3)

    def test_suppression_uses_final_waypoint_only(self):
        # Two trajectories share an endpoint but differ earlier; they still
        # suppress each other because only endpoints are compared.
        traj = np.array(
            [
                [[0.0, 0.0], [1.0, 0.0]],
                [[5.0, 5.0], [1.0, 0.0]],
                [[9.0, 9.0], [9.0, 9.0]],
            ]
        )
        kept, _ = nms_select(
            traj[None], np.array([[2.0, 1.0, 0.0]]), NMSConfig(k_out=2, radius=0.5)
        )
        assert np.array_equal(kept[0, 1], [[9.0, 9.0], [9.0, 9.0]])


def random_batch(rng, batch=40):
    """Scenes built to hit the edge cases of greedy suppression.

    Logits come from a few integer levels, so scores tie often. Endpoints
    sit on a small integer grid (coincident points force back-fill) or are
    continuous, and the radius is 0, a grid spacing, or the exact distance
    between two endpoints of the batch, so some pairs land on it exactly.
    """
    n_heads = int(rng.integers(1, 13))
    horizon = int(rng.integers(1, 4))
    trajectories = rng.normal(size=(batch, n_heads, horizon, 2)) * 3.0
    if rng.random() < 0.5:
        trajectories[:, :, -1, :] = rng.integers(-2, 3, size=(batch, n_heads, 2))
    logits = rng.integers(-2, 3, size=(batch, n_heads)).astype(float)
    if rng.random() < 0.3:
        logits += rng.normal(size=logits.shape)
    # The two best heads of scene 0 are always compared, so a radius equal
    # to their distance is always tested at the boundary.
    order = np.argsort(-stable_softmax(logits[0]), kind="stable")
    first, second = order[0], order[min(1, n_heads - 1)]
    endpoints = trajectories[0, :, -1, :]
    boundary = float(np.linalg.norm(endpoints[second] - endpoints[first]))
    radius = float(rng.choice([0.0, 1.0, 2.0, boundary, boundary]))
    k_out = int(rng.integers(1, n_heads + 1))
    return trajectories, logits, NMSConfig(k_out=k_out, radius=radius)


class TestAgainstPerSceneReference:
    def test_nms_matches_reference_on_random_batches(self):
        rng = np.random.default_rng(20241018)
        for _ in range(200):
            trajectories, logits, config = random_batch(rng)
            kept_traj, kept_logits = nms_select(trajectories, logits, config)
            for i in range(len(trajectories)):
                keep = reference_nms(trajectories[i], logits[i], config)
                assert np.array_equal(kept_traj[i], trajectories[i, keep])
                assert np.array_equal(kept_logits[i], logits[i, keep])

    def test_top_k_matches_reference_on_random_batches(self):
        rng = np.random.default_rng(20241019)
        for _ in range(200):
            trajectories, logits, config = random_batch(rng)
            kept_traj, kept_logits = truncate_top_k(trajectories, logits, config.k_out)
            for i in range(len(trajectories)):
                keep = reference_top_k(logits[i], config.k_out)
                assert np.array_equal(kept_traj[i], trajectories[i, keep])
                assert np.array_equal(kept_logits[i], logits[i, keep])

    def test_evaluate_scores_the_reference_selection(self):
        generator = GeneratorConfig(seed=1, past_len=4, future_len=6)
        features, targets = generate_split(generator, 60)
        params = init_params(
            ModelConfig(input_dim=8, n_heads=8, horizon=6, hidden=(16,)), seed=3
        )
        config = NMSConfig(k_out=4, radius=0.3)
        report = evaluate(params, features, targets, top_k=3, nms=config)
        trajectories, logits, _ = forward_batch(params, features)
        fdes, briers, winners = [], [], []
        for i in range(len(features)):
            kept = reference_nms(trajectories[i], logits[i], config)
            top = [kept[j] for j in reference_top_k(logits[i, kept], 3)]
            ends = trajectories[i, top, -1]
            finals = [math.hypot(*(end - targets[i, -1])) for end in ends]
            winner = finals.index(min(finals))
            value = finals[winner]
            fdes.append(value)
            winners.append(winner)
            briers.append(value + (1.0 - stable_softmax(logits[i, top])[winner]) ** 2)
        assert report.winner_histogram == np.bincount(winners, minlength=3).tolist()
        assert report.min_fde == pytest.approx(np.mean(fdes), abs=1e-12)
        assert report.brier_fde == pytest.approx(np.mean(briers), abs=1e-12)
