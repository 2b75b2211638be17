"""Unit tests for the assignment-weight kernels and training objective."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtalab import (
    InputError,
    ConfigurationError,
    WtalabError,
    LossConfig,
    assignment_weights,
    awta_weights,
    batch_objective,
    dac_weights,
    ewta_weights,
    rwta_weights,
    wta_weights,
)
from wtalab.losses import (
    VARIANTS,
    BatchObjective,
    dac_block_ids,
    max_dac_depth,
    squared_distance,
    stable_softmax,
)

RNG = np.random.default_rng(20240817)


def random_costs(k: int) -> np.ndarray:
    return RNG.uniform(0.0, 50.0, size=k)


class TestWta:
    def test_one_hot_at_argmin(self):
        w = wta_weights([3.0, 1.0, 2.0])
        assert w.tolist() == [0.0, 1.0, 0.0]

    def test_tie_goes_to_lowest_index(self):
        w = wta_weights([2.0, 1.0, 1.0])
        assert w.tolist() == [0.0, 1.0, 0.0]

    def test_single_head(self):
        assert wta_weights([7.5]).tolist() == [1.0]

    def test_winner_index_matches(self):
        costs = random_costs(6)
        assert wta_weights(costs)[np.argmin(costs)] == 1.0


class TestRwta:
    def test_exact_values(self):
        w = rwta_weights([5.0, 1.0, 3.0], epsilon=0.3)
        np.testing.assert_allclose(w, [0.15, 0.7, 0.15], rtol=0, atol=0)

    def test_two_heads_epsilon_half_is_uniform(self):
        w = rwta_weights([1.0, 2.0], epsilon=0.5)
        assert w.tolist() == [0.5, 0.5]

    def test_epsilon_above_bound_rejected(self):
        with pytest.raises(InputError):
            rwta_weights([1.0, 2.0], epsilon=0.51)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(InputError):
            rwta_weights([1.0, 2.0], epsilon=0.0)

    def test_single_head_rejected(self):
        with pytest.raises(InputError):
            rwta_weights([1.0], epsilon=0.05)


class TestEwta:
    def test_uniform_over_lowest_n(self):
        w = ewta_weights([9.0, 1.0, 5.0, 3.0], top_n=2)
        assert w.tolist() == [0.0, 0.5, 0.0, 0.5]

    def test_n_equals_one_matches_wta(self):
        for k in range(2, 9):
            costs = random_costs(k)
            assert ewta_weights(costs, 1).tolist() == wta_weights(costs).tolist()

    def test_n_equals_k_is_uniform(self):
        w = ewta_weights([4.0, 2.0, 9.0], top_n=3)
        np.testing.assert_array_equal(w, np.full(3, 1 / 3))

    def test_ties_resolved_by_index(self):
        # both middle heads cost 2.0; the earlier one joins the top set
        w = ewta_weights([1.0, 2.0, 2.0, 5.0], top_n=2)
        assert w.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_bad_n_rejected(self):
        with pytest.raises(InputError):
            ewta_weights([1.0, 2.0], top_n=3)


class TestDac:
    def test_depth_zero_is_uniform(self):
        w = dac_weights(random_costs(5), depth=0)
        np.testing.assert_array_equal(w, np.full(5, 0.2))

    def test_depth_one_covers_winner_half(self):
        # halves of 4 heads: [0, 1] and [2, 3]; winner in the second half
        w = dac_weights([5.0, 4.0, 1.0, 3.0], depth=1)
        assert w.tolist() == [0.0, 0.0, 0.5, 0.5]

    def test_max_depth_matches_wta(self):
        for k in range(2, 10):
            costs = random_costs(k)
            deep = dac_weights(costs, max_dac_depth(k))
            assert deep.tolist() == wta_weights(costs).tolist()

    def test_odd_split_puts_extra_head_left(self):
        ids = dac_block_ids(5, 1)
        assert ids.tolist() == [0, 0, 0, 1, 1]

    def test_six_heads_depth_two(self):
        ids = dac_block_ids(6, 2)
        assert ids.tolist() == [0, 0, 1, 2, 2, 3]

    def test_block_ids_refine(self):
        # deeper levels only subdivide, never merge or reshuffle
        for k in (3, 5, 6, 7, 8):
            for d in range(max_dac_depth(k)):
                coarse = dac_block_ids(k, d)
                fine = dac_block_ids(k, d + 1)
                seen = {}
                for c, f in zip(coarse.tolist(), fine.tolist()):
                    seen.setdefault(f, c)
                    assert seen[f] == c

    def test_depth_out_of_range_rejected(self):
        with pytest.raises(InputError):
            dac_weights([1.0, 2.0], depth=2)


class TestAwta:
    def test_softmin_two_heads(self):
        t = 2.0
        costs = [0.0, t * math.log(2.0)]
        w = awta_weights(costs, temperature=t)
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], rtol=1e-15)

    def test_floor_temperature_matches_wta(self):
        for k in range(2, 9):
            costs = random_costs(k)
            cold = awta_weights(costs, temperature=1e-8)
            np.testing.assert_allclose(cold, wta_weights(costs), atol=1e-6)

    def test_huge_temperature_is_uniform(self):
        for k in range(2, 9):
            costs = random_costs(k)
            hot = awta_weights(costs, temperature=1e9)
            np.testing.assert_allclose(hot, np.full(k, 1 / k), atol=1e-6)

    def test_shift_invariance(self):
        costs = random_costs(6)
        w0 = awta_weights(costs, temperature=3.0)
        w1 = awta_weights(costs + 17.25, temperature=3.0)
        np.testing.assert_allclose(w0, w1, rtol=1e-12)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(InputError):
            awta_weights([1.0, 2.0], temperature=0.0)


@pytest.mark.parametrize(
    "kernel, knob, message",
    [
        (awta_weights, 0.0, "temperature must be positive, got 0.0"),
        (awta_weights, -1.0, "temperature must be positive, got -1.0"),
        (ewta_weights, 0, "top_n must be in [1, 4], got 0"),
        (ewta_weights, 5, "top_n must be in [1, 4], got 5"),
        (dac_weights, 3, "depth must be in [0, 2] for K=4, got 3"),
        (dac_weights, -1, "depth must be in [0, 2] for K=4, got -1"),
        (rwta_weights, 0.8, "epsilon must be in (0, 0.75] for K=4, got 0.8"),
    ],
    ids=["awta-0", "awta-neg", "ewta-0", "ewta-5", "dac-3", "dac-neg", "rwta-0.8"],
)
def test_out_of_range_knob_rejected_by_its_kernel(kernel, knob, message):
    # The kernel is the only check of a knob: training passes it the
    # schedule's value, which tests/test_schedulers.py shows is in range.
    with pytest.raises(InputError) as excinfo:
        kernel(RNG.uniform(0.0, 50.0, size=(3, 4)), knob)
    assert str(excinfo.value) == message


@st.composite
def cost_vectors(draw):
    k = draw(st.integers(min_value=2, max_value=8))
    vals = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    return np.asarray(vals)


@settings(max_examples=200, derandomize=True)
@given(costs=cost_vectors(), t=st.floats(min_value=1e-3, max_value=1e6))
def test_awta_weights_are_a_distribution(costs, t):
    w = awta_weights(costs, temperature=t)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-9


@settings(max_examples=200, derandomize=True)
@given(costs=cost_vectors())
def test_every_variant_sums_to_one(costs):
    k = len(costs)
    variants = [
        wta_weights(costs),
        rwta_weights(costs, 0.05),
        ewta_weights(costs, max(1, k // 2)),
        dac_weights(costs, 1),
        awta_weights(costs, 1.0),
    ]
    for w in variants:
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w >= 0.0)


@settings(max_examples=100, derandomize=True)
@given(costs=cost_vectors(), t=st.floats(min_value=1e-2, max_value=1e3))
def test_awta_permutation_equivariance(costs, t):
    perm = np.arange(len(costs))[::-1]
    w = awta_weights(costs, temperature=t)
    wp = awta_weights(costs[perm], temperature=t)
    np.testing.assert_allclose(w[perm], wp, rtol=1e-12, atol=1e-15)


@settings(max_examples=100, derandomize=True)
@given(costs=cost_vectors(), t=st.floats(min_value=1e-2, max_value=1e4))
def test_awta_ordering_follows_costs(costs, t):
    # lower cost never gets a smaller weight
    w = awta_weights(costs, temperature=t)
    order = np.argsort(costs, kind="stable")
    assert np.all(np.diff(w[order]) <= 1e-12)


class TestMaxDacDepth:
    @pytest.mark.parametrize(
        "k,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (8, 3), (9, 4), (16, 4)]
    )
    def test_values(self, k, expected):
        assert max_dac_depth(k) == expected


def test_squared_distance_has_the_bits_of_a_summed_square():
    residual = RNG.normal(scale=10.0, size=(3, 4, 5, 2))
    residual[0, 0, :, 0] = [-0.0, 5e-324, 1e154, -2.5e-160, 1 / 3]
    residual[0, 1, :, 1] = [np.nan, np.inf, -np.inf, 1e200, 3e-170]
    with np.errstate(over="ignore"):
        got = squared_distance(residual)
        expected = np.sum(residual**2, axis=3)
    assert got.tobytes() == expected.tobytes()
    assert not np.shares_memory(got, residual)


class TestAssignmentWeightsDispatch:
    def test_dispatch_matches_direct_calls(self):
        costs = RNG.uniform(0.0, 50.0, size=(3, 4))
        cases = [
            ("wta", None, wta_weights(costs)),
            ("rwta", None, rwta_weights(costs, 0.05)),
            ("ewta", 2, ewta_weights(costs, 2)),
            ("dac", 1, dac_weights(costs, 1)),
            ("awta", 2.5, awta_weights(costs, 2.5)),
        ]
        for variant, knob, direct in cases:
            got = assignment_weights(costs, variant, knob)
            np.testing.assert_array_equal(got, direct)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown loss variant 'softmin'"):
            assignment_weights(np.zeros(3), "softmin")

    def test_batch_rows_match_single_vectors(self):
        costs = RNG.uniform(0.0, 50.0, size=(2, 3, 5))
        kernels = [
            lambda c: wta_weights(c),
            lambda c: rwta_weights(c, 0.1),
            lambda c: ewta_weights(c, 3),
            lambda c: dac_weights(c, 2),
            lambda c: awta_weights(c, 4.0),
        ]
        for kernel in kernels:
            batch = kernel(costs)
            assert batch.shape == costs.shape
            for index in np.ndindex(costs.shape[:-1]):
                np.testing.assert_array_equal(batch[index], kernel(costs[index]))


def gradient_views(out: BatchObjective) -> tuple[np.ndarray, np.ndarray]:
    """The (B, K, L, 2) trajectory view and the (B, K) logit view of
    out.d_outputs, whose columns are each head's trajectory, then the logits."""
    batch, n_heads = out.costs.shape
    n_traj = out.d_outputs.shape[1] - n_heads
    horizon = n_traj // (2 * n_heads)
    d_trajectories = out.d_outputs[:, :n_traj].reshape(batch, n_heads, horizon, 2)
    return d_trajectories, out.d_outputs[:, n_traj:]


def one_scene_objective(preds, logits, target, variant, knob=None):
    """batch_objective on a batch holding one scene."""
    return batch_objective(
        np.asarray(preds, dtype=float)[None],
        np.asarray(logits, dtype=float)[None],
        np.asarray(target, dtype=float)[None],
        variant,
        knob,
    )


class TestCostsAndLoss:
    def test_ade_cost_is_mean_squared_norm(self):
        pred = np.zeros((1, 4, 2))
        target = np.tile([3.0, 4.0], (4, 1))
        out = one_scene_objective(pred, [0.0], target, "wta")
        assert out.costs.tolist() == [[25.0]]

    def test_ade_cost_shape_mismatch(self):
        with pytest.raises(InputError):
            one_scene_objective(
                np.zeros((1, 4, 2)), [0.0], np.zeros((5, 2)), "wta"
            )

    def test_weighted_loss_is_dot_product(self):
        # With three equal logits the score term is log 3, so the loss is
        # costs . weights + log 3.
        rng = np.random.default_rng(4)
        preds = rng.normal(size=(3, 2, 2))
        target = rng.normal(size=(2, 2))
        out = one_scene_objective(preds, np.zeros(3), target, "awta", 1.0)
        expected = float(np.dot(out.costs[0], awta_weights(out.costs[0], 1.0)))
        assert out.loss[0] == pytest.approx(expected + math.log(3.0), rel=1e-15)

    def test_score_loss_is_negative_log(self):
        # Head 1 matches the target exactly, so it wins at zero cost and the
        # loss is the score term alone: -log(0.75).
        preds = np.array([[[1.0, 0.0]], [[0.0, 0.0]]])
        logits = [0.0, math.log(3.0)]
        out = one_scene_objective(preds, logits, np.zeros((1, 2)), "wta")
        assert out.winners.tolist() == [1]
        assert out.loss[0] == pytest.approx(-math.log(0.75), rel=1e-15)

    def test_score_loss_exact_when_winner_probability_underflows(self):
        # Head 1 wins at zero cost, but its probability exp(-1e4) underflows
        # to 0. The loss is still log-sum-exp of the logits minus the
        # winner's logit, and the applied gradient probs - one_hot is its
        # derivative.
        preds = np.array([[[1.0, 0.0]], [[0.0, 0.0]]])
        logits = [0.0, -1e4]
        out = one_scene_objective(preds, logits, np.zeros((1, 2)), "wta")
        assert out.winners.tolist() == [1]
        top = max(logits)
        expected = top + math.log(sum(math.exp(v - top) for v in logits)) - logits[1]
        assert math.isfinite(out.loss[0])
        assert out.loss[0] == pytest.approx(expected, rel=1e-15)
        d_score_logits = gradient_views(out)[1]
        step = 1e-3
        for k in range(2):
            nudge = np.eye(2)[k] * step
            plus = one_scene_objective(preds, logits + nudge, np.zeros((1, 2)), "wta")
            minus = one_scene_objective(preds, logits - nudge, np.zeros((1, 2)), "wta")
            numeric = (plus.loss[0] - minus.loss[0]) / (2.0 * step)
            assert numeric == pytest.approx(d_score_logits[0, k], abs=1e-6)

    def test_stable_softmax_handles_large_logits(self):
        p = stable_softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(p, [0.5, 0.5])


class TestBatchObjective:
    def make_batch(self, b=3, k=4, horizon=5, seed=0):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=(b, k, horizon, 2))
        logits = rng.normal(size=(b, k))
        targets = rng.normal(size=(b, horizon, 2))
        return preds, logits, targets

    def test_loss_matches_per_sample_recomputation(self):
        preds, logits, targets = self.make_batch()
        out = batch_objective(preds, logits, targets, "awta", 1.5)
        batch, n_heads, horizon, _ = preds.shape
        for i in range(batch):
            # Plain loops: squared-distance costs, softmin weights, and the
            # negative log-softmax of the hard winner's logit.
            costs = []
            for k in range(n_heads):
                total = 0.0
                for step in range(horizon):
                    dx = preds[i, k, step, 0] - targets[i, step, 0]
                    dy = preds[i, k, step, 1] - targets[i, step, 1]
                    total += dx * dx + dy * dy
                costs.append(total / horizon)
            low = min(costs)
            soft = [math.exp(-(c - low) / 1.5) for c in costs]
            weighted = sum(w * c for w, c in zip(soft, costs)) / sum(soft)
            winner = costs.index(low)
            top = max(logits[i])
            log_norm = top + math.log(sum(math.exp(v - top) for v in logits[i]))
            expected = weighted + (log_norm - logits[i, winner])
            assert out.loss[i] == pytest.approx(expected, rel=1e-12)

    def test_trajectory_gradient_shape_and_scaling(self):
        preds, logits, targets = self.make_batch()
        out = batch_objective(preds, logits, targets, "wta")
        d_trajectories, d_score_logits = gradient_views(out)
        assert d_trajectories.shape == preds.shape
        assert d_score_logits.shape == logits.shape
        # only winning heads carry trajectory gradient under hard assignment
        for i in range(preds.shape[0]):
            winner = out.winners[i]
            losers = [k for k in range(preds.shape[1]) if k != winner]
            assert np.all(d_trajectories[i, losers] == 0.0)
            assert np.any(d_trajectories[i, winner] != 0.0)

    def test_score_gradient_sums_to_zero_when_coef_balanced(self):
        # softmax minus one-hot has zero row sums
        preds, logits, targets = self.make_batch()
        out = batch_objective(preds, logits, targets, "wta")
        np.testing.assert_allclose(
            gradient_views(out)[1].sum(axis=1), 0.0, atol=1e-12
        )


def reference_softmax(x):
    """Softmax over the last axis as first written: an oracle."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_awta_weights(costs, temperature):
    """awta_weights as first written, with fresh temporaries: an oracle."""
    shifted = costs - np.min(costs, axis=-1, keepdims=True)
    weights = np.exp(-shifted / temperature)
    return weights / np.sum(weights, axis=-1, keepdims=True)


def reference_batch_objective(preds, logits, targets, variant, knob=None):
    """The objective as first written, kept as an oracle for batch_objective.

    Costs reduce the (x, y) axis with np.sum and the steps with np.mean; the
    awta weights and the softmax come from the formulas above, not from the
    kernels under test; the score term and the softmax gradient each redo
    the shift, exp and sum; d_trajectories is built from fresh temporaries,
    the logit gradient from a zeros-plus-one-hot array, and d_outputs by
    concatenating the two.
    """
    batch, _, horizon, _ = preds.shape
    residual = preds - targets[:, None, :, :]
    costs = np.mean(np.sum(residual**2, axis=3), axis=2)
    if variant == "awta":
        weights = reference_awta_weights(costs, knob)
    else:
        weights = assignment_weights(costs, variant, knob)
    winners = np.argmin(costs, axis=1)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1))
    score = log_norm - shifted[np.arange(batch), winners]
    loss = np.sum(weights * costs, axis=1) + score
    d_traj = weights[:, :, None, None] * (2.0 / horizon) * residual / batch
    probs = reference_softmax(logits)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), winners] = 1.0
    d_logits = (probs - one_hot) / batch
    return dict(
        loss=loss,
        d_outputs=np.concatenate([d_traj.reshape(batch, -1), d_logits], axis=1),
        d_trajectories=d_traj,
        d_score_logits=d_logits,
        costs=costs,
        weights=weights,
        winners=winners,
    )


# Rows where gathering the extreme at argmax or argmin could differ from
# np.max or np.min: ties, a zero extreme of either sign (the one case where
# the gathered value and the reduction may differ, in the zero's sign),
# magnitudes near overflow and underflow, and non-finite entries.
EXTREME_ROWS = [
    [1.0, 1.0, -2.0],
    [-3.0, 0.5, 0.5],
    [0.0, -0.0, -1.0],
    [-0.0, 0.0, -1.0],
    [-0.0, -0.0, -0.0],
    [0.0, 0.0, 1.0],
    [-0.0, 0.0, 1.0],
    [1e308, -1e308, 1e300],
    [5e-324, -5e-324, 0.0],
    [1e-300, 2e-300, -1e-310],
    [np.nan, 1.0, 2.0],
    [1.0, np.nan, np.nan],
    [np.inf, 1.0, 2.0],
    [-np.inf, 1.0, 2.0],
    [np.inf, np.inf, -np.inf],
    [-np.inf, -np.inf, -np.inf],
]


class TestKernelOracle:
    """awta_weights and stable_softmax against the first-written formulas,
    compared as bytes, so a flipped zero or NaN sign would show."""

    @pytest.mark.parametrize("temperature", [1e-8, 0.7, 40.0, 1e300])
    def test_awta_weights(self, temperature):
        costs = np.array(EXTREME_ROWS)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            got = awta_weights(costs, temperature)
            want = reference_awta_weights(costs, temperature)
            rows = [awta_weights(row, temperature) for row in costs]
        assert got.tobytes() == want.tobytes()
        assert np.stack(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1.0, -1.0, 1e-5])
    def test_stable_softmax(self, scale):
        x = np.array(EXTREME_ROWS) * scale
        with np.errstate(invalid="ignore", over="ignore"):
            got = stable_softmax(x)
            want = reference_softmax(x)
            rows = [stable_softmax(row) for row in x]
            stacked = stable_softmax(x.reshape(2, -1, 3))
        assert got.tobytes() == want.tobytes()
        assert np.stack(rows).tobytes() == want.tobytes()
        assert stacked.tobytes() == want.tobytes()

    def test_inputs_are_left_unchanged(self):
        x = np.array(EXTREME_ROWS)
        before = x.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            awta_weights(x, 0.7)
            stable_softmax(x)
        assert x.tobytes() == before


def oracle_losses(n_heads):
    """One (variant, knob) per variant that is valid for n_heads heads."""
    losses = [
        ("wta", None),
        ("ewta", (n_heads + 1) // 2),
        ("dac", (max_dac_depth(n_heads) + 1) // 2),
        ("awta", 0.7),
    ]
    if n_heads > 1:
        losses.append(("rwta", None))
    return losses


class TestObjectiveOracle:
    """batch_objective against the reference formulas, bit for bit."""

    def assert_matches_reference(self, preds, logits, targets):
        names = [field.name for field in dataclasses.fields(BatchObjective)]
        assert names == ["loss", "d_outputs", "costs", "weights", "winners"]
        for loss in oracle_losses(preds.shape[1]):
            out = batch_objective(preds, logits, targets, *loss)
            expected = reference_batch_objective(preds, logits, targets, *loss)
            views = gradient_views(out)
            got_by_name = {name: getattr(out, name) for name in names}
            got_by_name.update(zip(("d_trajectories", "d_score_logits"), views))
            for name, got in got_by_name.items():
                want = expected[name]
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), (
                    f"{loss[0]}: {name} differs from the reference"
                )
            for view in views:
                assert np.shares_memory(view, out.d_outputs)

    @pytest.mark.parametrize(
        "shape",
        [(64, 6, 30), (64, 2, 1), (7, 1, 5), (5, 3, 1), (1, 1, 1), (33, 12, 4)],
        ids=lambda s: "B{}-K{}-L{}".format(*s),
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batches(self, shape, seed):
        batch, n_heads, horizon = shape
        rng = np.random.default_rng([seed, batch, n_heads, horizon])
        scale = rng.uniform(0.1, 30.0)
        preds = rng.normal(size=(batch, n_heads, horizon, 2)) * scale
        logits = rng.normal(size=(batch, n_heads)) * 3.0
        targets = rng.normal(size=(batch, horizon, 2)) * scale
        self.assert_matches_reference(preds, logits, targets)

    def test_tied_heads(self):
        # Heads 0 and 2 are copies, and so are 1 and 3: every scene has a
        # cost tie, and some have the tie at the minimum.
        rng = np.random.default_rng(11)
        half = rng.normal(size=(16, 2, 6, 2))
        preds = np.concatenate([half, half], axis=1)
        targets = rng.normal(size=(16, 6, 2))
        logits = np.zeros((16, 4))
        self.assert_matches_reference(preds, logits, targets)

    def test_exact_and_mirrored_coordinates(self):
        # Residuals (a, b) and (b, a) and exact hits give equal or zero costs.
        targets = np.zeros((2, 3, 2))
        preds = np.array(
            [
                [[[1.5, -2.0]] * 3, [[-2.0, 1.5]] * 3, [[0.0, 0.0]] * 3],
                [[[0.1, 0.2]] * 3, [[0.2, 0.1]] * 3, [[0.1, -0.2]] * 3],
            ]
        )
        logits = np.array([[1.0, 1.0, 1.0], [0.0, -1.0, 2.0]])
        self.assert_matches_reference(preds, logits, targets)

    def test_winner_probability_underflows(self):
        # The winning head's logit sits 1e4 below the others, so its
        # probability is exactly 0 while the score term stays finite.
        rng = np.random.default_rng(5)
        preds = rng.normal(size=(8, 4, 3, 2))
        targets = preds[:, 0] + 1e-3
        logits = np.zeros((8, 4))
        logits[:, 0] = -1e4
        logits[::2, 1] = 800.0
        self.assert_matches_reference(preds, logits, targets)
        out = batch_objective(preds, logits, targets, "wta")
        assert np.all(out.winners == 0)
        assert np.all(np.isfinite(out.loss))


class TestLossConfigValidate:
    def test_defaults_pass(self):
        LossConfig().validate(n_heads=4)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            LossConfig(variant="softmin").validate(n_heads=4)
        assert str(excinfo.value) == (
            "unknown loss variant 'softmin', expected one of"
            " ('wta', 'rwta', 'ewta', 'dac', 'awta')"
        )

    def test_rwta_epsilon_checked_against_head_count(self):
        with pytest.raises(WtalabError, match="rwta needs at least two heads"):
            LossConfig(variant="rwta").validate(n_heads=1)
        LossConfig(variant="rwta").validate(n_heads=2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_heads_rejected(self, variant):
        with pytest.raises(ConfigurationError, match="need at least one head, got 0"):
            LossConfig(variant=variant).validate(n_heads=0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_head_count_beyond_any_array_is_checked_without_one(self, variant):
        # The head-count rules are arithmetic: a cost row this wide could
        # not even be shaped.
        LossConfig(variant=variant).validate(n_heads=10**30)
