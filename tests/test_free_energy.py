"""The applied trajectory gradient against central differences of the
objective it descends, with nothing frozen.

For wta, rwta, ewta and dac the weights are piecewise constant in the costs,
so a step descends the distortion D = sum_k w_k c_k that the loss reports.
For awta the softmin weights move with the costs, and sum_k w_k grad c_k is
the gradient of the free energy F = -T log sum_k exp(-c_k / T) = D - T H(w)
of deterministic annealing (Rose 1998; Perera et al. 2024), not of D. The
oracles are plain numpy and take nothing from wtalab.losses; the frozen-weight
checks of test_network.gradient_check are a separate matter.
"""

import numpy as np
import pytest

from wtalab import batch_objective

from test_losses import gradient_views, join_rows

STEP = 1e-5
# Central differences at STEP agree with the applied gradient to about 1e-10;
# the gradient of D differs from the awta step by 1e-2 or more.
TOLERANCE = 1e-8


def make_batch(seed):
    """Batch 3, 4 heads, horizon 5: preds, logits and targets."""
    rng = np.random.default_rng(seed)
    preds = rng.normal(size=(3, 4, 5, 2))
    return preds, rng.normal(size=(3, 4)), rng.normal(size=(3, 5, 2))


def costs_of(preds, targets):
    """(B, K) mean over the steps of each head's squared distance."""
    residual = preds - targets[:, None]
    return (residual**2).sum(axis=3).mean(axis=2)


def score_term(logits, winners):
    """(B,) the confidence cross-entropy -log softmax(logits)[winner], which
    the reported loss adds to the trajectory term."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    rows = np.arange(len(logits))
    return np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, winners]


def trajectory_loss(out, preds, logits, targets):
    """(B,) the reported loss less its score term, whose winner is each
    row's lowest-cost head."""
    winners = costs_of(preds, targets).argmin(axis=1)
    return out.loss - score_term(logits, winners)


def softmin(costs, temperature):
    shifted = np.exp(-(costs - costs.min(axis=1, keepdims=True)) / temperature)
    return shifted / shifted.sum(axis=1, keepdims=True)


def free_energy(costs, temperature):
    """(B,) -T log sum_k exp(-c_k / T), computed from the row minimum."""
    low = costs.min(axis=1)
    spread = np.exp(-(costs - low[:, None]) / temperature).sum(axis=1)
    return low - temperature * np.log(spread)


def hard_weights(costs, variant):
    """(B, 4) weights of the piecewise-constant variants at the knobs of
    HARD_KNOBS, written out for four heads."""
    order = costs.argsort(axis=1)
    rows, winners = np.arange(len(costs)), order[:, 0]
    if variant == "rwta":
        weights = np.full_like(costs, 0.05 / 3)
        weights[rows, winners] = 0.95
        return weights
    weights = np.zeros_like(costs)
    if variant == "wta":
        weights[rows, winners] = 1.0
    elif variant == "ewta":
        weights[rows[:, None], order[:, :2]] = 0.5
    else:  # dac at depth 1: the halves [0, 1] and [2, 3]
        first = winners - winners % 2
        weights[rows, first] = weights[rows, first + 1] = 0.5
    return weights


# The knob of each piecewise-constant variant: ewta's top_n, dac's depth.
HARD_KNOBS = {"wta": None, "rwta": None, "ewta": 2, "dac": 1}


def central_differences(objective, preds):
    """The gradient of the scalar objective(preds) by central differences."""
    grad = np.empty_like(preds)
    for index in np.ndindex(preds.shape):
        plus, minus = preds.copy(), preds.copy()
        plus[index] += STEP
        minus[index] -= STEP
        grad[index] = (objective(plus) - objective(minus)) / (2.0 * STEP)
    return grad


@pytest.mark.parametrize("temperature", [0.1, 0.3, 0.7, 2.0, 10.0])
def test_awta_step_descends_the_free_energy_not_the_logged_loss(temperature):
    preds, logits, targets = make_batch(0)
    out = batch_objective(join_rows(preds, logits), targets, "awta", temperature)
    applied = gradient_views(out)[0]
    logged = trajectory_loss(out, preds, logits, targets).mean()

    def mean_free_energy(p):
        return free_energy(costs_of(p, targets), temperature).mean()

    def mean_distortion(p):
        costs = costs_of(p, targets)
        return (softmin(costs, temperature) * costs).sum(axis=1).mean()

    numeric_f = central_differences(mean_free_energy, preds)
    np.testing.assert_allclose(applied, numeric_f, rtol=0, atol=TOLERANCE)
    # The reported trajectory term is D, which lies above F by T times the
    # entropy.
    assert logged == pytest.approx(mean_distortion(preds), rel=1e-12)
    assert logged > mean_free_energy(preds)
    numeric_d = central_differences(mean_distortion, preds)
    assert np.abs(applied - numeric_d).max() > 1e-3


@pytest.mark.parametrize("variant", sorted(HARD_KNOBS))
@pytest.mark.parametrize("seed", [0, 1])
def test_piecewise_constant_variants_descend_the_logged_loss(variant, seed):
    preds, logits, targets = make_batch(seed)
    out = batch_objective(join_rows(preds, logits), targets, variant, HARD_KNOBS[variant])

    def mean_distortion(p):
        costs = costs_of(p, targets)
        return (hard_weights(costs, variant) * costs).sum(axis=1).mean()

    logged = trajectory_loss(out, preds, logits, targets).mean()
    assert logged == pytest.approx(mean_distortion(preds), rel=1e-12)
    numeric = central_differences(mean_distortion, preds)
    np.testing.assert_allclose(gradient_views(out)[0], numeric, rtol=0, atol=TOLERANCE)
