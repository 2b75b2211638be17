"""Cost vectors and assignment weights for multi-hypothesis regression losses.

A model proposes K trajectories per scene. Each variant in this module turns
the K per-hypothesis costs into a probability vector q over the heads, and the
training objective is D = sum_k q_k * cost_k with q treated as a constant during
backpropagation. The variants differ only in how q is built:

    wta   one-hot on the lowest-cost head
    rwta  winner gets 1 - epsilon, the rest share epsilon evenly
    ewta  uniform over the n lowest-cost heads
    dac   uniform over the winner's block in a contiguous partition
    awta  softmin of the costs at temperature T

For the first four, q is piecewise constant in the costs, so the applied
gradient is the gradient of D. For awta it is not: sum_k q_k * grad cost_k is
exactly the gradient of the free energy F = -T log sum_k exp(-cost_k / T)
= D - T * H(q) of deterministic annealing, H being the entropy of q. An awta
step descends F, while the loss batch_objective reports (and train_loss
logs) is D plus the score term.

A separate cross-entropy term trains the per-head confidence scores against
the hard winner and is shared by every variant.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigurationError, InputError

# The share of the weight that rwta spreads over the non-winning heads.
RWTA_EPSILON = 0.05


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with the row max subtracted before
    exponentiation.

    The max is gathered at argmax: over a short last axis that costs about
    half the generic reduction, and it has the reduction's bits, a row with
    a NaN included, except that a zero max may carry the other sign, which
    exp maps to the same 1.0.
    """
    rows = x.reshape(-1, x.shape[-1])
    top = rows[np.arange(len(rows)), rows.argmax(axis=1)]
    e = x - top.reshape(*x.shape[:-1], 1)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _score_terms(
    logits: np.ndarray, winners: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """-log softmax(logits)[winner] and softmax(logits) per row of (B, K)
    logits; rows is np.arange(B).

    The score is logsumexp(logits) - logit_winner, which stays finite and
    exact where the winner's probability underflows to 0. Both results come
    from one shift, exp and sum, and equal stable_softmax bit for bit.
    """
    shifted = logits - logits[rows, logits.argmax(axis=1)][:, None]
    score = shifted[rows, winners]
    exp = np.exp(shifted, out=shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True)
    np.subtract(np.log(total[:, 0]), score, out=score)
    exp /= total
    return score, exp


def squared_distance(residual: np.ndarray) -> np.ndarray:
    """x^2 + y^2 over the last axis of a (..., 2) array of coordinate offsets.

    Adding the two coordinate columns gives the same bits as np.sum over the
    length-2 axis (a two-term sum of nonnegative squares rounds once, in
    either order) at a fraction of the generic reduction's cost. Squaring
    each column on its own holds half-size temporaries, not a squared copy
    of the residual.
    """
    d = residual[..., 0] * residual[..., 0]
    d += residual[..., 1] * residual[..., 1]
    return d


def max_dac_depth(n_heads: int) -> int:
    """Deepest partition level for K heads; blocks are singletons there."""
    if n_heads < 1:
        raise InputError(f"need at least one head, got {n_heads}")
    return int(n_heads - 1).bit_length()


@dataclasses.dataclass
class LossConfig:
    """Which weight variant to train with: the loss block of a config.

    A scheduled variant's knob (awta's temperature, ewta's top_n, dac's
    depth) is not a setting: each epoch, training passes the schedule's
    value to the kernel (schedulers.CONTROLS). rwta always uses RWTA_EPSILON, and
    the confidence cross-entropy term always has weight 1.
    """

    variant: str = "awta"

    def validate(self, n_heads: int) -> None:
        """Check the variant for a model of n_heads heads."""
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown loss variant {self.variant!r}, expected one of {VARIANTS}"
            )
        if n_heads < 1:
            raise ConfigurationError(f"need at least one head, got {n_heads}")
        if self.variant == "rwta" and n_heads < 2:
            raise ConfigurationError("rwta needs at least two heads")


# ---------------------------------------------------------------------------
# Weight kernels. Each acts on the last axis of a (..., K) array of costs and
# returns weights of the same shape that sum to 1 over the heads.
# ---------------------------------------------------------------------------


def wta_weights(costs) -> np.ndarray:
    """One-hot weights on the lowest-cost head, ties to the lowest index."""
    costs = np.asarray(costs, dtype=float)
    weights = np.zeros_like(costs)
    winners = costs.argmin(axis=-1)
    np.put_along_axis(weights, winners[..., None], 1.0, axis=-1)
    return weights


def rwta_weights(costs, epsilon: float = RWTA_EPSILON) -> np.ndarray:
    """Relaxed winner weights: 1 - epsilon on the winner, the rest uniform."""
    costs = np.asarray(costs, dtype=float)
    n_heads = costs.shape[-1]
    if n_heads < 2:
        raise InputError("rwta needs at least two heads")
    hi = (n_heads - 1) / n_heads
    if not 0.0 < epsilon <= hi:
        raise InputError(f"epsilon must be in (0, {hi}] for K={n_heads}, got {epsilon}")
    weights = np.full_like(costs, epsilon / (n_heads - 1))
    winners = costs.argmin(axis=-1)
    np.put_along_axis(weights, winners[..., None], 1.0 - epsilon, axis=-1)
    return weights


def ewta_weights(costs, top_n: int) -> np.ndarray:
    """Uniform weights over the top_n lowest-cost heads."""
    costs = np.asarray(costs, dtype=float)
    n_heads = costs.shape[-1]
    if not 1 <= top_n <= n_heads:
        raise InputError(f"top_n must be in [1, {n_heads}], got {top_n}")
    order = costs.argsort(axis=-1, kind="stable")
    weights = np.zeros_like(costs)
    np.put_along_axis(weights, order[..., :top_n], 1.0 / top_n, axis=-1)
    return weights


def dac_block_ids(n_heads: int, depth: int) -> np.ndarray:
    """Block id per head for a contiguous partition built by halving.

    Depth 0 is one block covering every head. Each level splits every block
    into a first half of ceil(size / 2) heads and a second half with the
    rest; singleton blocks stay as they are. At max_dac_depth(K) all blocks
    are singletons.
    """
    deepest = max_dac_depth(n_heads)
    if not 0 <= depth <= deepest:
        raise InputError(f"depth must be in [0, {deepest}] for K={n_heads}, got {depth}")
    blocks = [(0, n_heads)]
    for _ in range(depth):
        split = []
        for lo, hi in blocks:
            size = hi - lo
            if size <= 1:
                split.append((lo, hi))
                continue
            mid = lo + (size + 1) // 2
            split.append((lo, mid))
            split.append((mid, hi))
        blocks = split
    ids = np.empty(n_heads, dtype=int)
    for block_id, (lo, hi) in enumerate(blocks):
        ids[lo:hi] = block_id
    return ids


def dac_weights(costs, depth: int) -> np.ndarray:
    """Uniform weights over the winner's block at the given partition depth."""
    costs = np.asarray(costs, dtype=float)
    ids = dac_block_ids(costs.shape[-1], depth)
    block_sizes = np.bincount(ids)
    winners = costs.argmin(axis=-1)
    winner_blocks = ids[winners]
    member = (ids == winner_blocks[..., None]).astype(costs.dtype)
    return member / block_sizes[winner_blocks][..., None]


def awta_weights(costs, temperature: float) -> np.ndarray:
    """Softmin weights exp(-cost / T) normalized over heads."""
    costs = np.asarray(costs, dtype=float)
    if not temperature > 0.0:
        raise InputError(f"temperature must be positive, got {temperature}")
    # Subtracting the row minimum keeps the largest exponent at exactly 0,
    # so the normalizer is always >= 1 and never overflows. Negating then
    # dividing in place gives the bits of -shifted / temperature, NaN signs
    # included, which dividing by -temperature would not.
    weights = costs - costs.min(axis=-1, keepdims=True)
    np.negative(weights, out=weights)
    weights /= temperature
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights


# The weight kernel of each variant. A kernel's second argument is its
# knob: awta's temperature, ewta's top_n, dac's depth, rwta's epsilon.
KERNELS = {
    "wta": wta_weights,
    "rwta": rwta_weights,
    "ewta": ewta_weights,
    "dac": dac_weights,
    "awta": awta_weights,
}
VARIANTS = tuple(KERNELS)


def assignment_weights(costs, variant: str, knob=None) -> np.ndarray:
    """The weights of variant's kernel, passed knob when it is not None."""
    kernel = KERNELS.get(variant)
    if kernel is None:
        raise ConfigurationError(
            f"unknown loss variant {variant!r}, expected one of {VARIANTS}"
        )
    return kernel(costs) if knob is None else kernel(costs, knob)


# ---------------------------------------------------------------------------
# Batched objective used by training and by the gradient checker.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchObjective:
    """Loss values and output-side gradients for one batch.

    loss is per sample: weighted trajectory cost plus the score term.
    d_outputs is the gradient of the batch MEAN loss, with the weights held
    constant, with respect to the raw network outputs: (B, K*L*2 + K) in the
    output layout of network, ready for backward_batch(). costs[b, k] is the
    mean over the L steps of the squared distance between head k's
    trajectory and the target.
    """

    loss: np.ndarray
    d_outputs: np.ndarray
    costs: np.ndarray
    weights: np.ndarray
    winners: np.ndarray


def batch_objective(
    preds: np.ndarray,
    logits: np.ndarray,
    targets: np.ndarray,
    variant: str,
    knob=None,
) -> BatchObjective:
    """Evaluate the composite objective on a batch of model outputs.

    Args:
        preds: (B, K, L, 2) predicted trajectories.
        logits: (B, K) raw confidence logits.
        targets: (B, L, 2) ground-truth trajectories.
        variant: the weight variant, a key of KERNELS.
        knob: the variant's knob, the schedule's value at this epoch for
            awta, ewta and dac; None for wta and rwta.

    Returns:
        BatchObjective with per-sample losses and mean-loss gradients.
    """
    preds = np.asarray(preds, dtype=float)
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.ndim != 4 or preds.shape[-1] != 2:
        raise InputError(f"preds must be (B, K, L, 2), got {preds.shape}")
    batch, n_heads, horizon, _ = preds.shape
    if logits.shape != (batch, n_heads):
        raise InputError(f"logits must be {(batch, n_heads)}, got {logits.shape}")
    if targets.shape != (batch, horizon, 2):
        raise InputError(
            f"targets must be {(batch, horizon, 2)}, got {targets.shape}"
        )

    # One buffer holds every output gradient. Its trajectory columns first
    # hold the residual, which becomes the trajectory gradient in place.
    n_traj = n_heads * horizon * 2
    d_outputs = np.empty((batch, n_traj + n_heads))
    residual = d_outputs[:, :n_traj].reshape(preds.shape)
    np.subtract(preds, targets[:, None, :, :], out=residual)
    # Squaring the whole residual at once, then adding its two columns,
    # gives the bits of squared_distance: the batch is small, so one
    # full-size temporary is cheaper than two half-size products. A sum
    # then a division in place gives the bits of np.mean.
    square = np.square(residual)
    costs = np.add.reduce(square[..., 0] + square[..., 1], axis=2)
    costs /= horizon
    weights = assignment_weights(costs, variant, knob)
    winners = costs.argmin(axis=1)
    rows = np.arange(batch)

    score, probs = _score_terms(logits, winners, rows)
    loss = np.add.reduce(weights * costs, axis=1)
    loss += score

    # Trajectory columns: w * (2 / L) * residual / B. Logit columns:
    # (softmax - one_hot(winner)) / B, where subtracting 1 at the winners
    # equals subtracting the one-hot row.
    scale = weights[:, :, None, None] * (2.0 / horizon)
    np.multiply(scale, residual, out=residual)
    probs[rows, winners] -= 1.0
    d_outputs[:, n_traj:] = probs
    d_outputs /= batch

    return BatchObjective(
        loss=loss,
        d_outputs=d_outputs,
        costs=costs,
        weights=weights,
        winners=winners,
    )
