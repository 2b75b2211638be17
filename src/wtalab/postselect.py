"""Post-selection: thin a batch of hypothesis sets before computing metrics.

Used to evaluate an over-complete model (train with many heads, keep a few
diverse ones) through endpoint non-maximum suppression. nms_indices returns
the (B, k_out) head indices kept in each scene, in the order they were kept;
nms_select also gathers the kept (B, k_out, L, 2) trajectories and
(B, k_out) confidence logits. The scores of a kept set are the softmax over
its logits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigurationError, InputError
from .losses import stable_softmax


@dataclasses.dataclass
class NMSConfig:
    """Selection count and suppression radius in meters. Candidates are
    visited in descending score order."""

    k_out: int
    radius: float = 2.0

    def validate(self) -> None:
        if self.k_out < 1:
            raise ConfigurationError(f"k_out must be >= 1, got {self.k_out}")
        if self.radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {self.radius}")


def _order_by_score(logits: np.ndarray) -> np.ndarray:
    # Stable sort on the negated scores keeps ties in index order.
    return np.argsort(-stable_softmax(logits), axis=-1, kind="stable")


def nms_indices(
    trajectories: np.ndarray, logits: np.ndarray, config: NMSConfig
) -> np.ndarray:
    """The (B, k_out) indices of the hypotheses that endpoint suppression
    keeps, in the order they were kept.

    Candidates are visited in descending score order (ties by lowest index)
    and accepted when their endpoint lies at distance >= radius from every
    endpoint accepted so far. If fewer than k_out survive, the highest-score
    suppressed candidates fill the remaining slots.

    With radius 0 nothing is ever suppressed and the result is simply the
    k_out highest-score hypotheses in score order.

    The batch is visited one rank at a time, and the candidate at each rank
    is measured only against the candidates ranked before it, so no
    all-pairs (B, K, K) distance array is built. The visit stops once every
    scene holds k_out accepted candidates: no later candidate could then be
    accepted or back-filled. Each distance is the square root of a stacked
    1x2 by 2x1 matmul, a dot product that rounds exactly like
    np.linalg.norm of one difference vector; the two-column sum of squares
    that the metrics use can differ in the last bit here and flip a
    decision at exactly `radius`.
    """
    config.validate()
    n_heads = logits.shape[-1]
    if config.k_out > n_heads:
        raise InputError(
            f"k_out={config.k_out} exceeds the {n_heads} available hypotheses"
        )
    order = _order_by_score(logits)
    # The (K, B, 2) endpoints in visiting order live only inside _accept.
    accepted = _accept(trajectories[np.arange(len(order)), order.T, -1], config)
    # Accepted candidates come first. A scene with fewer than k_out of them
    # had every candidate visited, so the rest back-fill in visiting order.
    ranks = np.argsort(~accepted, axis=0, kind="stable")[: config.k_out].T
    return np.take_along_axis(order, ranks, axis=1)


def nms_select(
    trajectories: np.ndarray, logits: np.ndarray, config: NMSConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Pick up to k_out hypotheses per scene with mutually distant endpoints:
    the trajectories and logits at nms_indices."""
    keep = nms_indices(trajectories, logits, config)
    rows = np.arange(keep.shape[0])[:, None]
    return trajectories[rows, keep], logits[rows, keep]


def _accept(endpoints: np.ndarray, config: NMSConfig) -> np.ndarray:
    """The (K, B) greedy acceptance mask of (K, B, 2) endpoints, rank first."""
    n_heads, batch = endpoints.shape[:2]
    accepted = np.zeros((n_heads, batch), dtype=bool)
    count = np.zeros(batch, dtype=np.intp)
    for rank in range(n_heads):
        clear = count < config.k_out
        for earlier in range(rank):
            diff = endpoints[rank] - endpoints[earlier]
            dist = diff[:, None, :] @ diff[:, :, None]
            far = np.sqrt(dist, out=dist)[:, 0, 0] >= config.radius
            clear &= far | ~accepted[earlier]
        accepted[rank] = clear
        count += clear
        if np.all(count >= config.k_out):
            break
    return accepted
