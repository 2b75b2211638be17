"""Distance metrics for multi-hypothesis trajectory forecasts.

All distances are plain (unsquared) Euclidean norms in meters, unlike the
squared per-step costs used for training. Aggregates over a dataset are
summed with math.fsum so the results do not depend on accumulation order.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ._files import csv_header, csv_text, write_text_atomic
# featurize is not called here; perfbench/test_perfbench.py patches this binding.
from .datagen import featurize  # noqa: F401
from .errors import ConfigurationError, InputError
from .losses import squared_distance, stable_softmax
from .network import ModelParams, forward_batch
from .postselect import NMSConfig, nms_indices

MISS_THRESHOLD = 2.0

EFFECTIVE_TAU = 0.01


def _scene_metrics(
    trajectories: np.ndarray,
    targets: np.ndarray,
    scores: np.ndarray,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-scene metrics of a batch of hypothesis sets.

    Args:
        trajectories: (B, K, L, 2) candidate trajectories.
        targets: (B, L, 2) ground truth.
        scores: (B, H) confidence scores of the evaluated hypotheses.
        keep: (B, H) indices into the K candidates of each scene, the
            hypotheses to evaluate in order; by default all K, so H = K.

    Returns:
        (minADE, minFDE, minFDE winner, Brier-FDE), each of shape (B,).
        minADE is the lowest mean per-step distance over the hypotheses.
        The minFDE winner is the position of the closest endpoint, ties to
        the lowest. Brier-FDE is minFDE + (1 - delta)^2 with delta the
        winner's score, penalizing low confidence on the best hypothesis.

    The hypotheses are scored one at a time into (B, H) columns, so the
    scratch is one hypothesis's (B, L, 2) offsets and their distances; the
    inputs are not written. Each hypothesis's distances are summed over a
    contiguous last axis of length L, as np.mean over a (B, H, L) array
    sums them, so every value has the bits of scoring all at once.
    """
    batch, n_hyp = scores.shape
    horizon = targets.shape[1]
    rows = np.arange(batch)
    ade = np.empty((batch, n_hyp))
    fde = np.empty((batch, n_hyp))
    for j in range(n_hyp):
        if keep is None:
            offsets = trajectories[:, j] - targets
        else:
            offsets = trajectories[rows, keep[:, j]]
            offsets -= targets
        dists = squared_distance(offsets)
        np.sqrt(dists, out=dists)
        fde[:, j] = dists[:, -1]
        ade[:, j] = dists.sum(axis=1)
    # A sum then a division in place gives the bits of np.mean.
    ade /= horizon
    winners = fde.argmin(axis=1)
    scene_min_fde = fde[rows, winners]
    scene_brier = scene_min_fde + (1.0 - scores[rows, winners]) ** 2
    # Gathering at argmin gives the bits of ade.min(axis=1) at about half
    # the cost of the reduction over so short an axis.
    return ade[rows, ade.argmin(axis=1)], scene_min_fde, winners, scene_brier


def miss_rate(final_errors: Sequence[float]) -> float:
    """Fraction of scenes whose best final error strictly exceeds MISS_THRESHOLD."""
    errors = np.asarray(final_errors, dtype=float)
    if errors.ndim != 1 or errors.size < 1:
        raise InputError("final_errors must be a non-empty 1-d sequence")
    return float(np.count_nonzero(errors > MISS_THRESHOLD)) / errors.size


def effective_hypotheses(histogram: Sequence[int]) -> int:
    """Number of heads that win at least an EFFECTIVE_TAU fraction
    (inclusive) of the scenes, given the per-head counts of minFDE wins over
    a dataset."""
    counts = np.asarray(histogram, dtype=float)
    if counts.ndim != 1 or counts.size < 1:
        raise InputError("histogram must be a non-empty 1-d sequence")
    if np.any(counts < 0):
        raise InputError("histogram counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise InputError("histogram must contain at least one win")
    return int(np.count_nonzero(counts / total >= EFFECTIVE_TAU))


@dataclasses.dataclass
class MetricsReport:
    """Dataset-level evaluation summary."""

    n_scenes: int
    min_ade: float
    min_fde: float
    miss_rate: float
    brier_fde: float
    effective_hypotheses: int
    winner_histogram: list[int]

    def to_csv(self) -> str:
        return csv_text(REPORT_COLUMNS, [dataclasses.astuple(self)])


REPORT_COLUMNS = csv_header(MetricsReport)


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    write_text_atomic(path, report.to_csv())


def evaluate(
    params: ModelParams,
    features: np.ndarray,
    targets: np.ndarray,
    nms: NMSConfig | None = None,
) -> MetricsReport:
    """Run the model over a featurized split and aggregate the metrics.

    features (N, D) and targets (N, L, 2) are a split as datagen builds
    it (generate_split or load_split). The predictions optionally pass
    through endpoint suppression (nms) before scoring. The histogram
    counts minFDE winners by their position in the evaluated hypothesis set.
    """
    if len(features) == 0:
        raise InputError("cannot evaluate on an empty dataset")
    if targets.shape[1] != params.horizon:
        raise ConfigurationError(
            f"dataset horizon {targets.shape[1]} does not match model horizon"
            f" {params.horizon}"
        )
    expected = (len(features), params.horizon, 2)
    if targets.shape != expected:
        raise InputError(f"targets must be {expected}, got {targets.shape}")
    # Only the outputs are kept: holding the hidden activations through the
    # scoring below would raise the peak memory of every validation pass.
    trajectories, logits = forward_batch(params, features)[:2]
    # Post-selection picks head indices; only the (B, H) logits are
    # gathered, and _scene_metrics gathers one kept hypothesis at a time.
    keep = None
    if nms is not None:
        keep = nms_indices(trajectories, logits, nms)
        logits = np.take_along_axis(logits, keep, axis=1)
    scores = stable_softmax(logits)
    scene_min_ade, scene_min_fde, winners, scene_brier = _scene_metrics(
        trajectories, targets, scores, keep
    )
    n_scenes = len(winners)
    histogram = np.bincount(winners, minlength=scores.shape[1]).tolist()

    return MetricsReport(
        n_scenes=n_scenes,
        min_ade=math.fsum(scene_min_ade.tolist()) / n_scenes,
        min_fde=math.fsum(scene_min_fde.tolist()) / n_scenes,
        miss_rate=miss_rate(scene_min_fde),
        brier_fde=math.fsum(scene_brier.tolist()) / n_scenes,
        effective_hypotheses=effective_hypotheses(histogram),
        winner_histogram=histogram,
    )
