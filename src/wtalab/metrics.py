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

from ._files import csv_field, csv_header, parse_csv_row, read_text, write_text_atomic
# featurize is not called here; perfbench/test_perfbench.py patches this binding.
from .datagen import featurize  # noqa: F401
from .errors import ConfigurationError, InputError
from .losses import squared_distance, stable_softmax
from .network import ModelParams, forward_batch
from .postselect import NMSConfig, nms_select, truncate_top_k

MISS_THRESHOLD = 2.0

EFFECTIVE_TAU = 0.01


def _scene_metrics(
    offsets: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-scene metrics of a batch of hypothesis sets.

    Args:
        offsets: (B, K, L, 2) candidate trajectories minus the ground truth.
        scores: (B, K) confidence scores.

    Returns:
        (minADE, minFDE, minFDE winner, Brier-FDE), each of shape (B,).
        minADE is the lowest mean per-step distance over the heads. The
        minFDE winner is the head with the closest endpoint, ties to the
        lowest index. Brier-FDE is minFDE + (1 - delta)^2 with delta the
        winner's score, penalizing low confidence on the best hypothesis.
    """
    batch, _, horizon, _ = offsets.shape
    dists = squared_distance(offsets)
    np.sqrt(dists, out=dists)
    fde = dists[:, :, -1]
    winners = fde.argmin(axis=1)
    rows = np.arange(batch)
    scene_min_fde = fde[rows, winners]
    scene_brier = scene_min_fde + (1.0 - scores[rows, winners]) ** 2
    # A sum then a division in place gives the bits of np.mean.
    ade = dists.sum(axis=2)
    ade /= horizon
    return ade.min(axis=1), scene_min_fde, winners, scene_brier


def miss_rate(final_errors: Sequence[float], threshold: float = MISS_THRESHOLD) -> float:
    """Fraction of scenes whose best final error strictly exceeds threshold."""
    errors = np.asarray(final_errors, dtype=float)
    if errors.ndim != 1 or errors.size < 1:
        raise InputError("final_errors must be a non-empty 1-d sequence")
    return float(np.count_nonzero(errors > threshold)) / errors.size


def effective_hypotheses(
    histogram: Sequence[int], tau: float = EFFECTIVE_TAU
) -> int:
    """Number of heads that win at least a tau fraction of scenes.

    Args:
        histogram: per-head counts of minFDE wins over a dataset.
        tau: minimum win fraction for a head to count, inclusive.
    """
    counts = np.asarray(histogram, dtype=float)
    if counts.ndim != 1 or counts.size < 1:
        raise InputError("histogram must be a non-empty 1-d sequence")
    if np.any(counts < 0):
        raise InputError("histogram counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise InputError("histogram must contain at least one win")
    return int(np.count_nonzero(counts / total >= tau))


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
        row = ",".join(csv_field(getattr(self, name)) for name in REPORT_COLUMNS)
        return ",".join(REPORT_COLUMNS) + "\n" + row + "\n"


REPORT_COLUMNS = csv_header(MetricsReport)


def write_report_csv(report: MetricsReport, path: str | Path) -> None:
    write_text_atomic(path, report.to_csv())


def read_report_csv(path: str | Path) -> MetricsReport:
    """Read a report written by write_report_csv.

    Raises InputError naming the path unless the file is the header and one
    row of len(REPORT_COLUMNS) fields that parse as their types, with a
    winner histogram of nonnegative counts summing to n_scenes, finite
    distances, a miss rate in [0, 1] and at most one effective hypothesis
    per head of the histogram.
    """
    lines = read_text(path, InputError).splitlines()
    if len(lines) != 2 or lines[0] != ",".join(REPORT_COLUMNS):
        raise InputError(f"{path} is not a metrics report CSV")
    report = parse_csv_row(MetricsReport, lines[1], str(path), InputError)
    histogram = report.winner_histogram
    if min(histogram) < 0 or sum(histogram) != report.n_scenes:
        cell = lines[1].split(",")[REPORT_COLUMNS.index("winner_histogram")]
        raise InputError(
            f"{path}: winner_histogram {cell!r} must hold nonnegative"
            f" counts summing to n_scenes {report.n_scenes}"
        )
    for name in ("min_ade", "min_fde", "brier_fde"):
        distance = getattr(report, name)
        if not math.isfinite(distance):
            raise InputError(f"{path}: {name} must be finite, got {distance}")
    if not 0.0 <= report.miss_rate <= 1.0:
        raise InputError(
            f"{path}: miss_rate must be in [0, 1], got {report.miss_rate}"
        )
    if not 0 <= report.effective_hypotheses <= len(histogram):
        raise InputError(
            f"{path}: effective_hypotheses must be in [0, {len(histogram)}], the"
            f" heads of winner_histogram; got {report.effective_hypotheses}"
        )
    return report


def evaluate(
    params: ModelParams,
    features: np.ndarray,
    targets: np.ndarray,
    top_k: int | None = None,
    nms: NMSConfig | None = None,
) -> MetricsReport:
    """Run the model over a featurized split and aggregate the metrics.

    features (N, D) and targets (N, L, 2) are a split as datagen builds
    it (generate_split or load_split). The predictions optionally pass
    through endpoint suppression (nms) and then truncation to the top_k
    highest-score hypotheses before scoring. The histogram
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
    if nms is not None:
        trajectories, logits = nms_select(trajectories, logits, nms)
    if top_k is not None:
        trajectories, logits = truncate_top_k(trajectories, logits, top_k)
    scores = stable_softmax(logits, axis=1)
    # The predictions are not read again, so their offsets overwrite them:
    # one less array the size of the outputs at the validation peak.
    offsets = np.subtract(trajectories, targets[:, None, :, :], out=trajectories)
    scene_min_ade, scene_min_fde, winners, scene_brier = _scene_metrics(offsets, scores)
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
