"""Point cloud mixup: blend two clouds by sampling points from each.

A mix coefficient is drawn from Beta(alpha, beta); round(coeff * n) points
are sampled without replacement from the first cloud and the rest from the
second. For classification the label is the matching convex combination of
one-hot vectors; for segmentation every sampled point keeps its own label.
The label coefficient uses the realized point fraction so geometry and label
always agree exactly after rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import LabeledCloud, SegLabeledCloud, as_rng, check_cloud
from .errors import DataFormatError


@dataclass
class MixedSample:
    """Mixup output: blended cloud plus either a soft class label
    (classification) or per-point labels (segmentation)."""

    points: np.ndarray
    gamma: float
    soft_label: np.ndarray | None = None
    point_labels: np.ndarray | None = None


def _mix(a_points, b_points, alpha: float, beta: float, seed, gamma):
    """(mixed points, indices drawn from a, indices drawn from b, realized
    fraction of a) for two clouds of equal size: the coefficient is drawn
    from Beta(alpha, beta) unless `gamma` forces it, then the a and b
    indices, in that order, from one generator."""
    pa = check_cloud(a_points)
    pb = check_cloud(b_points)
    n = len(pa)
    if len(pb) != n:
        raise DataFormatError(f"cloud sizes differ ({n} vs {len(pb)})")
    rng = as_rng(seed)
    g = rng.beta(alpha, beta) if gamma is None else float(gamma)
    if not 0.0 <= g <= 1.0:
        raise DataFormatError("mix coefficient must lie in [0, 1]")
    m = int(round(g * n))
    idx_a = rng.choice(n, size=m, replace=False)
    idx_b = rng.choice(n, size=n - m, replace=False)
    return np.concatenate([pa[idx_a], pb[idx_b]], axis=0), idx_a, idx_b, m / n


def mixup_classify(
    a: LabeledCloud,
    b: LabeledCloud,
    num_classes: int,
    alpha: float = 1.0,
    beta: float = 1.0,
    seed=None,
    gamma: float | None = None,
) -> MixedSample:
    """Mix two labeled clouds of equal size into one with a soft label.

    `gamma` forces the mix coefficient instead of drawing it (used by tests
    and the degenerate all-a / all-b cases).
    """
    if not (0 <= a.label < num_classes and 0 <= b.label < num_classes):
        raise DataFormatError("labels out of range for num_classes")
    points, _, _, realized = _mix(a.points, b.points, alpha, beta, seed, gamma)
    label = np.zeros(num_classes)
    label[a.label] += realized
    label[b.label] += 1.0 - realized
    return MixedSample(points=points, gamma=realized, soft_label=label)


def mixup_segment(
    a: SegLabeledCloud,
    b: SegLabeledCloud,
    alpha: float = 1.0,
    beta: float = 1.0,
    seed=None,
    gamma: float | None = None,
) -> MixedSample:
    """Mix two per-point-labeled clouds; each sampled point migrates with
    its own label."""
    points, idx_a, idx_b, realized = _mix(a.points, b.points, alpha, beta, seed, gamma)
    labels = np.concatenate([a.labels[idx_a], b.labels[idx_b]])
    return MixedSample(points=points, gamma=realized, point_labels=labels)
