"""Symmetric Chamfer distance and its analytic gradient over a point region.

The distance is the sum (not mean) of squared nearest-neighbor distances in
both directions. The region-restricted variant is the reconstruction loss
used in training: it also returns the exact derivative with respect to each
predicted point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import NeighborIndex, check_cloud
from .errors import DataFormatError


@dataclass
class ChamferResult:
    """Loss value plus per-predicted-point gradient (zeros outside the region)."""

    value: float
    grad_pred: np.ndarray


def chamfer_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of squared nearest-neighbor distances from a to b and b to a.

    Accelerated with a spatial index; tests pin it against the quadratic
    brute-force evaluation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise DataFormatError("chamfer undefined for empty set")
    a = check_cloud(a)
    b = check_cloud(b)
    forward = NeighborIndex(b).nearest_dist_sq(a).sum()
    backward = NeighborIndex(a).nearest_dist_sq(b).sum()
    return float(forward + backward)


def check_region(region, n: int) -> np.ndarray:
    """A deformation region as an int64 index array into a cloud of n
    points: non-empty, in range and without repeats, else DataFormatError."""
    region = np.asarray(region, dtype=np.int64)
    if region.ndim != 1:
        raise DataFormatError(f"region must be one index array, got shape {region.shape}")
    if region.size == 0:
        raise DataFormatError("empty deformation region")
    if region.min() < 0 or region.max() >= n:
        raise DataFormatError("region indices out of range")
    if len(np.unique(region)) != len(region):
        raise DataFormatError("region indices must be unique")
    return region


def chamfer_loss_region(
    pred: np.ndarray, target: np.ndarray, region: np.ndarray
) -> ChamferResult:
    """Chamfer distance between target and prediction restricted to a region.

    `pred` is a reconstruction with the same length as `target`; `region`
    indexes the points the loss is computed over. The gradient with respect
    to each selected predicted point collects both directions of the
    distance: the point's own nearest-target match plus every target point
    that selects it as nearest. Nearest-neighbor ties resolve to the lowest
    index so the subgradient is deterministic.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = check_cloud(target)
    if pred.shape != target.shape:
        raise DataFormatError(
            f"pred shape {pred.shape} does not match target shape {target.shape}"
        )
    region = check_region(region, len(target))

    t = target[region]  # (m, 3)
    p = pred[region]  # (m, 3)
    diff = t[:, None, :] - p[None, :, :]  # (m_t, m_p, 3)
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    nearest_pred = np.argmin(d2, axis=1)  # for each target point, lowest-index tie
    nearest_tgt = np.argmin(d2, axis=0)  # for each predicted point

    m = len(region)
    rows = np.arange(m)
    value = float(d2[rows, nearest_pred].sum() + d2[nearest_tgt, rows].sum())

    # d/dp of ||p - t*(p)||^2 plus contributions from targets matched to p
    grad_sel = 2.0 * (p - t[nearest_tgt])
    np.add.at(grad_sel, nearest_pred, 2.0 * (p[nearest_pred] - t))

    grad = np.zeros_like(pred)
    grad[region] = grad_sel
    return ChamferResult(value=value, grad_pred=grad)
