"""Region deformations for the reconstruction pretext task.

Each deformation selects a subset of points (the region) and replaces them
with draws from an isotropic Gaussian around a region center, producing a
(deformed, original, region) training pair. Three families exist:

* volume: region by proximity in input space (voxel grid or sphere),
* feature: region by proximity in a per-point embedding space,
* sample: region by a stochastic visibility-style sampling scheme
  (half-space split, axis-aligned density ramp, or normal-vs-view-direction
  weighting).

A mixed mode draws one of the three families uniformly per call and applies
its variant (voxel, feature or split) with the spec's own parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud import as_rng, check_cloud, estimate_normals
from .errors import DataFormatError, NumericalError
from .network import ENCODER_WIDTHS

SAMPLE_SCHEMES = ("split", "gradient", "lambertian")
KINDS = ("voxel", "sphere", "feature", "split", "gradient", "lambertian", "mixed")
FAMILIES = ("volume", "feature", "sample")
MIXED_KINDS = {"volume": "voxel", "feature": "feature", "sample": "split"}
FEATURE_KINDS = ("feature", "mixed")  # kinds that select by encoder features
NORMALS_K = 10  # plane-fit neighborhood when normals are estimated

# retry budget when a stochastic scheme selects nothing
_MAX_RETRIES = 16


@dataclass
class DeformSpec:
    """Configuration of a deformation variant.

    kind is one of "voxel", "sphere", "feature", "split", "gradient",
    "lambertian", or "mixed". Unused fields are ignored by kinds that do not
    need them. "mixed" draws voxel, feature or split per call and applies it
    with this spec's k, layer, k_pts, relocate_sigma and sample_cap_fraction.
    """

    kind: str = "voxel"
    k: int = 3  # voxel grid resolution per axis
    radius: float = 0.2  # sphere radius
    layer: int = 3  # encoder layer (1-5) for feature-space proximity
    k_pts: int = 200  # region size for feature-space selection
    relocate_sigma: float = 0.05
    sample_cap_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataFormatError(f"unknown deformation kind {self.kind!r}")
        if self.kind in ("voxel", "mixed") and self.k < 1:
            raise DataFormatError("voxel grid resolution must be >= 1")
        if self.kind == "sphere" and not self.radius > 0:
            raise DataFormatError("sphere radius must be positive")
        if self.kind in FEATURE_KINDS and self.k_pts < 1:
            raise DataFormatError("feature region size must be >= 1")
        if self.kind in FEATURE_KINDS and not 1 <= self.layer <= len(ENCODER_WIDTHS):
            raise DataFormatError(f"feature layer must be in 1..{len(ENCODER_WIDTHS)}")
        if not 0 < self.sample_cap_fraction <= 1:
            raise DataFormatError("sample_cap_fraction must be in (0, 1]")
        if not (self.relocate_sigma >= 0 and math.isfinite(self.relocate_sigma)):
            raise DataFormatError("relocate_sigma must be non-negative and finite")


@dataclass
class DeformedPair:
    """A deformed cloud, its original, the deformed index set, and the
    Gaussian center the region was relocated to."""

    deformed: np.ndarray
    original: np.ndarray
    region: np.ndarray
    region_center: np.ndarray
    kind: str = ""


def _relocate(points, region, center, sigma, rng):
    deformed = points.copy()
    deformed[region] = center + rng.normal(0.0, sigma, size=(len(region), 3))
    return deformed


def deform_voxel(points, k: int = 3, relocate_sigma: float = 0.05, seed=None) -> DeformedPair:
    """Replace one random non-empty cell of a k^3 voxel grid over the
    bounding box with Gaussian samples around the cell center.

    Empty cells are excluded from the draw so the region is never empty.
    """
    pts = check_cloud(points)
    rng = as_rng(seed)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(span > 0, (pts - lo) / span, 0.0)
    cells = np.minimum((rel * k).astype(np.int64), k - 1)
    flat = cells[:, 0] * k * k + cells[:, 1] * k + cells[:, 2]
    occupied = np.unique(flat)
    chosen = occupied[rng.integers(len(occupied))]
    region = np.flatnonzero(flat == chosen)
    ijk = np.array([chosen // (k * k), (chosen // k) % k, chosen % k])
    center = lo + (ijk + 0.5) / k * span
    return DeformedPair(
        deformed=_relocate(pts, region, center, relocate_sigma, rng),
        original=pts,
        region=region,
        region_center=center,
        kind="voxel",
    )


def deform_sphere(points, radius: float = 0.2, relocate_sigma: float = 0.05, seed=None) -> DeformedPair:
    """Replace all points within a fixed radius of a random data point with
    Gaussian samples around that point."""
    pts = check_cloud(points)
    if not radius > 0:
        raise DataFormatError("sphere radius must be positive")
    rng = as_rng(seed)
    center = pts[rng.integers(len(pts))].copy()
    d2 = ((pts - center) ** 2).sum(axis=1)
    region = np.flatnonzero(d2 <= radius * radius)
    return DeformedPair(
        deformed=_relocate(pts, region, center, relocate_sigma, rng),
        original=pts,
        region=region,
        region_center=center,
        kind="sphere",
    )


def deform_feature_knn(points, features, k_pts: int, relocate_sigma: float = 0.05, seed=None) -> DeformedPair:
    """Replace a random point and its k_pts-1 nearest neighbors in feature
    space with Gaussian samples around the origin.

    The region has exactly k_pts points (the seed point counts). Feature
    distance ties resolve to the lowest index.
    """
    pts = check_cloud(points)
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or len(feats) != len(pts):
        raise DataFormatError(
            f"features shape {feats.shape} does not match cloud of {len(pts)} points"
        )
    if not 1 <= k_pts < len(pts):
        raise DataFormatError(f"k_pts={k_pts} must be in [1, n) for n={len(pts)}")
    rng = as_rng(seed)
    anchor = int(rng.integers(len(pts)))
    d2 = ((feats - feats[anchor]) ** 2).sum(axis=1)
    d2[anchor] = -1.0  # anchor always first
    region = np.sort(np.argsort(d2, kind="stable")[:k_pts])
    origin = np.zeros(3)
    return DeformedPair(
        deformed=_relocate(pts, region, origin, relocate_sigma, rng),
        original=pts,
        region=region,
        region_center=origin,
        kind="feature",
    )


def _select_split(pts, rng):
    # hyperplane anchored at the centroid, pushed along a random unit normal
    # by a Beta(2, 5) fraction of the positive projection range; the smaller
    # side is taken fully, the larger side thinned with one uniform rate
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    proj = (pts - pts.mean(axis=0)) @ direction
    cutoff = rng.beta(2.0, 5.0) * max(proj.max(), 0.0)
    above = proj > cutoff
    if above.sum() <= (~above).sum():
        small, large = above, ~above
    else:
        small, large = ~above, above
    keep_rate = rng.uniform()
    take = small | (large & (rng.uniform(size=len(pts)) < keep_rate))
    return np.flatnonzero(take)


def _select_gradient(pts, rng):
    # selection probability ramps linearly along the largest bounding-box
    # axis, from 0 at the low end to a uniformly drawn peak at the high end
    span = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(span))
    coord = pts[:, axis]
    lo, hi = coord.min(), coord.max()
    ramp = (coord - lo) / (hi - lo) if hi > lo else np.ones(len(pts))
    peak = rng.uniform()
    return np.flatnonzero(rng.uniform(size=len(pts)) < peak * ramp)


def _select_lambertian(pts, rng, normals):
    # visibility weighting: clamped inner product of the surface normal with
    # a random view direction, scaled so the most exposed point has rate 1
    view = rng.normal(size=3)
    view /= np.linalg.norm(view)
    weight = np.maximum(normals @ view, 0.0)
    top = weight.max()
    if top == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(rng.uniform(size=len(pts)) < weight / top)


def sample_region(
    points,
    scheme: str,
    seed=None,
    cap_fraction: float = 0.5,
    normals=None,
) -> np.ndarray:
    """Indices drawn by one of the stochastic sampling schemes.

    Schemes: "split" takes one side of a random hyperplane plus a thinned
    share of the other, "gradient" samples along a linear density ramp on the
    largest axis, "lambertian" weights by clamped normal/view-direction
    alignment (normals estimated from the cloud when not supplied). The
    result is capped at ceil(cap_fraction * n) indices by uniform
    subsampling; empty draws are retried up to 16 times.
    """
    pts = check_cloud(points)
    if scheme not in SAMPLE_SCHEMES:
        raise DataFormatError(f"unknown sampling scheme {scheme!r}")
    if not 0 < cap_fraction <= 1:
        raise DataFormatError("cap_fraction must be in (0, 1]")
    rng = as_rng(seed)
    if scheme == "lambertian":
        if normals is None:
            normals = estimate_normals(pts, k=min(NORMALS_K, len(pts)))
        else:
            normals = np.asarray(normals, dtype=np.float64)
            if normals.shape != pts.shape:
                raise DataFormatError("normals shape must match cloud shape")

    cap = int(np.ceil(cap_fraction * len(pts)))
    region = np.empty(0, dtype=np.int64)
    for _ in range(_MAX_RETRIES):
        if scheme == "split":
            region = _select_split(pts, rng)
        elif scheme == "gradient":
            region = _select_gradient(pts, rng)
        else:
            region = _select_lambertian(pts, rng, normals)
        if len(region) > 0:
            break
    else:
        raise NumericalError(f"degenerate sampling: {scheme} selected no points")
    if len(region) > cap:
        region = np.sort(rng.choice(region, size=cap, replace=False))
    return region


def deform_sample(
    points,
    scheme: str,
    sample_cap_fraction: float = 0.5,
    relocate_sigma: float = 0.05,
    seed=None,
    normals=None,
) -> DeformedPair:
    """Select points by a stochastic sampling scheme (see sample_region) and
    relocate them to Gaussian samples around the origin."""
    pts = check_cloud(points)
    rng = as_rng(seed)
    region = sample_region(
        pts,
        scheme,
        seed=rng,
        cap_fraction=sample_cap_fraction,
        normals=normals,
    )
    origin = np.zeros(3)
    return DeformedPair(
        deformed=_relocate(pts, region, origin, relocate_sigma, rng),
        original=pts,
        region=region,
        region_center=origin,
        kind=scheme,
    )


def pick_mixed_family(seed=None) -> str:
    """Draw one of the three deformation families with probability 1/3 each."""
    return FAMILIES[as_rng(seed).integers(3)]


def apply_deformation(points, spec: DeformSpec, seed=None, features=None, normals=None) -> DeformedPair:
    """Apply the deformation described by `spec` to a cloud.

    `features` supplies the per-point embedding for feature-space selection;
    when absent the raw coordinates are used as the feature space. For the
    mixed kind, one family is drawn uniformly and its variant applied with
    the spec's own parameters.
    """
    pts = check_cloud(points)
    rng = as_rng(seed)
    if spec.kind == "mixed":
        spec = replace(spec, kind=MIXED_KINDS[pick_mixed_family(rng)])
    if spec.kind == "voxel":
        return deform_voxel(pts, k=spec.k, relocate_sigma=spec.relocate_sigma, seed=rng)
    if spec.kind == "sphere":
        return deform_sphere(pts, radius=spec.radius, relocate_sigma=spec.relocate_sigma, seed=rng)
    if spec.kind == "feature":
        feats = pts if features is None else features
        return deform_feature_knn(
            pts, feats, k_pts=spec.k_pts, relocate_sigma=spec.relocate_sigma, seed=rng
        )
    return deform_sample(
        pts,
        scheme=spec.kind,
        sample_cap_fraction=spec.sample_cap_fraction,
        relocate_sigma=spec.relocate_sigma,
        seed=rng,
        normals=normals,
    )
