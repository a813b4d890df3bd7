"""Core point cloud types and geometry operations.

A point cloud is represented throughout the toolkit as a plain numpy array
of shape (n, 3). Labeled variants are small dataclasses wrapping such an
array. All randomized operations take an explicit seed or Generator and are
deterministic given it.

Importing this module loads numpy only. scipy.spatial, for the k-d tree, is
imported when the first NeighborIndex is built: by plane-fit normals (the
lambertian scheme of `pcda deform`, `pcda train` and `pcda gen-bench
--scheme`) and by chamfer_distance (`pcda selftest`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

FPS_BLOCK = 1 << 14  # points per block of farthest_point_sample


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_cloud(points) -> np.ndarray:
    """Validate and return a point cloud as a float64 (n, 3) array.

    Raises DataFormatError if the array is empty, has the wrong shape, or
    contains non-finite coordinates.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataFormatError(f"expected (n, 3) point array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise DataFormatError("point cloud must contain at least one point")
    if not np.isfinite(pts).all():
        raise DataFormatError("point cloud contains non-finite coordinates")
    return pts


@dataclass
class LabeledCloud:
    """A point cloud with a single class label."""

    points: np.ndarray
    label: int


@dataclass
class SegLabeledCloud:
    """A point cloud with one class label per point."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (len(self.points),):
            raise DataFormatError(
                f"per-point labels have shape {self.labels.shape}, "
                f"expected ({len(self.points)},)"
            )


def normalize_unit_cube(points: np.ndarray) -> np.ndarray:
    """Center a cloud on its bounding-box center and scale it into the unit cube.

    The cloud is translated so the bounding-box center sits at the origin and
    scaled uniformly so the largest bounding-box extent equals 1; the aspect
    ratio is preserved and all coordinates end up in [-0.5, 0.5]; the result
    is clamped to that cube because rounding can land one ulp outside it. A
    degenerate cloud (all points identical) is only centered.
    """
    pts = check_cloud(points)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    extent = float((hi - lo).max())
    if extent == 0.0:
        return pts - center
    return np.clip((pts - center) / extent, -0.5, 0.5)


def farthest_point_sample(clouds, m: int, seeds) -> list:
    """Greedy subsampling of m indices per cloud maximizing minimum pairwise
    distance.

    `clouds` is a sequence of (n_i, 3) clouds, whose sizes may differ, and
    `seeds` holds one seed per cloud. Each cloud's first index is drawn as
    `as_rng(seed).integers(n_i)`; each subsequent index maximizes the squared
    distance (dx² + dy²) + dz² to the nearest already-selected point, ties
    broken by lowest index. Returns one int64 index array of length m per
    cloud.

    The clouds are sampled together in blocks of about FPS_BLOCK points, one
    set of NumPy calls per greedy step and block; every pick is bitwise the
    one a greedy loop over each cloud alone makes.
    """
    clouds = [check_cloud(c) for c in clouds]
    if len(seeds) != len(clouds):
        raise DataFormatError(f"{len(seeds)} seeds for {len(clouds)} clouds")
    sizes = [len(c) for c in clouds]
    for n in sizes:
        if not 1 <= m <= n:
            raise DataFormatError(f"sample size exceeds cloud size ({m} > {n})")
    firsts = [as_rng(s).integers(n) for s, n in zip(seeds, sizes)]
    out = []
    per_block = max(1, FPS_BLOCK // max(sizes, default=1))
    for start in range(0, len(clouds), per_block):
        block = clouds[start : start + per_block]
        out.extend(_fps_block(block, m, firsts[start : start + per_block]))
    return out


def _fps_block(clouds, m, firsts):
    """Greedy FPS of a block of clouds laid out as contiguous (C, n) x, y and
    z rows; a short cloud is padded with its first point and its padding
    never wins, because its distance stays -inf."""
    C, n = len(clouds), max(len(c) for c in clouds)
    cols = np.empty((3, C, n))
    for c, pts in enumerate(clouds):
        cols[:, c, : len(pts)] = pts.T
        cols[:, c, len(pts) :] = pts[0][:, None]
    rows = np.arange(C)
    selected = np.empty((C, m), dtype=np.int64)
    selected[:, 0] = firsts
    d = np.empty_like(cols)

    def sq_dist(picks):
        # (dx² + dy²) + dz², the order of ((pts - pts[i]) ** 2).sum(axis=1)
        np.subtract(cols, cols[:, rows, picks][:, :, None], out=d)
        np.multiply(d, d, out=d)
        d[0] += d[1]
        d[0] += d[2]
        return d[0]

    # squared distances to the nearest selected point so far
    best = sq_dist(selected[:, 0]).copy()
    for c, pts in enumerate(clouds):
        best[c, len(pts) :] = -np.inf
    for i in range(1, m):
        picks = best.argmax(axis=1)  # argmax takes the lowest index on ties
        selected[:, i] = picks
        np.minimum(best, sq_dist(picks), out=best)
    return list(selected)


def rotate_z(points: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a cloud about the z-axis by `angle` radians."""
    pts = check_cloud(points)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return pts @ rot.T


def jitter(points: np.ndarray, sigma: float = 0.01, clip: float = 0.02, seed=None) -> np.ndarray:
    """Add i.i.d. Gaussian noise per coordinate, clamped to [-clip, clip]."""
    pts = check_cloud(points)
    if sigma < 0 or clip < 0:
        raise DataFormatError("jitter sigma and clip must be non-negative")
    if sigma == 0.0:
        return pts.copy()
    noise = as_rng(seed).normal(0.0, sigma, size=pts.shape)
    np.clip(noise, -clip, clip, out=noise)
    return pts + noise


class NeighborIndex:
    """Immutable spatial index over a fixed cloud for exact kNN/radius queries.

    Backed by a k-d tree; results match brute-force search exactly. Safe to
    share across threads once built.
    """

    def __init__(self, points: np.ndarray):
        from scipy.spatial import cKDTree

        self.points = check_cloud(points)
        self._tree = cKDTree(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def knn(self, query, k: int) -> np.ndarray:
        """Indices of the k nearest points to each query point.

        Returns shape (k,) for a single query point or (q, k) for a batch,
        ordered by increasing distance with ties broken by lowest index.
        """
        if not 1 <= k <= len(self):
            raise DataFormatError(f"k={k} out of range for index of size {len(self)}")
        q = np.atleast_2d(np.asarray(query, dtype=np.float64))
        dist, idx = self._tree.query(q, k=k)
        dist = dist.reshape(len(q), k)
        idx = idx.reshape(len(q), k)
        # re-sort (distance, index) so equal distances come out lowest-index first
        order = np.lexsort((idx, dist), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        if np.asarray(query).ndim == 1:
            return idx[0]
        return idx

    def radius(self, center, r: float) -> np.ndarray:
        """Sorted indices of all points within Euclidean distance r of center."""
        if r < 0:
            raise DataFormatError("radius must be non-negative")
        idx = self._tree.query_ball_point(np.asarray(center, dtype=np.float64), r)
        return np.sort(np.asarray(idx, dtype=np.int64))

    def nearest_dist_sq(self, query) -> np.ndarray:
        """Squared distance from each query point to its nearest indexed point."""
        q = np.atleast_2d(np.asarray(query, dtype=np.float64))
        dist, _ = self._tree.query(q, k=1)
        return np.asarray(dist, dtype=np.float64).ravel() ** 2


def estimate_normals(points: np.ndarray, k: int = 10) -> np.ndarray:
    """Per-point unit normals from a local plane fit.

    Each normal is the eigenvector of the smallest eigenvalue of the
    covariance of the point's k nearest neighbors (the point itself
    included). Normals are flipped to point away from the cloud centroid;
    when the orientation test is exactly zero the computed sign is kept.
    """
    pts = check_cloud(points)
    n = len(pts)
    if k < 3:
        raise DataFormatError("insufficient neighbors for plane fit (k >= 3 required)")
    if k > n:
        raise DataFormatError(f"k={k} exceeds cloud size {n}")
    neigh = NeighborIndex(pts).knn(pts, k)  # (n, k)
    groups = pts[neigh]  # (n, k, 3)
    centered = groups - groups.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    # eigh returns eigenvalues ascending; smallest-eigenvalue vector is column 0
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    outward = np.einsum("ni,ni->n", normals, pts - pts.mean(axis=0))
    normals[outward < 0] *= -1.0
    return normals
