"""Core geometry ops: validation, normalization, FPS, rotation, jitter, kNN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcda import cloud
from pcda.cloud import (
    NeighborIndex,
    check_cloud,
    estimate_normals,
    farthest_point_sample,
    jitter,
    normalize_unit_cube,
    rotate_z,
)
from pcda.errors import DataFormatError

from conftest import greedy_fps, make_cloud


class TestCheckCloud:
    def test_accepts_and_casts(self):
        out = check_cloud([[0, 0, 0], [1, 2, 3]])
        assert out.dtype == np.float64
        assert out.shape == (2, 3)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((0, 3)), np.zeros((4, 2)), np.zeros(3), [[0, 0, np.nan]], [[0, 0, np.inf]]],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DataFormatError):
            check_cloud(bad)


class TestNormalizeUnitCube:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 64))
    def test_bounding_box_properties(self, seed, n):
        pts = make_cloud(seed, n, scale=3.0) + 7.0
        out = normalize_unit_cube(pts)
        lo, hi = out.min(axis=0), out.max(axis=0)
        # bounding box centered on the origin, largest extent exactly 1
        assert np.allclose((lo + hi) / 2, 0.0, atol=1e-12)
        assert np.isclose((hi - lo).max(), 1.0)
        assert (np.abs(out) <= 0.5 + 1e-12).all()

    def test_aspect_ratio_preserved(self):
        pts = np.array([[0.0, 0, 0], [4.0, 1.0, 0.5]])
        out = normalize_unit_cube(pts)
        span = out.max(axis=0) - out.min(axis=0)
        assert np.allclose(span, [1.0, 0.25, 0.125])

    def test_degenerate_cloud_is_centered_only(self):
        pts = np.full((5, 3), 2.0)
        out = normalize_unit_cube(pts)
        assert np.allclose(out, 0.0)


class TestFarthestPointSample:
    def test_exact_selection_on_line(self):
        # 0, 1, 10 on a line, forced start at index 0: the farthest point is
        # 10, then 1
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        # seed chosen so the first draw is index 0
        for seed in range(50):
            if np.random.default_rng(seed).integers(3) == 0:
                break
        [idx] = farthest_point_sample([pts], 3, [seed])
        assert list(idx) == [0, 2, 1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 48), frac=st.floats(0.1, 1.0))
    def test_indices_valid_and_unique(self, seed, n, frac):
        pts = make_cloud(seed, n)
        m = max(1, int(frac * n))
        [idx] = farthest_point_sample([pts], m, [seed])
        assert idx.dtype == np.int64
        assert len(idx) == m
        assert len(np.unique(idx)) == m
        assert idx.min() >= 0 and idx.max() < n

    def test_greedy_min_distance_monotone(self):
        # each newly added point's distance to the chosen set never increases
        pts = make_cloud(3, 64)
        [idx] = farthest_point_sample([pts], 20, [1])
        dists = []
        for i in range(1, len(idx)):
            chosen = pts[idx[:i]]
            d = np.sqrt(((pts[idx[i]] - chosen) ** 2).sum(axis=1).min())
            dists.append(d)
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_matches_reference_greedy_with_ties(self, monkeypatch):
        # bitwise the same picks as the plain greedy loop, on a grid full of
        # distance ties: one cloud alone, then a ragged batch over several
        # blocks, with a cloud of exactly m points
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
        pts = np.concatenate([grid, make_cloud(5, 30)])
        for seed in range(3):
            [idx] = farthest_point_sample([pts], 40, [seed])
            first = np.random.default_rng(seed).integers(len(pts))
            assert list(idx) == greedy_fps(pts, first, 40)
        # the extra points lie on a 0.6 lattice over the grid, where the order
        # of the squared-distance sum changes some clouds' picks
        rng = np.random.default_rng(11)
        clouds = [np.concatenate([grid, rng.integers(0, 6, size=(rng.integers(0, 61), 3)) * 0.6])
                  for _ in range(39)]
        clouds.insert(17, make_cloud(7, 40))
        monkeypatch.setattr(cloud, "FPS_BLOCK", 300)  # two clouds a block
        seeds = list(range(len(clouds)))
        picks = farthest_point_sample(clouds, 40, seeds)
        assert len(picks) == len(clouds)
        for c, seed, idx in zip(clouds, seeds, picks):
            first = np.random.default_rng(seed).integers(len(c))
            assert list(idx) == greedy_fps(c, first, 40)

    def test_oversample_rejected(self):
        with pytest.raises(DataFormatError):
            farthest_point_sample([make_cloud(0, 4)], 5, [0])

    @pytest.mark.parametrize(
        "clouds, seeds",
        [
            ([make_cloud(0, 9), make_cloud(1, 4)], [0, 1]),  # m above the smallest cloud
            ([make_cloud(0, 9), make_cloud(1, 9)], [0]),  # one seed too few
            ([make_cloud(0, 9), np.vstack([make_cloud(1, 8), [0.0, np.inf, 0.0]])], [0, 1]),
        ],
        ids=["m-above-smallest", "seed-count", "non-finite"],
    )
    def test_bad_batch_rejected(self, clouds, seeds):
        with pytest.raises(DataFormatError):
            farthest_point_sample(clouds, 5, seeds)


class TestRotateJitter:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(-10, 10))
    def test_rotation_preserves_norms_and_z(self, seed, angle):
        pts = make_cloud(seed, 16)
        out = rotate_z(pts, angle)
        assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(pts, axis=1))
        assert np.allclose(out[:, 2], pts[:, 2])

    def test_quarter_turn(self):
        out = rotate_z(np.array([[1.0, 0, 0]]), np.pi / 2)
        assert np.allclose(out, [[0, 1, 0]], atol=1e-12)

    def test_jitter_bounded_and_seeded(self):
        pts = make_cloud(0, 32)
        a = jitter(pts, sigma=0.5, clip=0.03, seed=7)
        b = jitter(pts, sigma=0.5, clip=0.03, seed=7)
        assert np.array_equal(a, b)
        assert np.abs(a - pts).max() <= 0.03 + 1e-15

    def test_zero_sigma_is_identity_copy(self):
        pts = make_cloud(0, 8)
        out = jitter(pts, sigma=0.0, seed=0)
        assert np.array_equal(out, pts)
        assert out is not pts


class TestNeighborIndex:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), k=st.integers(1, 5))
    def test_knn_matches_brute_force(self, seed, n, k):
        k = min(k, n)
        pts = make_cloud(seed, n)
        idx = NeighborIndex(pts).knn(pts, k)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        brute = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(idx, brute)

    def test_radius_query_matches_brute_force(self):
        pts = make_cloud(5, 50)
        center = np.zeros(3)
        got = NeighborIndex(pts).radius(center, 1.0)
        want = np.flatnonzero((pts**2).sum(axis=1) <= 1.0)
        assert np.array_equal(got, want)

    def test_single_query_shape(self):
        pts = make_cloud(1, 10)
        assert NeighborIndex(pts).knn(pts[0], 3).shape == (3,)


class TestEstimateNormals:
    def test_plane_recovers_axis(self):
        rng = np.random.default_rng(0)
        pts = np.zeros((40, 3))
        pts[:, :2] = rng.uniform(-1, 1, size=(40, 2))
        normals = estimate_normals(pts, k=8)
        assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_sphere_normals_point_outward(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(200, 3))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        normals = estimate_normals(pts, k=10)
        agree = np.einsum("ni,ni->n", normals, pts)
        assert (agree > 0.8).mean() > 0.95

    def test_too_few_neighbors_rejected(self):
        with pytest.raises(DataFormatError):
            estimate_normals(make_cloud(0, 10), k=2)
