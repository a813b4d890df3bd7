"""Synthetic two-domain benchmark: surface samplers, corruption, generation."""

import numpy as np
import pytest

from pcda.errors import DataFormatError
from pcda.synthbench import (
    OVERSAMPLE,
    PRIMITIVES,
    SPLIT_CODES,
    BenchConfig,
    _apportion,
    corrupt_to_target,
    gen_benchmark,
    make_lamp,
    make_primitive,
    sample_box,
    sample_cone,
    sample_cylinder,
    sample_torus,
)

from conftest import greedy_fps


class TestApportion:
    @pytest.mark.parametrize("n", [7, 100, 12])
    def test_sums_exactly(self, n):
        counts = _apportion(n, [1.0, 2.0, 3.0])
        assert counts.sum() == n
        assert (counts >= 0).all()

    def test_proportionality(self):
        counts = _apportion(600, [1.0, 2.0, 3.0])
        assert list(counts) == [100, 200, 300]


class TestSurfaceSamplers:
    def test_box_points_on_surface(self, rng):
        pts = sample_box(rng, 500, 1.0, 0.6, 0.4)
        half = np.array([0.5, 0.3, 0.2])
        inside = np.abs(pts) <= half + 1e-12
        assert inside.all()
        on_face = np.isclose(np.abs(pts), half).any(axis=1)
        assert on_face.all()

    def test_box_face_frequencies_match_areas(self, rng):
        w, h, d = 2.0, 1.0, 0.5
        pts = sample_box(rng, 6000, w, h, d)
        on_x = np.isclose(np.abs(pts[:, 0]), w / 2).mean()
        on_z = np.isclose(np.abs(pts[:, 2]), d / 2).mean()
        total = 2 * (h * d + w * d + w * h)
        assert on_x == pytest.approx(2 * h * d / total, abs=0.03)
        assert on_z == pytest.approx(2 * w * h / total, abs=0.03)

    def test_cylinder_points_on_surface(self, rng):
        r, h = 0.3, 1.0
        pts = sample_cylinder(rng, 500, r, h)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        lateral = np.isclose(rho, r) & (np.abs(pts[:, 2]) <= h / 2 + 1e-12)
        cap = np.isclose(np.abs(pts[:, 2]), h / 2) & (rho <= r + 1e-12)
        assert (lateral | cap).all()

    def test_cylinder_without_caps(self, rng):
        pts = sample_cylinder(rng, 300, 0.3, 1.0, caps=False)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 0.3)

    def test_cone_points_on_surface(self, rng):
        r, h = 0.4, 1.0
        pts = sample_cone(rng, 500, r, h)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        on_base = np.isclose(pts[:, 2], 0.0) & (rho <= r + 1e-12)
        # lateral surface: radius shrinks linearly toward the apex
        on_side = np.isclose(rho / r, 1.0 - pts[:, 2] / h)
        assert (on_base | on_side).all()
        assert pts[:, 2].max() <= h + 1e-12

    def test_cone_without_base(self, rng):
        pts = sample_cone(rng, 300, 0.4, 1.0, base=False)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(rho / 0.4, 1.0 - pts[:, 2] / 1.0)

    def test_torus_points_on_surface(self, rng):
        R, r = 0.5, 0.1
        pts = sample_torus(rng, 500, R, r)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        tube_dist = np.hypot(rho - R, pts[:, 2])
        assert np.allclose(tube_dist, r)

    def test_torus_angle_coverage(self, rng):
        pts = sample_torus(rng, 4000, 0.5, 0.2)
        # outer (phi ~ 0) and inner (phi ~ pi) sides are both populated
        rho = np.hypot(pts[:, 0], pts[:, 1])
        assert (rho > 0.6).any() and (rho < 0.4).any()


class TestMakePrimitive:
    @pytest.mark.parametrize("kind", PRIMITIVES)
    def test_normalized_to_unit_cube(self, kind, rng):
        pts = make_primitive(kind, rng, 200)
        assert pts.shape == (200, 3)
        assert np.abs(pts).max() <= 0.5 + 1e-12
        span = pts.max(axis=0) - pts.min(axis=0)
        assert span.max() == pytest.approx(1.0)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(DataFormatError):
            make_primitive("sphereoid", rng, 50)

    def test_primitive_order(self):
        assert PRIMITIVES == ("cylinder", "cone", "torus", "box")


class TestMakeLamp:
    def test_four_parts_with_counts(self, rng):
        pts, labels = make_lamp(rng, 512)
        assert len(pts) == 512 and len(labels) == 512
        present, counts = np.unique(labels, return_counts=True)
        assert list(present) == [0, 1, 2, 3]
        assert counts.min() >= 12
        assert np.abs(pts).max() <= 0.5 + 1e-12

    def test_parts_are_stacked_vertically(self, rng):
        # before rotation about z the base sits below the top cone; since
        # rotation preserves z just compare mean heights
        pts, labels = make_lamp(rng, 600)
        z = pts[:, 2]
        assert z[labels == 0].mean() < z[labels == 1].mean()
        assert z[labels == 1].mean() < z[labels == 3].mean()

    def test_deterministic_given_rng_state(self):
        a = make_lamp(np.random.default_rng(5), 256)
        b = make_lamp(np.random.default_rng(5), 256)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCorruptToTarget:
    def test_output_resolution_and_normalization(self, rng):
        cfg = BenchConfig()
        pts = make_primitive("cylinder", rng, 512)
        out, labels = corrupt_to_target(pts, cfg, rng)
        assert out.ndim == 2 and out.shape[1] == 3
        assert cfg.n_points <= len(out) <= len(pts)
        assert labels is None
        assert np.abs(out).max() <= 0.5 + 1e-12

    def test_labels_ride_along(self, rng):
        cfg = BenchConfig(segmentation=True)
        pts, labels = make_lamp(rng, 512)
        out, out_labels = corrupt_to_target(pts, cfg, rng, point_labels=labels)
        assert len(out) >= cfg.n_points
        assert out_labels.shape == (len(out),)
        assert set(np.unique(out_labels)) <= {0, 1, 2, 3}

    def test_no_corruption_keeps_identity_shape(self, rng):
        cfg = BenchConfig(
            occlusion_fraction=0.0, keep_fraction=1.0, target_jitter=0.0
        )
        pts = make_primitive("torus", rng, 300)
        out, _ = corrupt_to_target(pts, cfg, rng)
        # with all corruption off, only renormalize: every output point is an
        # input point
        assert len(out) == len(pts)
        as_set = {tuple(p) for p in np.round(pts, 12)}
        assert all(tuple(p) in as_set for p in np.round(out, 12))

    def test_too_small_cloud_rejected(self, rng):
        cfg = BenchConfig()
        with pytest.raises(DataFormatError):
            corrupt_to_target(np.zeros((10, 3)), cfg, rng)

    def test_density_bias_thins_one_side(self):
        # thinning keeps keep_fraction of the points, more of them toward one
        # end of a random direction
        cfg = BenchConfig(occlusion_fraction=0.0, target_jitter=0.0, keep_fraction=0.5)
        rng = np.random.default_rng(0)
        pts = make_primitive("box", rng, 1024)
        out, _ = corrupt_to_target(pts, cfg, rng)
        assert len(out) == round(0.5 * 1024)


@pytest.fixture(scope="module")
def tiny():
    cfg = BenchConfig(
        n_points=64,
        source_train=9,
        source_test=6,
        target_train=9,
        target_test=6,
        seed=1,
    )
    return cfg, gen_benchmark(cfg)


class TestGenBenchmark:
    def test_split_sizes_and_classes(self, tiny):
        cfg, (splits, meta) = tiny
        assert set(splits) == {"source_train", "source_test", "target_train", "target_test"}
        for name, ds in splits.items():
            assert len(ds.samples) == getattr(cfg, name)
            assert ds.num_classes == 3
            for s in ds.samples:
                assert s.points.shape == (64, 3)
                assert 0 <= s.label < 3
        assert meta["kind"] == "classification"
        assert meta["classes"] == ["cylinder", "cone", "torus"]
        assert meta["config"]["seed"] == 1

    def test_labels_cycle_through_classes(self, tiny):
        _, (splits, _) = tiny
        labels = splits["source_train"].labels()
        assert list(labels) == [i % 3 for i in range(9)]

    def test_deterministic_regeneration(self, tiny):
        cfg, (splits, _) = tiny
        again, _ = gen_benchmark(cfg)
        for name in splits:
            for a, b in zip(splits[name].samples, again[name].samples):
                assert np.array_equal(a.points, b.points)

    def test_seed_changes_clouds(self, tiny):
        cfg, (splits, _) = tiny
        import dataclasses

        other, _ = gen_benchmark(dataclasses.replace(cfg, seed=2))
        assert not np.array_equal(
            splits["source_train"].samples[0].points,
            other["source_train"].samples[0].points,
        )

    def test_source_and_target_domains_differ(self, tiny):
        _, (splits, _) = tiny
        src = splits["source_train"].samples[0].points
        tgt = splits["target_train"].samples[0].points
        assert not np.array_equal(src, tgt)

    def test_segmentation_benchmark(self):
        cfg = BenchConfig(
            n_points=64,
            source_train=4,
            source_test=2,
            target_train=4,
            target_test=2,
            segmentation=True,
            seed=3,
        )
        splits, meta = gen_benchmark(cfg)
        assert meta["kind"] == "segmentation"
        assert meta["classes"] == ["base", "pole", "ring", "top"]
        for ds in splits.values():
            assert ds.segmented
            assert ds.num_classes == 4
            for s in ds.samples:
                assert s.labels.shape == (64,)
                assert s.labels.min() >= 0 and s.labels.max() < 4

    @pytest.mark.parametrize("segmentation", [False, True])
    def test_in_memory_clouds_stay_in_unit_cube(self, segmentation):
        # unclamped, seed 1 at the default sizes gives 0.5000000000000001
        splits, _ = gen_benchmark(BenchConfig(seed=1, segmentation=segmentation))
        for ds in splits.values():
            for s in ds.samples:
                assert np.abs(s.points).max() <= 0.5


class TestAgainstReference:
    """gen_benchmark's bytes against each sample rebuilt on its own."""

    @pytest.mark.parametrize("segmentation", [False, True])
    def test_every_sample_matches_its_own_rebuild(self, segmentation):
        cfg = BenchConfig(
            n_points=32, source_train=5, source_test=3, target_train=6, target_test=4,
            seed=2, segmentation=segmentation,
        )
        splits, _ = gen_benchmark(cfg)
        m = int(np.ceil(OVERSAMPLE * cfg.n_points))
        for split, code in SPLIT_CODES.items():
            samples = splits[split].samples
            assert len(samples) == getattr(cfg, split)
            for i, sample in enumerate(samples):
                rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, code, i]))
                if segmentation:
                    pts, labels = make_lamp(rng, m)
                else:
                    labels = None
                    pts = make_primitive(PRIMITIVES[i % cfg.num_classes], rng, m)
                if split.startswith("target"):
                    pts, labels = corrupt_to_target(pts, cfg, rng, point_labels=labels)
                sel = greedy_fps(pts, rng.integers(len(pts)), cfg.n_points)
                assert sample.points.tobytes() == pts[sel].tobytes()
                if segmentation:
                    assert sample.labels.tobytes() == labels[sel].astype(np.int64).tobytes()
                else:
                    assert sample.label == i % cfg.num_classes


class TestBenchConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_points=4),
            dict(num_classes=1),
            dict(num_classes=9),
            dict(source_train=0),
            dict(occlusion_fraction=1.0),
            dict(keep_fraction=0.0),
            dict(target_jitter=-0.1),
            dict(corruption_scheme="melt"),
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(DataFormatError):
            BenchConfig(**kw)
