"""Region deformation invariants for every variant and the mixed strategy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcda.deform
from pcda.deform import (
    FAMILIES,
    KINDS,
    MIXED_KINDS,
    DeformSpec,
    apply_deformation,
    drawn_spec,
    pick_mixed_family,
    sample_region,
)
from pcda.errors import DataFormatError, NumericalError

from conftest import make_cloud

ALL_SPECS = [
    DeformSpec(kind="voxel", k=3),
    DeformSpec(kind="sphere", radius=0.4),
    DeformSpec(kind="feature", k_pts=20, layer=3),
    DeformSpec(kind="split"),
    DeformSpec(kind="gradient"),
    DeformSpec(kind="lambertian"),
]


def check_pair_invariants(pair, pts):
    region = pair.region
    assert len(pair.deformed) == len(pts)
    assert len(region) > 0
    assert len(np.unique(region)) == len(region)
    # points outside the region are bitwise untouched
    mask = np.ones(len(pts), dtype=bool)
    mask[region] = False
    assert np.array_equal(pair.deformed[mask], pts[mask])
    assert np.array_equal(pair.original, pts)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.kind for s in ALL_SPECS])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_variant_invariants(spec, seed):
    pts = make_cloud(seed, 64)
    pair = apply_deformation(pts, spec, seed=seed)
    check_pair_invariants(pair, pts)
    assert pair.kind == spec.kind


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.kind for s in ALL_SPECS])
def test_variant_deterministic(spec):
    pts = make_cloud(0, 64)
    a = apply_deformation(pts, spec, seed=123)
    b = apply_deformation(pts, spec, seed=123)
    assert np.array_equal(a.deformed, b.deformed)
    assert np.array_equal(a.region, b.region)


class TestVoxel:
    def test_region_is_one_grid_cell(self):
        pts = make_cloud(1, 100)
        pair = apply_deformation(pts, DeformSpec(kind="voxel", k=3), seed=5)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        cells = np.minimum(((pts - lo) / (hi - lo) * 3).astype(int), 2)
        flat = cells[:, 0] * 9 + cells[:, 1] * 3 + cells[:, 2]
        assert len(np.unique(flat[pair.region])) == 1
        # all points of the chosen cell are in the region
        assert np.array_equal(pair.region, np.flatnonzero(flat == flat[pair.region[0]]))

    def test_relocation_centers_on_cell(self):
        pts = make_cloud(2, 400)
        pair = apply_deformation(pts, DeformSpec(kind="voxel", k=2, relocate_sigma=0.01), seed=3)
        moved = pair.deformed[pair.region]
        assert np.abs(moved.mean(axis=0) - pair.region_center).max() < 0.05

    def test_zero_sigma_relocates_exactly_to_center(self):
        pts = make_cloud(3, 50)
        pair = apply_deformation(pts, DeformSpec(kind="voxel", k=3, relocate_sigma=0.0), seed=1)
        assert np.allclose(pair.deformed[pair.region], pair.region_center)


class TestSphere:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 1.0))
    def test_region_is_exactly_the_ball(self, seed, radius):
        pts = make_cloud(seed, 80)
        pair = apply_deformation(pts, DeformSpec(kind="sphere", radius=radius), seed=seed)
        d2 = ((pts - pair.region_center) ** 2).sum(axis=1)
        assert np.array_equal(pair.region, np.flatnonzero(d2 <= radius * radius))

    def test_center_is_a_data_point(self):
        pts = make_cloud(0, 30)
        pair = apply_deformation(pts, DeformSpec(kind="sphere", radius=0.3), seed=9)
        assert any(np.array_equal(pair.region_center, p) for p in pts)


class TestFeatureKnn:
    def test_region_size_exact_and_contains_anchor(self):
        pts = make_cloud(4, 60)
        feats = make_cloud(5, 60)
        pair = apply_deformation(pts, DeformSpec(kind="feature", k_pts=10), seed=2, features=feats)
        assert len(pair.region) == 10

    def test_region_is_feature_space_knn(self):
        pts = make_cloud(6, 40)
        feats = np.random.default_rng(7).normal(size=(40, 8))
        pair = apply_deformation(pts, DeformSpec(kind="feature", k_pts=7), seed=11, features=feats)
        # recover the anchor: its feature kNN set must equal the region
        found = False
        for anchor in pair.region:
            d2 = ((feats - feats[anchor]) ** 2).sum(axis=1)
            knn = np.sort(np.argsort(d2, kind="stable")[:7])
            if np.array_equal(knn, pair.region):
                found = True
                break
        assert found

    def test_relocates_to_origin(self):
        pts = make_cloud(8, 50) + 5.0
        spec = DeformSpec(kind="feature", k_pts=12, relocate_sigma=0.0)
        pair = apply_deformation(pts, spec, seed=0)
        assert np.allclose(pair.deformed[pair.region], 0.0)
        assert np.allclose(pair.region_center, 0.0)

    def test_bad_k_rejected(self):
        pts = make_cloud(0, 10)
        with pytest.raises(DataFormatError):
            apply_deformation(pts, DeformSpec(kind="feature", k_pts=10))
        with pytest.raises(DataFormatError):
            DeformSpec(kind="feature", k_pts=0)

    def test_feature_length_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            apply_deformation(
                make_cloud(0, 10), DeformSpec(kind="feature", k_pts=3), features=make_cloud(0, 9)
            )


class TestSampleSchemes:
    @pytest.mark.parametrize("scheme", ["split", "gradient", "lambertian"])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cap_respected(self, scheme, seed):
        pts = make_cloud(seed, 50)
        region = sample_region(pts, scheme, seed=seed, cap_fraction=0.3)
        assert 1 <= len(region) <= int(np.ceil(0.3 * 50))
        assert len(np.unique(region)) == len(region)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DataFormatError):
            sample_region(make_cloud(0, 20), "nope")

    def test_bad_cap_rejected(self):
        with pytest.raises(DataFormatError):
            sample_region(make_cloud(0, 20), "split", cap_fraction=0.0)

    def test_lambertian_all_zero_normals_degenerate(self, monkeypatch):
        monkeypatch.setattr(pcda.deform, "estimate_normals", lambda pts, k: np.zeros_like(pts))
        with pytest.raises(NumericalError):
            sample_region(make_cloud(0, 20), "lambertian", seed=0)

    def test_gradient_favors_high_end_of_longest_axis(self):
        # cloud stretched along x: selection frequency should grow with x
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(200, 3))
        pts[:, 0] *= 10.0
        counts = np.zeros(200)
        for seed in range(300):
            region = sample_region(pts, "gradient", seed=seed, cap_fraction=1.0)
            counts[region] += 1
        low = counts[pts[:, 0] < 2.5].mean()
        high = counts[pts[:, 0] > 7.5].mean()
        assert high > 2.0 * low

    def test_split_scheme_produces_a_halfspace_core(self):
        # with the full cap the smaller half of some hyperplane is always kept
        pts = make_cloud(9, 120)
        region = sample_region(pts, "split", seed=4, cap_fraction=1.0)
        assert 1 <= len(region) <= 120

    def test_deform_sample_region_at_origin(self):
        pts = make_cloud(10, 64) + 3.0
        pair = apply_deformation(pts, DeformSpec(kind="split", relocate_sigma=0.0), seed=6)
        assert np.allclose(pair.deformed[pair.region], 0.0)


class TestMixed:
    def test_family_frequencies_near_uniform(self):
        draws = 3000
        counts = {f: 0 for f in FAMILIES}
        for seed in range(draws):
            counts[pick_mixed_family(seed)] += 1
        # 3 sigma binomial bound around draws/3
        sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
        for f in FAMILIES:
            assert abs(counts[f] - draws / 3) <= 3 * sigma

    @staticmethod
    def drawn_kind(seed):
        # the family draw comes first on the generator, then the variant's own draws
        rng = np.random.default_rng(seed)
        return MIXED_KINDS[pick_mixed_family(rng)], rng

    def test_mixed_applies_its_own_fields_per_family(self):
        spec = DeformSpec(
            kind="mixed", k_pts=9, k=2, relocate_sigma=0.0, sample_cap_fraction=0.25
        )
        pts = make_cloud(11, 48)
        seen = set()
        for seed in range(60):
            pair = apply_deformation(pts, spec, seed=seed)
            check_pair_invariants(pair, pts)
            kind, rng = self.drawn_kind(seed)
            assert pair.kind == kind
            seen.add(kind)
            # relocate_sigma=0.0 puts every region point exactly on the center
            assert (pair.deformed[pair.region] == pair.region_center).all()
            if kind == "feature":
                assert len(pair.region) == 9
                family = DeformSpec(kind="feature", k_pts=9, relocate_sigma=0.0)
            elif kind == "voxel":
                family = DeformSpec(kind="voxel", k=2, relocate_sigma=0.0)
            else:
                assert len(pair.region) <= int(np.ceil(0.25 * 48))
                family = DeformSpec(kind="split", sample_cap_fraction=0.25, relocate_sigma=0.0)
            want = apply_deformation(pts, family, seed=rng)
            assert np.array_equal(pair.region, want.region)
            assert np.array_equal(pair.deformed, want.deformed)
        assert seen == {"voxel", "feature", "split"}

    def test_drawn_spec_then_deform_makes_the_mixed_draws(self):
        spec = DeformSpec(kind="mixed", k=2, k_pts=9)
        pts = make_cloud(13, 48)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            drawn = drawn_spec(spec, rng)
            assert drawn == DeformSpec(kind=self.drawn_kind(seed)[0], k=2, k_pts=9)
            got = apply_deformation(pts, drawn, seed=rng)
            want = apply_deformation(pts, spec, seed=seed)
            assert got.kind == want.kind == drawn.kind
            assert np.array_equal(got.region, want.region)
            assert np.array_equal(got.deformed, want.deformed)
            assert np.array_equal(got.region_center, want.region_center)
        sphere = DeformSpec(kind="sphere")
        assert drawn_spec(sphere, np.random.default_rng(0)) is sphere

    def test_mixed_defaults_draw_the_family_defaults(self):
        defaults = {
            "voxel": DeformSpec(kind="voxel", k=3),
            "feature": DeformSpec(kind="feature", k_pts=200, layer=3),
            "split": DeformSpec(kind="split"),
        }
        assert set(MIXED_KINDS) == set(FAMILIES)
        pts = make_cloud(12, 256)
        for seed in range(30):
            pair = apply_deformation(pts, DeformSpec(kind="mixed"), seed=seed)
            kind, rng = self.drawn_kind(seed)
            want = apply_deformation(pts, defaults[kind], seed=rng)
            assert pair.kind == kind
            assert np.array_equal(pair.region, want.region)
            assert np.array_equal(pair.deformed, want.deformed)


class TestSpecValidation:
    def test_known_kinds(self):
        assert set(KINDS) == {
            "voxel",
            "sphere",
            "feature",
            "split",
            "gradient",
            "lambertian",
            "mixed",
        }

    @pytest.mark.parametrize(
        "kw",
        [
            dict(kind="nope"),
            dict(kind="voxel", k=0),
            dict(kind="sphere", radius=0.0),
            dict(kind="sphere", radius=float("nan")),
            dict(kind="feature", k_pts=0),
            dict(kind="split", sample_cap_fraction=0.0),
            dict(kind="voxel", relocate_sigma=-1.0),
            dict(kind="voxel", relocate_sigma=float("nan")),
            dict(kind="feature", layer=0),
            dict(kind="feature", layer=6),
            dict(kind="mixed", layer=6),
            dict(kind="mixed", k=0),
            dict(kind="mixed", k_pts=0),
            dict(kind="voxel", relocate_sigma=float("inf")),
        ],
    )
    def test_invalid_spec_rejected(self, kw):
        with pytest.raises(DataFormatError):
            DeformSpec(**kw)
