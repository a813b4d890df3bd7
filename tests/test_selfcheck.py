"""The built-in oracle suite must agree with itself end to end."""

import numpy as np
import pytest

from pcda.network import init_params
from pcda.selfcheck import (
    brute_force_chamfer,
    brute_force_gaussian_logpdf,
    check_network_gradients,
    gradient_agreement,
    run_all,
    sample_param_coords,
)


class TestOracleHelpers:
    def test_brute_chamfer_hand_value(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0]])
        b = np.array([[0.0, 0, 1]])
        # nearest from a: 1 + 2; nearest from b: 1
        assert brute_force_chamfer(a, b) == pytest.approx(4.0)

    def test_brute_gaussian_standard_normal(self):
        lp = brute_force_gaussian_logpdf(np.zeros((1, 2)), np.zeros(2), np.eye(2))
        assert lp[0] == pytest.approx(-np.log(2 * np.pi))

    def test_gradient_agreement_counts_matches(self):
        frac, worst = gradient_agreement([1.0, 2.0, 3.0], [1.0, 2.0, 4.0], tol=1e-4)
        assert frac == pytest.approx(2 / 3)
        assert worst == pytest.approx(0.25)

    def test_gradient_agreement_floor_passes_tiny_pairs(self):
        frac, worst = gradient_agreement([1e-12], [5e-12], tol=1e-4)
        assert frac == 1.0 and worst == 0.0


class TestParamCoordSampling:
    def test_covers_every_tensor(self):
        params = init_params(3, seed=0)
        coords = sample_param_coords(params, budget=200, seed=0)
        assert {name for name, _ in coords} == set(params)

    def test_budget_scales_with_tensor_size(self):
        params = init_params(3, seed=0)
        coords = sample_param_coords(params, budget=600, seed=0)
        counts = {}
        for name, idx in coords:
            counts[name] = counts.get(name, 0) + 1
            assert 0 <= idx < params[name].size
        sizes = {k: v.size for k, v in params.items()}
        biggest = max(sizes, key=sizes.get)
        smallest = min(sizes, key=sizes.get)
        assert counts[biggest] > counts[smallest]
        assert counts[smallest] >= 4 or counts[smallest] == sizes[smallest]

    def test_no_duplicate_coords_within_tensor(self):
        params = init_params(3, seed=1)
        coords = sample_param_coords(params, budget=400, seed=2)
        assert len(set(coords)) == len(coords)

    def test_deterministic(self):
        params = init_params(3, seed=0)
        a = sample_param_coords(params, budget=100, seed=9)
        b = sample_param_coords(params, budget=100, seed=9)
        assert a == b


class TestRunAll:
    def test_all_checks_pass(self):
        results = run_all()
        assert len(results) == 9
        names = [r.name for r in results]
        assert len(set(names)) == 9
        failed = [f"{r.name}: {r.detail}" for r in results if not r.ok]
        assert not failed, "; ".join(failed)

    def test_gradient_check_meets_contract(self):
        frac, worst, count = check_network_gradients(
            num_classes=3, n_points=32, batch=2, budget=400, seed=0
        )
        assert count >= 400
        assert frac >= 0.99
