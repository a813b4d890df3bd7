"""Metrics and the class-conditional Gaussian log-perplexity score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcda.errors import DataFormatError, NumericalError
from pcda.evaluation import (
    GAUSS_REG,
    accuracy,
    fit_class_gaussians,
    gaussian_log_density,
    log_perplexity,
    mean_iou,
    project_features,
)
from pcda.selfcheck import brute_force_gaussian_logpdf, brute_force_log_perplexity


def make_features(seed, n=60, d=4, num_classes=3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    # make sure every class appears
    labels[:num_classes] = np.arange(num_classes)
    feats = rng.normal(size=(n, d)) + 3.0 * labels[:, None]
    return feats, labels


class TestMetrics:
    def test_accuracy_hand_case(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == pytest.approx(0.75)

    def test_mean_iou_hand_case(self):
        # part 0: intersection 2, union 4; part 1: intersection 1, union 3
        pred = np.array([0, 0, 0, 1, 1])
        true = np.array([0, 0, 1, 0, 1])
        want = ((2 / 4) + (1 / 3)) / 2
        assert mean_iou(pred, true, num_parts=2) == pytest.approx(want)

    def test_mean_iou_absent_part_counts_as_perfect(self):
        pred = np.array([0, 0])
        true = np.array([0, 0])
        assert mean_iou(pred, true, num_parts=3) == pytest.approx(1.0)

    def test_perfect_prediction(self):
        labels = np.array([0, 1, 2, 3, 2, 1])
        assert accuracy(labels, labels) == 1.0
        assert mean_iou(labels, labels, num_parts=4) == 1.0


class TestGaussianDensity:
    def test_standard_normal_at_origin(self):
        # d=2 standard normal at its mean: log density is -log(2*pi)
        val = gaussian_log_density(np.zeros((1, 2)), np.zeros(2), np.eye(2))
        assert val[0] == pytest.approx(-np.log(2 * np.pi), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6))
    def test_matches_explicit_inverse_oracle(self, seed, d):
        rng = np.random.default_rng(seed)
        mean = rng.normal(size=d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        x = rng.normal(size=(7, d))
        fast = gaussian_log_density(x, mean, cov)
        slow = brute_force_gaussian_logpdf(x, mean, cov)
        assert np.abs(fast - slow).max() <= 1e-9

    def test_not_positive_definite_raises(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericalError):
            gaussian_log_density(np.zeros((1, 2)), np.zeros(2), cov)


class TestFitClassGaussians:
    def test_maximum_likelihood_moments(self):
        feats, labels = make_features(0)
        model = fit_class_gaussians(feats, labels, num_classes=3, reg=0.0)
        for c in range(3):
            sel = feats[labels == c]
            assert np.allclose(model.means[c], sel.mean(axis=0))
            centered = sel - sel.mean(axis=0)
            assert np.allclose(model.covariances[c], centered.T @ centered / len(sel))
            assert model.counts[c] == len(sel)

    def test_regularizer_on_diagonal(self):
        feats, labels = make_features(1)
        bare = fit_class_gaussians(feats, labels, num_classes=3, reg=0.0)
        reg = fit_class_gaussians(feats, labels, num_classes=3, reg=1e-3)
        diff = reg.covariances[0] - bare.covariances[0]
        assert np.allclose(diff, 1e-3 * np.eye(feats.shape[1]))

    def test_missing_class_rejected(self):
        feats = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataFormatError):
            fit_class_gaussians(feats, labels, num_classes=3)


class TestLogPerplexity:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        feats, labels = make_features(seed)
        model = fit_class_gaussians(feats, labels, num_classes=3)
        other, other_labels = make_features(seed + 1)
        for balanced in (False, True):
            fast = log_perplexity(model, other, other_labels, balanced=balanced)
            slow = brute_force_log_perplexity(model, other, other_labels, balanced=balanced)
            assert abs(fast - slow) <= 1e-9

    def test_single_point_at_mean_unit_cov(self):
        # one feature per class sitting exactly on the class mean with an
        # identity covariance: score reduces to log(2*pi) for d=2
        feats = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([0, 1])
        model = fit_class_gaussians(feats, labels, num_classes=2, reg=0.0)
        model.covariances[:] = np.eye(2)
        score = log_perplexity(model, feats, labels)
        assert score == pytest.approx(np.log(2 * np.pi), abs=1e-9)

    def test_balanced_equals_standard_for_equal_class_sizes(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(40, 3))
        labels = np.repeat([0, 1], 20)
        model = fit_class_gaussians(feats, labels, num_classes=2)
        assert log_perplexity(model, feats, labels) == pytest.approx(
            log_perplexity(model, feats, labels, balanced=True), abs=1e-12
        )

    def test_balanced_reweights_unequal_classes(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(60, 3)) + 4.0 * np.repeat([0, 1], 30)[:, None]
        train_labels = np.repeat([0, 1], 30)
        model = fit_class_gaussians(train, train_labels, num_classes=2)
        # class 1 features sit far off their Gaussian: raise their weight
        feats = np.concatenate([train[:30], train[30:] + 10.0])
        labels = train_labels
        skew = np.concatenate([feats[:30], feats[30:31]])
        skew_labels = np.concatenate([labels[:30], labels[30:31]])
        std = log_perplexity(model, skew, skew_labels)
        bal = log_perplexity(model, skew, skew_labels, balanced=True)
        assert bal > std

    def test_worse_fit_scores_higher(self):
        feats, labels = make_features(7)
        model = fit_class_gaussians(feats, labels, num_classes=3)
        near = log_perplexity(model, feats, labels)
        far = log_perplexity(model, feats + 8.0, labels)
        assert far > near

    def test_each_class_factored_once_and_values_unchanged(self, monkeypatch):
        import scipy.linalg

        feats, labels = make_features(9, n=90, d=5)
        other, other_labels = make_features(10, n=40, d=5)
        model = fit_class_gaussians(feats, labels, num_classes=3)
        # the per-call path: factor the class covariance for every score
        sums, counts = np.zeros(3), np.zeros(3, dtype=np.int64)
        for c in range(3):
            sel = other_labels == c
            sums[c] = gaussian_log_density(other[sel], model.means[c], model.covariances[c]).sum()
            counts[c] = sel.sum()
        per_call = [float(-sums.sum() / counts.sum()), float(-np.mean(sums / counts))]

        factored = []
        real = scipy.linalg.cho_factor

        def counting(*args, **kwargs):
            factored.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
        std = log_perplexity(model, other, other_labels)
        bal = log_perplexity(model, other, other_labels, balanced=True)
        assert len(factored) == 3
        assert [std, bal] == per_call  # bitwise, not approximately

    def test_balanced_requires_all_classes(self):
        feats, labels = make_features(8)
        model = fit_class_gaussians(feats, labels, num_classes=3)
        keep = labels != 2
        with pytest.raises(DataFormatError):
            log_perplexity(model, feats[keep], labels[keep], balanced=True)


class TestProjectFeatures:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 8))
        a, comps_a = project_features(feats, out_dim=2)
        b, comps_b = project_features(feats, out_dim=2)
        assert a.shape == (50, 2)
        assert comps_a.shape == (2, 8)
        assert np.array_equal(a, b)
        assert np.array_equal(comps_a, comps_b)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(40, 6))
        _, comps = project_features(feats, out_dim=3)
        for row in comps:
            assert row[np.argmax(np.abs(row))] > 0

    def test_components_ordered_by_variance(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(80, 5)) * np.array([10.0, 1.0, 0.1, 0.1, 0.1])
        proj, _ = project_features(feats, out_dim=3)
        var = proj.var(axis=0)
        assert var[0] >= var[1] >= var[2]

    def test_projection_preserves_dominant_axis(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=100)
        feats = np.zeros((100, 6))
        feats[:, 3] = 10.0 * t
        feats += 0.01 * rng.normal(size=feats.shape)
        proj, _ = project_features(feats, out_dim=1)
        corr = np.corrcoef(proj[:, 0], t)[0, 1]
        assert abs(corr) > 0.999

    def test_bad_out_dim_rejected(self):
        with pytest.raises(DataFormatError):
            project_features(np.zeros((5, 3)), out_dim=4)
