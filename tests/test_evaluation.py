"""Metrics and the class-conditional Gaussian log-perplexity score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcda.errors import DataFormatError, NumericalError
from pcda.evaluation import (
    GAUSS_REG,
    ClassGaussians,
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
        model = ClassGaussians(means=feats, covariances=[np.eye(2), np.eye(2)], counts=[1, 1])
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

    def test_each_class_decomposed_once_at_fit_and_none_per_score(self, monkeypatch):
        feats, labels = make_features(9, n=90, d=5)
        other, other_labels = make_features(10, n=40, d=5)
        calls = []
        for name in ("svd", "eigh"):
            real = getattr(np.linalg, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        model = fit_class_gaussians(feats, labels, num_classes=3)
        assert calls == ["svd"] * 3
        scores = [log_perplexity(model, other, other_labels, balanced=b) for b in (False, True)]
        again = [log_perplexity(model, other, other_labels, balanced=b) for b in (False, True)]
        assert calls == ["svd"] * 3
        assert scores == again  # bitwise, not approximately
        monkeypatch.undo()
        for b, score in zip((False, True), scores):
            assert abs(score - brute_force_log_perplexity(model, other, other_labels, b)) <= 1e-9

    def test_balanced_requires_all_classes(self):
        feats, labels = make_features(8)
        model = fit_class_gaussians(feats, labels, num_classes=3)
        keep = labels != 2
        with pytest.raises(DataFormatError):
            log_perplexity(model, feats[keep], labels[keep], balanced=True)


def explicit_log_perplexity(train, train_labels, feats, labels, num_classes, reg, balanced):
    """The score from each class's sample covariance plus reg * I, by explicit
    inverse and slogdet, built without the model under test."""
    sums, counts = [], []
    for c in range(num_classes):
        xc = train[train_labels == c]
        mean = xc.mean(axis=0)
        cov = (xc - mean).T @ (xc - mean) / len(xc) + reg * np.eye(train.shape[1])
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        diff = feats[labels == c] - mean
        maha = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(cov), diff)
        logp = -0.5 * (train.shape[1] * np.log(2 * np.pi) + logdet + maha)
        sums.append(logp.sum())
        counts.append(len(diff))
    if balanced:
        return float(-np.mean(np.divide(sums, counts)))
    return float(-np.sum(sums) / np.sum(counts))


class TestSubspaceFit:
    """Class Gaussians held in their sample subspace score like the full
    regularized covariance."""

    @pytest.mark.parametrize("n, d, reg", [(30, 64, 1e-3), (300, 6, 1e-6), (120, 4, 0.0)])
    def test_matches_explicit_covariance_oracle(self, n, d, reg):
        train, train_labels = make_features(11, n=n, d=d)
        feats, labels = make_features(12, n=45, d=d)
        model = fit_class_gaussians(train, train_labels, num_classes=3, reg=reg)
        for c in range(3):
            assert model.bases[c].shape == (min((train_labels == c).sum(), d), d)
        for balanced in (False, True):
            got = log_perplexity(model, feats, labels, balanced=balanced)
            want = explicit_log_perplexity(train, train_labels, feats, labels, 3, reg, balanced)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_fewer_samples_than_dims_needs_a_ridge(self):
        train, train_labels = make_features(13, n=30, d=64)
        with pytest.raises(NumericalError):
            model = fit_class_gaussians(train, train_labels, num_classes=3, reg=0.0)
            log_perplexity(model, train, train_labels)

    def test_explicit_identity_scores_exactly_log_2pi(self):
        model = ClassGaussians(means=np.zeros((1, 2)), covariances=np.eye(2)[None], counts=[1])
        assert log_perplexity(model, np.zeros((1, 2)), [0]) == np.log(2 * np.pi)

    def test_fit_and_score_hold_no_d_by_d_array(self):
        import tracemalloc

        rng = np.random.default_rng(14)
        labels = np.repeat(np.arange(3), 67)
        train = rng.normal(size=(201, 1024)) + labels[:, None]
        feats = rng.normal(size=(201, 1024)) + labels[:, None]
        tracemalloc.start()
        try:
            model = fit_class_gaussians(train, labels, num_classes=3)
            log_perplexity(model, feats, labels)
            log_perplexity(model, feats, labels, balanced=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8  # one (1024, 1024) float64 array


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
