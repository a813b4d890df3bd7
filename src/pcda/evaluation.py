"""Metrics and feature-space diagnostics.

Classification accuracy, per-class mean IoU for part segmentation, and a
Gaussian fit diagnostic: class-conditional Gaussians are fitted on labelled
source features and target features are scored by their negative average
log-likelihood under the mixture of their predicted or true class. Lower
scores mean target features land where source classes live.

scipy.linalg, for the Cholesky solves, is imported by the first Gaussian
log-density (`pcda perplexity`); ClassGaussians factors each class's
covariance once, however many times it is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, NumericalError

GAUSS_REG = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))


def accuracy(pred_labels, true_labels) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DataFormatError("prediction/label shapes differ")
    if pred.size == 0:
        raise DataFormatError("accuracy of an empty label set is undefined")
    return float((pred == true).mean())


def mean_iou(pred_labels, true_labels, num_parts: int) -> float:
    """Mean over parts of intersection-over-union for one segmented cloud.

    Parts absent from both prediction and ground truth count as IoU 1.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DataFormatError("prediction/label shapes differ")
    if num_parts < 1:
        raise DataFormatError("num_parts must be positive")
    ious = np.empty(num_parts, dtype=np.float64)
    for part in range(num_parts):
        p = pred == part
        t = true == part
        union = np.logical_or(p, t).sum()
        if union == 0:
            ious[part] = 1.0
        else:
            ious[part] = np.logical_and(p, t).sum() / union
    return float(ious.mean())


@dataclass
class ClassGaussians:
    """Per-class mean vectors and regularized ML covariance factors."""

    means: np.ndarray        # (C, d)
    covariances: np.ndarray  # (C, d, d), with GAUSS_REG added on the diagonal
    counts: np.ndarray       # (C,) samples per class
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def cholesky(self, c: int):
        """Class c's covariance Cholesky factor, computed on first use and
        kept: later changes to `covariances` are not seen."""
        if c not in self._factors:
            self._factors[c] = _cholesky(self.covariances[c])
        return self._factors[c]


def fit_class_gaussians(
    features, labels, num_classes: int, reg: float = GAUSS_REG
) -> ClassGaussians:
    """Maximum-likelihood Gaussian per class (covariance divided by n, not
    n-1) with `reg` added to the covariance diagonal. Every class must have
    at least one sample."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise DataFormatError("features must be (n, d) with one label per row")
    if num_classes < 1:
        raise DataFormatError("num_classes must be positive")
    if y.min(initial=0) < 0 or y.max(initial=-1) >= num_classes:
        raise DataFormatError("labels out of range")
    d = x.shape[1]
    means = np.zeros((num_classes, d))
    covs = np.zeros((num_classes, d, d))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        xc = x[y == c]
        counts[c] = len(xc)
        if counts[c] == 0:
            raise DataFormatError(f"class {c} has no samples to fit")
        means[c] = xc.mean(axis=0)
        centered = xc - means[c]
        covs[c] = centered.T @ centered / counts[c]
        covs[c][np.diag_indices(d)] += reg
    return ClassGaussians(means=means, covariances=covs, counts=counts)


def _cholesky(cov):
    """Lower Cholesky factor of a covariance, as scipy's (c, lower) pair."""
    from scipy.linalg import cho_factor

    try:
        return cho_factor(np.asarray(cov, dtype=np.float64), lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance is not positive definite: {exc}") from exc


def _log_density(x, mean, factor) -> np.ndarray:
    from scipy.linalg import cho_solve

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mean = np.asarray(mean, dtype=np.float64)
    d = mean.shape[0]
    logdet = 2.0 * np.log(np.diag(factor[0])).sum()
    centered = x - mean
    solved = cho_solve(factor, centered.T, check_finite=False).T
    maha = np.einsum("ij,ij->i", centered, solved)
    return -0.5 * (d * LOG_2PI + logdet + maha)


def gaussian_log_density(x, mean, cov) -> np.ndarray:
    """Log N(x; mean, cov) per row, via Cholesky factorization."""
    return _log_density(x, mean, _cholesky(cov))


def log_perplexity(
    model: ClassGaussians, features, labels, balanced: bool = False
) -> float:
    """Negative average log-likelihood of features under their class Gaussian.

    Standard: mean over all samples. Balanced: per-class means averaged with
    equal class weight, so small classes are not drowned out. The two agree
    when all classes have the same number of scored samples.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise DataFormatError("features must be (n, d) with one label per row")
    if len(x) == 0:
        raise DataFormatError("cannot score an empty feature set")
    num_classes = len(model.means)
    if y.min() < 0 or y.max() >= num_classes:
        raise DataFormatError("labels out of range")
    per_class_sum = np.zeros(num_classes)
    per_class_n = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        sel = y == c
        if not sel.any():
            continue
        logp = _log_density(x[sel], model.means[c], model.cholesky(c))
        per_class_sum[c] = logp.sum()
        per_class_n[c] = sel.sum()
    if balanced:
        present = per_class_n > 0
        if not present.all():
            raise DataFormatError("balanced scoring needs samples from every class")
        return float(-np.mean(per_class_sum[present] / per_class_n[present]))
    return float(-per_class_sum.sum() / per_class_n.sum())


def project_features(features, out_dim: int = 2):
    """PCA projection for plots, with a deterministic sign convention.

    Returns (projected (n, out_dim), components (out_dim, d)). Each
    component's entry of largest magnitude is made positive, so identical
    inputs always project identically.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataFormatError("features must be (n, d)")
    n, d = x.shape
    if out_dim < 1 or out_dim > min(n, d):
        raise DataFormatError("out_dim must be in [1, min(n, d)]")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:out_dim]
    for i in range(out_dim):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T, comps
