"""Metrics and feature-space diagnostics.

Per-class mean IoU for part segmentation, and a Gaussian fit diagnostic:
class-conditional Gaussians are fitted on labelled source features and
target features are scored by their negative average log-likelihood under
the mixture of their predicted or true class. Lower scores mean target
features land where source classes live.

Each class Gaussian is held in the subspace its samples span: a thin SVD
of the class's centered features gives at most n_c directions with their
variances, and every other direction has the ridge variance `reg`. No d×d
covariance or factor is built to fit or score, and no scipy is needed.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError, NumericalError

GAUSS_REG = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))


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


class ClassGaussians:
    """Per-class Gaussians, each held in the subspace of its samples.

    Class c keeps its mean, an orthonormal basis `bases[c]` (r_c × d) and
    the variances `variances[c]` (r_c,) along it; every direction outside
    the basis has variance `reg`. Its covariance is
    bases[c]ᵀ·diag(variances[c] − reg)·bases[c] + reg·I, a d×d matrix that
    no score builds. Given explicit `covariances` instead, each is
    eigendecomposed here, so r_c = d.
    """

    def __init__(self, *, means, counts, covariances=None, bases=None, variances=None,
                 reg: float = 0.0):
        self.means = np.asarray(means, dtype=np.float64)   # (C, d)
        self.counts = np.asarray(counts, dtype=np.int64)   # (C,) samples per class
        if covariances is not None:
            bases, variances = zip(*(_eigen(cov) for cov in covariances))
        self.bases, self.variances, self.reg = list(bases), list(variances), float(reg)
        d = self.means.shape[1]
        for c, e in enumerate(self.variances):
            if not (np.all(e > 0) and (len(e) == d or self.reg > 0)):
                raise NumericalError(f"class {c} covariance is not positive definite")

    @property
    def covariances(self) -> np.ndarray:
        """The (C, d, d) covariances, rebuilt from the bases on each access."""
        d = self.means.shape[1]
        covs = np.empty((len(self.means), d, d))
        for c, (basis, e) in enumerate(zip(self.bases, self.variances)):
            covs[c] = (basis.T * (e - self.reg)) @ basis
            covs[c][np.diag_indices(d)] += self.reg
        return covs

    def log_density(self, c: int, x) -> np.ndarray:
        """Log density of each row of x under class c:
        −½(d·log 2π + Σ log e + (d−r)·log reg + Σ (V x̃)²/e + ‖x̃ − VᵀV x̃‖²/reg)
        with x̃ = x − mean, V = bases[c] (r × d) and e = variances[c]; the
        terms in reg drop when r = d."""
        basis, e = self.bases[c], self.variances[c]
        centered = np.atleast_2d(np.asarray(x, dtype=np.float64)) - self.means[c]
        r, d = basis.shape
        coords = centered @ basis.T
        logdet = np.log(e).sum()
        maha = np.einsum("ij,ij->i", coords / e, coords)
        if r < d:
            centered -= coords @ basis  # the residual outside the basis
            logdet += (d - r) * np.log(self.reg)
            maha += np.einsum("ij,ij->i", centered, centered) / self.reg
        return -0.5 * (d * LOG_2PI + logdet + maha)


def fit_class_gaussians(
    features, labels, num_classes: int, reg: float = GAUSS_REG
) -> ClassGaussians:
    """Maximum-likelihood Gaussian per class (covariance divided by n, not
    n-1) with `reg` added to the covariance diagonal. Every class must have
    at least one sample.

    Each class is one thin SVD of its centered features: its r = min(n, d)
    right singular vectors are the basis, s²/n + reg the variances along
    them. With fewer samples than dimensions, `reg` must be positive."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise DataFormatError("features must be (n, d) with one label per row")
    if num_classes < 1:
        raise DataFormatError("num_classes must be positive")
    if y.min(initial=0) < 0 or y.max(initial=-1) >= num_classes:
        raise DataFormatError("labels out of range")
    means = np.zeros((num_classes, x.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    bases, variances = [], []
    for c in range(num_classes):
        xc = x[y == c]
        counts[c] = len(xc)
        if counts[c] == 0:
            raise DataFormatError(f"class {c} has no samples to fit")
        means[c] = xc.mean(axis=0)
        try:
            _, s, basis = np.linalg.svd(xc - means[c], full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"class {c} features: {exc}") from exc
        bases.append(basis)
        variances.append(s * s / counts[c] + reg)
    return ClassGaussians(means=means, counts=counts, bases=bases, variances=variances, reg=reg)


def _eigen(cov):
    """(basis, variances) of an explicit covariance: its d eigenvectors as
    rows and its eigenvalues."""
    try:
        e, vecs = np.linalg.eigh(np.asarray(cov, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance is not positive definite: {exc}") from exc
    return vecs.T, e


def gaussian_log_density(x, mean, cov) -> np.ndarray:
    """Log N(x; mean, cov) per row, by the formula of ClassGaussians with
    cov eigendecomposed."""
    return ClassGaussians(means=[mean], counts=[0], covariances=[cov]).log_density(0, x)


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
        logp = model.log_density(c, x[sel])
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
