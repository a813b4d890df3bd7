"""Independent oracles and a runnable self-check suite.

Everything here recomputes results by a second route: Chamfer by exhaustive
pairwise distances, network gradients by central finite differences,
Gaussian scores by explicit inverse and determinant, plus closed-form
values checked by hand. The production code never calls these; the CLI
selftest and the test suite do.

The network gradient check takes its analytic side from the losses that
training runs: classification_loss_and_grads plus the region-sparse
reconstruction_loss_and_grads. Its finite-difference side evaluates the
same loss by another route, with the rec head on every point of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chamfer import chamfer_distance, chamfer_loss_region
from .cloud import as_rng
from .deform import DeformSpec, apply_deformation
from .errors import NumericalError
from .evaluation import (
    ClassGaussians,
    fit_class_gaussians,
    log_perplexity,
    project_features,
)
from .mixup import LabeledCloud, mixup_classify
from .network import (
    _head_forward,
    classification_loss_and_grads,
    forward_pass,
    init_params,
    reconstruction_loss_and_grads,
    softmax_cross_entropy,
)
from .training import cosine_lr


# -- oracle implementations ------------------------------------------------


def brute_force_chamfer(a, b) -> float:
    """Symmetric Chamfer by exhaustive O(n*m) pairwise distances."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum() + d2.min(axis=0).sum())


def brute_force_gaussian_logpdf(x, mean, cov) -> np.ndarray:
    """Gaussian log-density via explicit inverse and determinant."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = x - np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    maha = np.einsum("ij,jk,ik->i", diff, inv, diff)
    return -0.5 * (cov.shape[0] * np.log(2.0 * np.pi) + logdet + maha)


def brute_force_log_perplexity(model: ClassGaussians, features, labels, balanced=False):
    """log_perplexity from the model's full d×d covariances, rebuilt from its
    subspace bases, each scored by explicit inverse and determinant."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    covs = model.covariances
    per_class = []
    total, count = 0.0, 0
    for c in range(len(model.means)):
        sel = y == c
        if not sel.any():
            continue
        lp = brute_force_gaussian_logpdf(x[sel], model.means[c], covs[c])
        per_class.append(lp.mean())
        total += lp.sum()
        count += sel.sum()
    if balanced:
        return float(-np.mean(per_class))
    return float(-total / count)


def sample_param_coords(params: dict, budget: int, seed=None, min_per_tensor: int = 4):
    """Deterministic (name, flat index) sample covering every tensor.

    Coordinates are allocated in proportion to tensor size (with a floor per
    tensor), so the sampled pass rate estimates the pass rate over all
    parameters without skew toward small tensors.
    """
    rng = as_rng(seed)
    total = sum(p.size for p in params.values())
    coords = []
    for name in sorted(params):
        size = params[name].size
        take = min(size, max(min_per_tensor, round(budget * size / total)))
        for idx in rng.choice(size, size=take, replace=False):
            coords.append((name, int(idx)))
    return coords


def finite_difference_grad(loss_fn, params: dict, coords, h: float = 1e-5):
    """Central-difference dloss/dtheta at the given parameter coordinates."""
    out = np.empty(len(coords))
    for i, (name, idx) in enumerate(coords):
        flat = params[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        plus = loss_fn()
        flat[idx] = orig - h
        minus = loss_fn()
        flat[idx] = orig
        out[i] = (plus - minus) / (2.0 * h)
    return out


def gradient_agreement(analytic, numeric, tol: float, floor: float = 1e-8):
    """Fraction of coordinates within relative tolerance, and the worst
    relative error. Coordinates where both routes are below `floor` pass."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(f))
    rel = np.abs(a - f) / np.maximum(scale, floor)
    ok = (scale < floor) | (rel <= tol)
    rel_considered = rel[scale >= floor]
    worst = float(rel_considered.max()) if rel_considered.size else 0.0
    return float(ok.mean()), worst


def composite_loss_and_grads(
    params, clouds, soft_labels, targets, regions, ssl_weight, dropout_seed
):
    """Cross entropy plus weighted region Chamfer of the same clouds, and the
    sum of both losses' gradients: classification_loss_and_grads (train
    mode, dropout drawn from `dropout_seed`) plus reconstruction_loss_and_grads
    (weighted by `ssl_weight`), the two losses that training runs."""
    ce, grads = classification_loss_and_grads(
        params, clouds, soft_labels, mode="train", dropout_seed=dropout_seed
    )
    rec_loss, rec_grads = reconstruction_loss_and_grads(
        params, clouds, targets, regions, ssl_weight
    )
    for name, grad in rec_grads.items():
        grads[name] += grad
    return ce + ssl_weight * rec_loss, grads


def check_network_gradients(
    num_classes: int = 3,
    n_points: int = 32,
    batch: int = 2,
    budget: int = 600,
    h: float = 1e-5,
    tol: float = 1e-4,
    ssl_weight: float = 0.5,
    seed: int = 0,
):
    """Finite-difference check of the composite loss gradient.

    The analytic gradients come from composite_loss_and_grads; the finite
    differences run the rec head on every layer-4 row of one traced sup
    pass (cloud=None, the path of the seg head).

    Returns (fraction of coordinates within tol, worst relative error,
    number of coordinates checked). The loss of a rectifier network is
    piecewise smooth; finite differences straddle a kink for a small share
    of coordinates, which is why the pass criterion is a fraction rather
    than a maximum.
    """
    root = np.random.SeedSequence([seed, 7])
    kids = root.spawn(5)
    params = init_params(num_classes, task="classification", seed=kids[0], dtype=np.float64)
    rng = as_rng(kids[1])
    clouds = rng.normal(size=(batch, n_points, 3))
    targets = rng.normal(size=(batch, n_points, 3))
    soft = rng.uniform(size=(batch, num_classes))
    soft /= soft.sum(axis=1, keepdims=True)
    regions = [
        np.sort(rng.choice(n_points, size=max(2, n_points // 3), replace=False))
        for _ in range(batch)
    ]
    dropout_seed = kids[2]

    def loss_only():
        outputs, trace = forward_pass(
            params, clouds, mode="train", heads=("sup",), dropout_seed=dropout_seed
        )
        ce, _ = softmax_cross_entropy(outputs["logits"], soft)
        recon, _ = _head_forward(
            params, "rec", trace["global"], trace["acts"][3], None, None, keep=False
        )
        recon = recon.reshape(batch, n_points, 3)
        rec = 0.0
        for b in range(batch):
            rec += chamfer_loss_region(recon[b], targets[b], regions[b]).value
        return ce + ssl_weight * rec / batch

    _, grads = composite_loss_and_grads(
        params, clouds, soft, targets, regions, ssl_weight, dropout_seed
    )
    coords = sample_param_coords(params, budget, seed=kids[3])
    numeric = finite_difference_grad(loss_only, params, coords, h=h)
    analytic = np.array([grads[name].reshape(-1)[idx] for name, idx in coords])
    frac, worst = gradient_agreement(analytic, numeric, tol)
    return frac, worst, len(coords)


# -- the self-check suite --------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name, ok, detail="") -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def check_chamfer(instances: int = 25, seed: int = 0) -> CheckResult:
    rng = as_rng(seed)
    worst = 0.0
    for _ in range(instances):
        a = rng.normal(size=(int(rng.integers(1, 49)), 3))
        b = rng.normal(size=(int(rng.integers(1, 49)), 3))
        fast = chamfer_distance(a, b)
        slow = brute_force_chamfer(a, b)
        worst = max(worst, abs(fast - slow))
        if chamfer_distance(a, b) != chamfer_distance(b, a):
            return _check("chamfer", False, "argument order changed the value")
    return _check(
        "chamfer", worst <= 1e-9, f"max |fast - brute| = {worst:.3e} over {instances}"
    )


def check_region_gradient(seed: int = 0) -> CheckResult:
    rng = as_rng(seed)
    pred = rng.normal(size=(24, 3))
    target = rng.normal(size=(24, 3))
    region = np.sort(rng.choice(24, size=9, replace=False))
    res = chamfer_loss_region(pred, target, region)
    h = 1e-6
    worst = 0.0
    for i in range(pred.shape[0]):
        for j in range(3):
            orig = pred[i, j]
            pred[i, j] = orig + h
            plus = chamfer_loss_region(pred, target, region).value
            pred[i, j] = orig - h
            minus = chamfer_loss_region(pred, target, region).value
            pred[i, j] = orig
            fd = (plus - minus) / (2 * h)
            worst = max(worst, abs(fd - res.grad_pred[i, j]))
    return _check("region-gradient", worst <= 1e-5, f"max |fd - grad| = {worst:.3e}")


def check_gradients() -> CheckResult:
    frac, worst, count = check_network_gradients(budget=400)
    return _check(
        "network-gradients",
        frac >= 0.99,
        f"{frac:.4f} of {count} coords within 1e-4 (worst rel {worst:.2e})",
    )


def check_mixup(draws: int = 400, seed: int = 0) -> CheckResult:
    rng = as_rng(seed)
    worst = 0.0
    for i in range(draws):
        a = LabeledCloud(points=rng.normal(size=(64, 3)), label=int(rng.integers(4)))
        b = LabeledCloud(points=rng.normal(size=(64, 3)), label=int(rng.integers(4)))
        ms = mixup_classify(a, b, 4, seed=rng)
        worst = max(worst, abs(ms.soft_label.sum() - 1.0))
    pure_a = mixup_classify(a, b, 4, seed=0, gamma=1.0)
    pure_b = mixup_classify(a, b, 4, seed=0, gamma=0.0)
    ok = (
        worst <= 1e-12
        and pure_a.soft_label[a.label] == 1.0
        and pure_b.soft_label[b.label] == 1.0
    )
    return _check("mixup-labels", ok, f"max |sum - 1| = {worst:.2e} over {draws}")


def check_deformations(draws_per_kind: int = 8, seed: int = 0) -> CheckResult:
    specs = [
        DeformSpec(kind="voxel", k=3),
        DeformSpec(kind="sphere", radius=0.2),
        DeformSpec(kind="feature", k_pts=40, layer=3),
        DeformSpec(kind="split"),
        DeformSpec(kind="gradient"),
        DeformSpec(kind="lambertian"),
        DeformSpec(kind="mixed", k_pts=40),
    ]
    rng = as_rng(seed)
    for spec in specs:
        for d in range(draws_per_kind):
            pts = rng.normal(scale=0.4, size=(120, 3))
            try:
                pair = apply_deformation(pts, spec, seed=rng)
            except NumericalError:
                continue  # degenerate draws are allowed to error out
            if len(pair.region) == 0:
                return _check("deformations", False, f"{spec.kind}: empty region")
            outside = np.setdiff1d(np.arange(120), pair.region)
            if not np.array_equal(pair.deformed[outside], pair.original[outside]):
                return _check(
                    "deformations", False, f"{spec.kind}: moved points outside region"
                )
            if np.array_equal(pair.deformed[pair.region], pair.original[pair.region]):
                return _check(
                    "deformations", False, f"{spec.kind}: region left unchanged"
                )
    return _check("deformations", True, f"{draws_per_kind} draws x {len(specs)} variants")


def check_perplexity() -> CheckResult:
    # one feature exactly at its class mean in d dimensions: the score is
    # 0.5 * (d log 2 pi + log det cov) with cov = reg * I
    reg = 1e-6
    feats = np.zeros((1, 2))
    model = fit_class_gaussians(feats, [0], 1, reg=reg)
    got = log_perplexity(model, feats, [0])
    want = 0.5 * (2 * np.log(2 * np.pi) + 2 * np.log(reg))
    if abs(got - want) > 1e-9:
        return _check("perplexity", False, f"closed form: got {got}, want {want}")
    rng = as_rng(3)
    x = rng.normal(size=(60, 5))
    y = np.repeat(np.arange(3), 20)
    model = fit_class_gaussians(x, y, 3)
    fast = log_perplexity(model, x, y)
    slow = brute_force_log_perplexity(model, x, y)
    fast_b = log_perplexity(model, x, y, balanced=True)
    slow_b = brute_force_log_perplexity(model, x, y, balanced=True)
    err = max(abs(fast - slow), abs(fast_b - slow_b))
    balanced_gap = abs(fast - fast_b)  # equal class sizes: must coincide
    ok = err <= 1e-9 and balanced_gap <= 1e-9
    return _check(
        "perplexity", ok, f"|fast - brute| = {err:.2e}, equal-size gap {balanced_gap:.2e}"
    )


def check_cross_entropy() -> CheckResult:
    loss, grad = softmax_cross_entropy(np.zeros(10), np.eye(10)[4])
    want = float(np.log(10.0))
    ok = abs(loss - want) <= 1e-12 and abs(grad.sum()) <= 1e-12
    return _check("cross-entropy", ok, f"uniform 10-way: got {loss:.12f}")


def check_projection() -> CheckResult:
    rng = as_rng(11)
    x = rng.normal(size=(50, 8)) * np.array([5, 3, 1, 1, 1, 1, 1, 1.0])
    p1, c1 = project_features(x, 2)
    p2, c2 = project_features(x, 2)
    ok = np.array_equal(p1, p2) and np.array_equal(c1, c2)
    var = p1.var(axis=0)
    ok = ok and var[0] >= var[1]
    return _check("projection", ok, "repeatable with ordered variance")


def check_schedule() -> CheckResult:
    start = cosine_lr(0.1, 0, 100)
    end = cosine_lr(0.1, 100, 100)
    vals = [cosine_lr(0.1, t, 100) for t in range(101)]
    monotone = all(a >= b for a, b in zip(vals, vals[1:]))
    ok = start == 0.1 and abs(end) <= 1e-18 and monotone
    return _check("lr-schedule", ok, f"start {start}, end {end:.1e}")


def run_all() -> list:
    return [
        check_chamfer(),
        check_region_gradient(),
        check_gradients(),
        check_mixup(),
        check_deformations(),
        check_perplexity(),
        check_cross_entropy(),
        check_projection(),
        check_schedule(),
    ]
