"""Point encoder with classification, segmentation, and reconstruction heads.

The encoder is a per-point MLP with shared weights (widths 64, 64, 128, 256,
then 1024) followed by a global max-pool, so the global feature is exactly
permutation invariant. Heads:

* sup: fully connected 512 -> 256 -> C on the global feature, dropout 0.5 on
  the two hidden layers in train mode,
* rec: per-point layers 256 -> 256 -> 128 -> 3 on the concatenation of the
  global feature and the last per-point encoder features,
* seg: same structure as rec with C outputs and train-mode dropout on the
  first two hidden layers.

Forward and backward passes are written out explicitly; gradients are pinned
against central finite differences in the test suite. All arrays follow the
parameter dtype (float64 by default, float32 supported for speed).
"""

from __future__ import annotations

import numpy as np

from .cloud import as_rng
from .chamfer import chamfer_loss_region
from .errors import DataFormatError, NumericalError

ENCODER_WIDTHS = (64, 64, 128, 256, 1024)
SUP_HIDDEN = (512, 256)
HEAD_HIDDEN = (256, 256, 128)
GLOBAL_DIM = ENCODER_WIDTHS[-1]
POINT_FEAT_DIM = ENCODER_WIDTHS[3]
HEAD_IN_DIM = GLOBAL_DIM + POINT_FEAT_DIM
DROPOUT_RATE = 0.5
_HIDDEN = {"sup": SUP_HIDDEN, "rec": HEAD_HIDDEN, "seg": HEAD_HIDDEN}
HEAD_OUTPUTS = {"sup": "logits", "rec": "recon", "seg": "seg_logits"}
_DROPOUT_HEADS = ("sup", "seg")  # train-mode dropout on their first two hidden layers


def _glorot(rng, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def init_params(
    num_classes: int,
    task: str = "classification",
    seed=None,
    dtype=np.float64,
) -> dict:
    """Initialize all weights (uniform Glorot) and biases (zero).

    Classification gets the `sup` head, segmentation the `seg` head; the
    reconstruction head is always present.
    """
    if task not in ("classification", "segmentation"):
        raise DataFormatError(f"unknown task {task!r}")
    rng = as_rng(seed)
    dtype = np.dtype(dtype)
    params: dict = {}

    d_in = 3
    for i, width in enumerate(ENCODER_WIDTHS, start=1):
        params[f"enc{i}_w"] = _glorot(rng, d_in, width, dtype)
        params[f"enc{i}_b"] = np.zeros(width, dtype=dtype)
        d_in = width

    for head in ("sup" if task == "classification" else "seg", "rec"):
        d_in = GLOBAL_DIM if head == "sup" else HEAD_IN_DIM
        out = 3 if head == "rec" else num_classes
        for i, width in enumerate((*_HIDDEN[head], out), start=1):
            params[f"{head}{i}_w"] = _glorot(rng, d_in, width, dtype)
            params[f"{head}{i}_b"] = np.zeros(width, dtype=dtype)
            d_in = width
    return params


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def param_dtype(params: dict):
    return params["enc1_w"].dtype


def _as_batch(clouds, dtype):
    arr = np.ascontiguousarray(np.asarray(clouds), dtype=dtype)
    if arr.ndim == 2 and arr.shape[1] == 3:
        return arr[None], True
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DataFormatError(f"expected (n, 3) or (B, n, 3) clouds, got {arr.shape}")
    return arr, False


def _dropout_mask(rng, shape, dtype):
    keep = 1.0 - DROPOUT_RATE
    return (rng.uniform(size=shape) < keep).astype(dtype) / dtype.type(keep)


def _encode(params, x, layers: int) -> list:
    """Per-point activations of the first `layers` encoder layers for (rows, 3) points."""
    acts = []
    for i in range(1, layers + 1):
        x = x @ params[f"enc{i}_w"]
        x += params[f"enc{i}_b"]
        np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


def _max_pool_argmax(a5):
    """For (B, n, C) activations, the (B, C) row index of each column's
    maximum, the first (lowest) one on ties as np.argmax(axis=1) gives.

    Works one cloud at a time on the contiguous rows, which is several
    times faster than np.argmax along the strided point axis. Raises
    NumericalError if a maximum is not finite (NaN or inf).
    """
    B, n, C = a5.shape
    rank = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    argmax = np.empty((B, C), dtype=np.intp)
    for b in range(B):
        top = a5[b].max(axis=0)  # NaN if the column holds one
        if not np.isfinite(top).all():
            raise NumericalError("numerical overflow in encoder activations")
        argmax[b] = n - ((a5[b] == top) * rank).max(axis=0)
    return argmax


def point_features(params: dict, clouds, layer: int) -> np.ndarray:
    """Eval-mode activations of encoder layer `layer` (1-5) for (B, n, 3)
    clouds, as float64 (B, n, width); the layers above it are not run."""
    batch, _ = _as_batch(clouds, param_dtype(params))
    B, n, _ = batch.shape
    acts = _encode(params, batch.reshape(B * n, 3), layer)
    return np.asarray(acts[-1].reshape(B, n, -1), dtype=np.float64)


def forward_pass(
    params: dict,
    clouds,
    mode: str = "eval",
    heads=("sup",),
    dropout_seed=None,
):
    """Run the encoder and the requested heads.

    `clouds` is (n, 3) or (B, n, 3). Returns (outputs, trace): outputs maps
    "global" plus one key per requested head ("logits", "recon",
    "seg_logits"); trace carries every cached activation needed by
    backward(). Raises NumericalError if activations go non-finite.
    """
    if mode not in ("train", "eval"):
        raise DataFormatError(f"mode must be 'train' or 'eval', got {mode!r}")
    dtype = param_dtype(params)
    batch, single = _as_batch(clouds, dtype)
    B, n, _ = batch.shape
    if n < 1:
        raise DataFormatError("clouds must contain at least one point")
    drop_rng = as_rng(dropout_seed) if mode == "train" else None

    x = batch.reshape(B * n, 3)
    acts = _encode(params, x, len(ENCODER_WIDTHS))
    a5 = acts[-1].reshape(B, n, GLOBAL_DIM)
    argmax = _max_pool_argmax(a5)
    g = np.take_along_axis(a5, argmax[:, None, :], axis=1)[:, 0, :]

    outputs = {"global": g[0] if single else g}
    trace = {
        "params_ref": params,
        "B": B,
        "n": n,
        "single": single,
        "mode": mode,
        "x": x,
        "acts": acts,
        "global": g,
        "argmax": argmax,
        "heads": tuple(heads),
    }

    for head in heads:
        if head not in HEAD_OUTPUTS:
            raise DataFormatError(f"unknown head {head!r}")
        out, trace[head] = _head_forward(
            params, head, g, acts[3], B, n, drop_rng if head in _DROPOUT_HEADS else None
        )
        if head != "sup":
            out = out.reshape(B, n, -1)
        outputs[HEAD_OUTPUTS[head]] = out[0] if single else out
    return outputs, trace


def _head_forward(params, head, g, a4, B, n, drop_rng):
    """One head's output and its cached activations.

    `sup` reads the global feature; the per-point heads read
    concat(global, per-point features), with the first layer's weight stored
    as one (1280, d) matrix whose global slice is applied once per sample and
    broadcast over points instead of materializing the concatenation.
    """
    w1 = params[f"{head}1_w"]
    if head == "sup":
        z = g @ w1 + params["sup1_b"]
    else:
        zg = g @ w1[:GLOBAL_DIM]  # (B, d1)
        z = a4 @ w1[GLOBAL_DIM:]
        z += params[f"{head}1_b"]
        z3 = z.reshape(B, n, -1)
        z3 += zg[:, None, :]
    cache = {}
    for i in range(1, len(_HIDDEN[head]) + 1):
        np.maximum(z, 0.0, out=z)
        s, m = z, None
        if drop_rng is not None and i <= 2:
            m = _dropout_mask(drop_rng, z.shape, z.dtype)
            s = z * m
        cache[f"a{i}"], cache[f"s{i}"], cache[f"m{i}"] = z, s, m
        z = s @ params[f"{head}{i + 1}_w"] + params[f"{head}{i + 1}_b"]
    if not np.isfinite(z).all():
        raise NumericalError(f"numerical overflow in {head} head")
    return z, cache


def _head_backward(params, head, cache, dout, g, a4, B, n, grads):
    """Accumulate one head's parameter gradients; returns the gradients at
    the global feature and (per-point heads only) at the layer-4 features."""
    d = dout
    for i in range(len(_HIDDEN[head]), 0, -1):
        grads[f"{head}{i + 1}_w"] += cache[f"s{i}"].T @ d
        grads[f"{head}{i + 1}_b"] += d.sum(axis=0)
        d = d @ params[f"{head}{i + 1}_w"].T
        if cache[f"m{i}"] is not None:
            d = d * cache[f"m{i}"]
        d *= cache[f"a{i}"] > 0
    w1 = params[f"{head}1_w"]
    if head == "sup":
        grads["sup1_w"] += g.T @ d
        grads["sup1_b"] += d.sum(axis=0)
        return d @ w1.T, None
    # first layer: split gradient between the global and per-point slices
    per_sample = d.reshape(B, n, -1).sum(axis=1)  # (B, d1)
    grads[f"{head}1_w"][:GLOBAL_DIM] += g.T @ per_sample
    grads[f"{head}1_w"][GLOBAL_DIM:] += a4.T @ d
    grads[f"{head}1_b"] += d.sum(axis=0)
    return per_sample @ w1[:GLOBAL_DIM].T, d @ w1[GLOBAL_DIM:].T


def backward(params: dict, trace: dict, dlogits=None, drecon=None, dseg_logits=None) -> dict:
    """Exact gradients of a scalar loss given its gradients at head outputs.

    Upstream gradients match the shapes returned by forward_pass (batched or
    single). Heads without an upstream gradient contribute zero; encoder
    gradients route through max-pool argmax, dropout masks, and ReLU gates.
    """
    if trace.get("params_ref") is not params:
        raise DataFormatError("trace does not belong to these params")
    dtype = param_dtype(params)
    B, n, single = trace["B"], trace["n"], trace["single"]
    grads = zeros_like_params(params)
    dg = np.zeros((B, GLOBAL_DIM), dtype=dtype)
    da4_extra = None

    for head, d in (("sup", dlogits), ("rec", drecon), ("seg", dseg_logits)):
        if d is None:
            continue
        if head not in trace:
            raise DataFormatError(f"no {head} head in trace")
        d = np.asarray(d, dtype=dtype)
        if single:
            d = d[None]
        if head != "sup":
            d = d.reshape(B * n, -1)
        dgh, da4 = _head_backward(
            params, head, trace[head], d, trace["global"], trace["acts"][3], B, n, grads
        )
        dg += dgh
        if da4 is not None:
            da4_extra = da4 if da4_extra is None else da4_extra + da4

    # max-pool: route the global-feature gradient to the argmax rows; layer
    # 5's activation there is the global feature, so its ReLU gate is g > 0
    # and is applied before the scatter (every other row stays zero)
    dg *= trace["global"] > 0
    da5 = np.zeros((B, n, GLOBAL_DIM), dtype=dtype)
    np.put_along_axis(da5, trace["argmax"][:, None, :], dg[:, None, :], axis=1)
    dh = da5.reshape(B * n, GLOBAL_DIM)

    acts = trace["acts"]
    inputs = [trace["x"]] + acts[:-1]
    for i in range(len(ENCODER_WIDTHS), 0, -1):
        if i < len(ENCODER_WIDTHS):
            dh *= acts[i - 1] > 0
        grads[f"enc{i}_w"] += inputs[i - 1].T @ dh
        grads[f"enc{i}_b"] += dh.sum(axis=0)
        if i > 1:
            dh = dh @ params[f"enc{i}_w"].T
            if i - 1 == 4 and da4_extra is not None:
                dh += da4_extra
    return grads


# -- losses ----------------------------------------------------------------


def softmax_cross_entropy(logits, soft_label):
    """Cross entropy against a soft label, with the gradient w.r.t. logits.

    Stabilized by max subtraction; gradient is softmax(logits) - soft_label.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(soft_label, dtype=np.float64)
    if z.shape != y.shape:
        raise DataFormatError("logits and soft label shapes differ")
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = float(-(y * logp).sum(axis=-1).mean())
    grad = (np.exp(logp) - y) / np.prod(z.shape[:-1], dtype=np.float64)
    return loss, grad


def classification_loss_and_grads(
    params, clouds, soft_labels, mode: str = "train", dropout_seed=None
):
    """Mean cross entropy of a batch through encoder + sup head, with
    gradients for every parameter."""
    outputs, trace = forward_pass(
        params, clouds, mode=mode, heads=("sup",), dropout_seed=dropout_seed
    )
    loss, dlogits = softmax_cross_entropy(outputs["logits"], soft_labels)
    grads = backward(params, trace, dlogits=dlogits)
    return loss, grads


def segmentation_loss_and_grads(
    params, clouds, point_labels, mode: str = "train", dropout_seed=None
):
    """Mean per-point cross entropy through encoder + seg head."""
    outputs, trace = forward_pass(
        params, clouds, mode=mode, heads=("seg",), dropout_seed=dropout_seed
    )
    logits = outputs["seg_logits"]
    labels = np.asarray(point_labels, dtype=np.int64)
    if logits.shape[:-1] != labels.shape:
        raise DataFormatError("per-point labels do not match logits shape")
    num_classes = logits.shape[-1]
    onehot = np.eye(num_classes, dtype=np.float64)[labels]
    loss, dlogits = softmax_cross_entropy(logits, onehot)
    grads = backward(params, trace, dseg_logits=dlogits)
    return loss, grads


def region_chamfer_and_grad(recon, originals, regions, weight: float = 1.0):
    """Mean region-restricted Chamfer loss over a batch of reconstructions,
    and its gradient w.r.t. `recon` (float64) scaled by `weight`."""
    B = len(recon)
    drecon = np.zeros_like(recon, dtype=np.float64)
    total = 0.0
    for b in range(B):
        res = chamfer_loss_region(recon[b], originals[b], regions[b])
        total += res.value
        drecon[b] = res.grad_pred
    drecon *= weight / B
    return total / B, drecon


def reconstruction_loss_and_grads(
    params, deformed, originals, regions, weight: float = 1.0
):
    """Mean region-restricted Chamfer loss of reconstructions of deformed
    clouds against their originals, with weight-scaled parameter gradients.

    `regions` is one index array per sample. The returned loss is the
    unweighted batch mean; gradients carry the weight.
    """
    outputs, trace = forward_pass(params, deformed, heads=("rec",))
    recon = outputs["recon"]
    single = trace["single"]
    if single:
        recon = recon[None]
        originals = np.asarray(originals)[None]
        regions = [regions] if isinstance(regions, np.ndarray) else regions
    B = len(recon)
    if len(originals) != B or len(regions) != B:
        raise DataFormatError("originals/regions batch size mismatch")
    loss, drecon = region_chamfer_and_grad(recon, originals, regions, weight)
    grads = backward(params, trace, drecon=drecon[0] if single else drecon)
    return loss, grads
