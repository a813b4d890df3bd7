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

Each head has one path. forward_pass, infer and backward serve sup and
seg; the rec head runs only inside reconstruction_loss_and_grads, on the
rows of the deformed region.

Forward and backward passes are written out explicitly; gradients are pinned
against central finite differences in the test suite. All arrays follow the
parameter dtype (float64 by default, float32 supported for speed).

A head caches only what its backward pass reads: each hidden layer's output
after its ReLU and dropout. Dropout is applied in place, its keep mask drawn
in chunks of DROPOUT_CHUNK float64 uniforms (u < 0.5, the draws of one
Generator.uniform call), so neither the mask nor the activation before it
is kept; the backward pass gates on the cached output being positive and
doubles the gradient of a dropout layer. The seg head's two dropout layers
thus keep two (B*n, 256) arrays, where an activation, a mask and their
product per layer made six.

The encoder is one loop over the clouds of a batch: each cloud's rows run
through layers 1-4, then layer 5 fused with the max-pool, where the block
is one channel-major (1024, n) GEMM, a bias add and one argmax pass over
each channel's row, and the ReLU runs on the (B, 1024) maxima alone.
Layer 5's per-point activations are never kept. forward_pass writes each
cloud's rows of layers 1-4 into the trace arrays, next to the global
feature and the argmax row of each channel. Only those rows get a gradient
through the pool, one channel per live (cloud, channel) pair, so layer 5's
backward is a sparse product over those pairs, and layers 4-1 run on the
argmax rows plus the rows a per-point head sends a gradient to. The
per-point heads run on a set of rows. forward_pass gives seg every point,
so it stays dense. The reconstruction loss reads only the deformed region,
so it runs the rec head on the region rows alone, and layers 4-1 on the
region and argmax rows.

Inference (infer: evaluation, `pcda eval`, `pcda perplexity`) runs the
same loop and heads with no trace: it keeps the global feature and, for a
per-point head, the batch's layer-4 rows, and its outputs are those of an
eval-mode forward_pass bit for bit.

scipy.sparse, for layer 5's sparse backward, is imported by the first
backward pass (`pcda train`), so inference (`pcda eval`, `pcda perplexity`)
never loads it.
"""

from __future__ import annotations

import numpy as np

from .cloud import as_rng
from .chamfer import check_region, chamfer_loss_region
from .errors import DataFormatError, NumericalError

ENCODER_WIDTHS = (64, 64, 128, 256, 1024)
SUP_HIDDEN = (512, 256)
HEAD_HIDDEN = (256, 256, 128)
GLOBAL_DIM = ENCODER_WIDTHS[-1]
POINT_FEAT_DIM = ENCODER_WIDTHS[3]
HEAD_IN_DIM = GLOBAL_DIM + POINT_FEAT_DIM
DROPOUT_RATE = 0.5
DROPOUT_LAYERS = 2  # train-mode dropout on the first two hidden layers of sup and seg
DROPOUT_CHUNK = 1 << 16  # uniforms drawn per dropout chunk
_HIDDEN = {"sup": SUP_HIDDEN, "rec": HEAD_HIDDEN, "seg": HEAD_HIDDEN}
HEAD_OUTPUTS = {"sup": "logits", "seg": "seg_logits"}  # the heads of forward_pass
_DROPOUT_HEADS = ("sup", "seg")


def _glorot(rng, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def param_shapes(num_classes: int, task: str = "classification") -> dict:
    """Name -> shape of every parameter, in the order init_params draws them.

    Classification gets the `sup` head, segmentation the `seg` head; the
    reconstruction head is always present.
    """
    if task not in ("classification", "segmentation"):
        raise DataFormatError(f"unknown task {task!r}")
    shapes: dict = {}
    d_in = 3
    for i, width in enumerate(ENCODER_WIDTHS, start=1):
        shapes[f"enc{i}_w"], shapes[f"enc{i}_b"] = (d_in, width), (width,)
        d_in = width
    for head in ("sup" if task == "classification" else "seg", "rec"):
        d_in = GLOBAL_DIM if head == "sup" else HEAD_IN_DIM
        out = 3 if head == "rec" else num_classes
        for i, width in enumerate((*_HIDDEN[head], out), start=1):
            shapes[f"{head}{i}_w"], shapes[f"{head}{i}_b"] = (d_in, width), (width,)
            d_in = width
    return shapes


def init_params(
    num_classes: int,
    task: str = "classification",
    seed=None,
    dtype=np.float64,
) -> dict:
    """Initialize all weights (uniform Glorot) and biases (zero) with the
    shapes of param_shapes."""
    shapes = param_shapes(num_classes, task)
    rng = as_rng(seed)
    dtype = np.dtype(dtype)
    return {
        name: _glorot(rng, *shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype=dtype)
        for name, shape in shapes.items()
    }


def zeros_like_params(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def param_dtype(params: dict):
    return params["enc1_w"].dtype


def _as_batch(clouds, dtype):
    arr = np.ascontiguousarray(np.asarray(clouds), dtype=dtype)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DataFormatError(f"expected (B, n, 3) clouds, got {arr.shape}")
    return arr


def _dropout_in_place(rng, z):
    """Inverted dropout on the C-contiguous `z`, in place.

    The keep mask is drawn DROPOUT_CHUNK uniforms at a time into reused
    buffers: each chunk of `z` is multiplied by its 0/1 mask, then all of
    `z` by 1 / (1 - DROPOUT_RATE) = 2. The draws and the products are those
    of `z * ((rng.uniform(size=z.shape) < 0.5) / 0.5)` bit for bit, and
    the generator ends in the same state, without a (rows, width) float64
    array of uniforms or a mask the size of `z`.
    """
    keep = 1.0 - DROPOUT_RATE
    flat = z.reshape(-1)
    uniforms = np.empty(min(flat.size, DROPOUT_CHUNK))
    kept = np.empty(len(uniforms), dtype=bool)
    for lo in range(0, flat.size, DROPOUT_CHUNK):
        part = flat[lo : lo + DROPOUT_CHUNK]
        u, k = uniforms[: part.size], kept[: part.size]
        rng.random(out=u)
        np.less(u, keep, out=k)
        part *= k
    z *= 1.0 / keep


def _layer(params, i, x, out=None):
    """Encoder layer `i` (1-5) on (rows, d) activations `x`: relu(x @ W + b),
    into `out` if given."""
    out = np.matmul(x, params[f"enc{i}_w"], out=out)
    out += params[f"enc{i}_b"]
    np.maximum(out, 0.0, out=out)
    return out


def _encode(params, x, layers: int) -> list:
    """Per-point activations of the first `layers` encoder layers for (rows, 3) points."""
    acts = []
    for i in range(1, layers + 1):
        x = _layer(params, i, x)
        acts.append(x)
    return acts


def _encode_pool(params, batch, keep=()):
    """The encoder, one cloud at a time, for (B, n, 3) clouds: the (B, 1024)
    global feature, the (B, 1024) row of each channel's maximum (the first,
    lowest, one on ties, as np.argmax(axis=0) gives), and {i: (B*n, width)}
    activations of each layer i in `keep` (a subset of 1-4).

    Each cloud's rows are padded with zeros to a multiple of 8 and run
    through layers 1-4 in reused (m, width) blocks; a kept layer's real
    rows are written into the batch array (directly, when no row is
    padding). Layer 5 is fused with the max-pool: the cloud's block of
    layer-5 pre-activations is built channel-major, as one (1024, m) GEMM
    into a reused buffer; the bias is added in place, the padding columns
    are set to -inf, so they never hold a maximum, and one argmax pass over
    each channel's contiguous row gives its maximum. The batch's per-point
    layer-5 activations never exist, and the ReLU runs on the (B, 1024)
    maxima alone: it is monotone, so it keeps the first maximum of a live
    channel, and a channel whose maximum is <= 0 is dead, with g = 0 and
    argmax row 0.

    The padding keeps every GEMM's row count a multiple of 8. Over a
    ragged row count, OpenBLAS's float64 GEMM in the channel-major layout
    can give other bits than a row-major a4 @ W5, and other bits again at
    another BLAS thread count, and over a single row numpy takes a
    vector-matrix product with other bits than a GEMM; over padded rows
    every layer matches the batched row-major products of _encode bit for
    bit. Raises NumericalError if a maximum is not finite (NaN or +inf).
    """
    B, n, _ = batch.shape
    dtype = param_dtype(params)
    m = -(-n // 8) * 8
    blocks = [np.zeros((m, 3), dtype=dtype)]
    blocks += [np.empty((m, w), dtype=dtype) for w in ENCODER_WIDTHS[:4]]
    kept = {i: np.empty((B * n, ENCODER_WIDTHS[i - 1]), dtype=dtype) for i in keep}
    w5t, b5 = params["enc5_w"].T, params["enc5_b"][:, None]
    zt = np.empty((GLOBAL_DIM, m), dtype=dtype)
    channels = np.arange(GLOBAL_DIM)
    g = np.empty((B, GLOBAL_DIM), dtype=dtype)
    argmax = np.empty((B, GLOBAL_DIM), dtype=np.intp)
    for b in range(B):
        rows = slice(b * n, (b + 1) * n)
        h = blocks[0]
        h[:n] = batch[b]
        for i in range(1, len(ENCODER_WIDTHS)):
            direct = i in kept and m == n
            h = _layer(params, i, h, kept[i][rows] if direct else blocks[i])
            if i in kept and not direct:
                kept[i][rows] = h[:n]
        np.matmul(w5t, h.T, out=zt)
        zt += b5
        zt[:, n:] = -np.inf
        argmax[b] = zt.argmax(axis=1)  # NaN wins, as the first NaN row
        g[b] = zt[channels, argmax[b]]
    argmax[g <= 0] = 0
    np.maximum(g, 0.0, out=g)
    if not np.isfinite(g).all():
        raise NumericalError("numerical overflow in encoder activations")
    return g, argmax, kept


def point_features(params: dict, clouds, layer: int) -> np.ndarray:
    """Eval-mode activations of encoder layer `layer` (1-5) for (B, n, 3)
    clouds, as float64 (B, n, width); the layers above it are not run."""
    batch = _as_batch(clouds, param_dtype(params))
    B, n, _ = batch.shape
    acts = _encode(params, batch.reshape(B * n, 3), layer)
    return np.asarray(acts[-1].reshape(B, n, -1), dtype=np.float64)


def _forward(params, clouds, heads, drop_rng, trace: bool):
    """(outputs, trace or None) of forward_pass and infer. Without a trace
    the encoder keeps only the layer-4 rows a per-point head reads, and the
    heads keep no activations."""
    batch = _as_batch(clouds, param_dtype(params))
    B, n, _ = batch.shape
    if n < 1:
        raise DataFormatError("clouds must contain at least one point")
    for head in heads:
        if head not in HEAD_OUTPUTS:
            raise DataFormatError(f"unknown head {head!r}")
        if f"{head}1_w" not in params:
            raise DataFormatError(f"the parameters hold no {head} head")
    if trace:
        keep = (1, 2, 3, 4)
    else:
        keep = (4,) if "seg" in heads else ()
    g, argmax, acts = _encode_pool(params, batch, keep)

    outputs = {"global": g}
    caches = {}
    for head in heads:
        out, caches[head] = _head_forward(
            params, head, g, acts.get(4), None,
            drop_rng if head in _DROPOUT_HEADS else None, keep=trace,
        )
        if head != "sup":
            out = out.reshape(B, n, -1)
        outputs[HEAD_OUTPUTS[head]] = out
    if not trace:
        return outputs, None
    return outputs, {
        "params_ref": params,
        "B": B,
        "n": n,
        "x": batch.reshape(B * n, 3),
        "acts": [acts[i] for i in keep],
        "global": g,
        "argmax": argmax,
        **caches,
    }


def forward_pass(
    params: dict,
    clouds,
    mode: str = "eval",
    heads=("sup",),
    dropout_seed=None,
):
    """Run the encoder and the requested heads.

    `clouds` is (B, n, 3); `heads` is a subset of the sup and seg heads
    that the parameters hold. Returns (outputs, trace): outputs
    maps "global" plus one key per requested head ("logits", "seg_logits");
    trace carries every cached activation needed by backward(). Raises
    DataFormatError for another head and NumericalError if activations go
    non-finite.
    """
    if mode not in ("train", "eval"):
        raise DataFormatError(f"mode must be 'train' or 'eval', got {mode!r}")
    drop_rng = as_rng(dropout_seed) if mode == "train" else None
    return _forward(params, clouds, heads, drop_rng, trace=True)


def infer(params: dict, clouds, heads=("sup",)) -> dict:
    """The outputs of an eval-mode forward_pass, bit for bit, without its
    trace: the encoder keeps the (B, 1024) global feature and, when a
    per-point head follows, the batch's layer-4 rows, and nothing else."""
    return _forward(params, clouds, heads, None, trace=False)[0]


def _head_forward(params, head, g, a4, cloud, drop_rng, keep=True):
    """One head's output and its cached activations.

    `sup` reads the (B, 1024) global feature `g`. The per-point heads run on
    rows: `a4` holds layer-4 rows and `cloud` the cloud index of each row,
    ascending, with every cloud holding at least one row; `cloud` is None
    when `a4` holds every point of the B clouds in order. They read
    concat(global, per-point features), with the first layer's weight stored
    as one (1280, d) matrix whose global slice is applied once per cloud and
    added to its rows instead of materializing the concatenation: by
    broadcast over the clouds' equal row blocks when `cloud` is None, else
    by gather.

    The cache holds what the backward pass reads: `a4` and `cloud` for the
    per-point heads, and each hidden layer's output `s_i`, after its ReLU
    and, in train mode, after dropout. With `drop_rng`, hidden layers 1 and
    2 take inverted dropout in place (_dropout_in_place), and the cache
    records it under "dropped"; no pre-dropout activation or mask is kept,
    because s_i > 0 exactly where the ReLU is live and the unit kept.
    With keep=False the cache keeps no array, so each hidden layer's output
    is freed once the next one is computed.
    """
    w1 = params[f"{head}1_w"]
    cache = {} if drop_rng is None else {"dropped": DROPOUT_LAYERS}
    if head == "sup":
        z = g @ w1
        z += params["sup1_b"]
    else:
        zg = g @ w1[:GLOBAL_DIM]  # (B, d1)
        z = a4 @ w1[GLOBAL_DIM:]
        z += params[f"{head}1_b"]
        if cloud is None:
            z3 = z.reshape(len(g), -1, z.shape[1])
            z3 += zg[:, None, :]
        else:
            z += zg[cloud]
        if keep:
            cache["a4"], cache["cloud"] = a4, cloud
    for i in range(1, len(_HIDDEN[head]) + 1):
        np.maximum(z, 0.0, out=z)
        if i <= cache.get("dropped", 0):
            _dropout_in_place(drop_rng, z)
        if keep:
            cache[f"s{i}"] = z
        z = z @ params[f"{head}{i + 1}_w"]
        z += params[f"{head}{i + 1}_b"]
    if not np.isfinite(z).all():
        raise NumericalError(f"numerical overflow in {head} head")
    return z, cache


def _head_backward(params, head, cache, dout, g, grads):
    """Accumulate one head's parameter gradients; returns the gradients at
    the global feature and (per-point heads only) at the head's layer-4 rows."""
    d = dout
    for i in range(len(_HIDDEN[head]), 0, -1):
        s = cache[f"s{i}"]
        grads[f"{head}{i + 1}_w"] += s.T @ d
        grads[f"{head}{i + 1}_b"] += d.sum(axis=0)
        d = d @ params[f"{head}{i + 1}_w"].T
        # s > 0 is the ReLU gate times the keep mask; with the exact scale
        # of 2 this equals (d * 2 * mask) * (relu > 0) bit for bit
        d *= s > 0
        if i <= cache.get("dropped", 0):
            d *= 1.0 / (1.0 - DROPOUT_RATE)
    w1 = params[f"{head}1_w"]
    if head == "sup":
        grads["sup1_w"] += g.T @ d
        grads["sup1_b"] += d.sum(axis=0)
        return d @ w1.T, None
    # first layer: the global slice sums each cloud's rows, one segment each
    if cache["cloud"] is None:
        per_cloud = d.reshape(len(g), -1, d.shape[1]).sum(axis=1)  # (B, d1)
    else:
        starts = np.searchsorted(cache["cloud"], np.arange(len(g)))
        per_cloud = np.add.reduceat(d, starts, axis=0)
    grads[f"{head}1_w"][:GLOBAL_DIM] += g.T @ per_cloud
    grads[f"{head}1_w"][GLOBAL_DIM:] += cache["a4"].T @ d
    grads[f"{head}1_b"] += d.sum(axis=0)
    return per_cloud @ w1[:GLOBAL_DIM].T, d @ w1[GLOBAL_DIM:].T


def _encoder_backward(params, trace, dg, grads, rows, da4):
    """Accumulate the encoder's gradients from `dg` at the global feature
    and `da4` at the layer-4 rows `rows` (sorted flat indices into B*n).

    Only the argmax row of each channel gets a gradient through the
    max-pool, and layer 5's activation there is the global feature, so its
    ReLU gate is g > 0. Layer 5's pre-activation gradient on the argmax
    rows holds one entry per live (cloud, channel) pair, so it is kept as a
    sparse (argmax rows, 1024) matrix and both layer-5 products are sparse.
    Layers 4-1 run on the union of the argmax rows and `rows`; every other
    row's gradient is zero down to layer 1.
    """
    from scipy.sparse import csr_matrix

    B, n = trace["B"], trace["n"]
    live = trace["global"] > 0
    dg *= live
    flat = trace["argmax"] + (np.arange(B) * n)[:, None]
    arg_rows, slot = np.unique(flat[live], return_inverse=True)
    # each (row, channel) pair is unique, so no entries are summed
    dh5 = csr_matrix(
        (dg[live], (slot, np.nonzero(live)[1])), shape=(len(arg_rows), GLOBAL_DIM)
    )
    ins = [trace["x"], *trace["acts"]]  # inputs of layers 1-5
    grads["enc5_w"] += (dh5.T @ ins[4][arg_rows]).T
    grads["enc5_b"] += dg.sum(axis=0)

    union = np.union1d(rows, arg_rows)
    if len(union) == len(rows):
        dh = da4  # rows is the whole union, in order
    else:
        dh = np.zeros((len(union), POINT_FEAT_DIM), dtype=dg.dtype)
        dh[np.searchsorted(union, rows)] = da4
    dh[np.searchsorted(union, arg_rows)] += dh5 @ np.ascontiguousarray(params["enc5_w"].T)
    if len(union) < B * n:
        ins = [a[union] for a in ins]
    for i in range(len(ENCODER_WIDTHS) - 1, 0, -1):
        dh *= ins[i] > 0
        grads[f"enc{i}_w"] += ins[i - 1].T @ dh
        grads[f"enc{i}_b"] += dh.sum(axis=0)
        if i > 1:
            dh = dh @ params[f"enc{i}_w"].T


def backward(params: dict, trace: dict, dlogits=None, dseg_logits=None) -> dict:
    """Exact gradients of a scalar loss given its gradients at head outputs.

    Upstream gradients match the shapes returned by forward_pass. Heads
    without an upstream gradient contribute zero; encoder gradients route
    through max-pool argmax, dropout masks, and ReLU gates.
    """
    if trace.get("params_ref") is not params:
        raise DataFormatError("trace does not belong to these params")
    dtype = param_dtype(params)
    B, n = trace["B"], trace["n"]
    grads = zeros_like_params(params)
    dg = np.zeros((B, GLOBAL_DIM), dtype=dtype)
    # sup sends no layer-4 gradient outside the argmax rows, seg one to every row
    rows, da4 = np.empty(0, dtype=np.intp), np.empty((0, POINT_FEAT_DIM), dtype=dtype)

    for head, d in (("sup", dlogits), ("seg", dseg_logits)):
        if d is None:
            continue
        if head not in trace:
            raise DataFormatError(f"no {head} head in trace")
        d = np.asarray(d, dtype=dtype)
        if head == "seg":
            d = d.reshape(B * n, -1)
        dgh, da4h = _head_backward(params, head, trace[head], d, trace["global"], grads)
        dg += dgh
        if head == "seg":
            rows, da4 = np.arange(B * n), da4h
    _encoder_backward(params, trace, dg, grads, rows, da4)
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


def reconstruction_loss_and_grads(
    params, deformed, originals, regions, weight: float = 1.0
):
    """Mean region-restricted Chamfer loss of reconstructions of deformed
    clouds against their originals, with weight-scaled parameter gradients.

    `regions` is one index array per sample. The returned loss is the
    unweighted batch mean; gradients carry the weight. The loss reads only
    the region rows of the reconstruction, so the rec head runs on those
    rows alone and the encoder backward on them and the argmax rows.
    """
    _, trace = forward_pass(params, deformed, heads=())
    B, n = trace["B"], trace["n"]
    if len(originals) != B or len(regions) != B:
        raise DataFormatError("originals/regions batch size mismatch")
    sorted_regions = [np.sort(check_region(r, n)) for r in regions]
    rows = np.concatenate([b * n + r for b, r in enumerate(sorted_regions)])
    cloud = np.repeat(np.arange(B), [len(r) for r in sorted_regions])
    out, cache = _head_forward(
        params, "rec", trace["global"], trace["acts"][3][rows], cloud, None
    )
    recon = np.zeros((B * n, 3), dtype=out.dtype)
    recon[rows] = out
    recon = recon.reshape(B, n, 3)
    drecon = np.zeros((B, n, 3))
    total = 0.0
    for b in range(B):
        res = chamfer_loss_region(recon[b], originals[b], regions[b])
        total += res.value
        drecon[b] = res.grad_pred
    drecon *= weight / B
    grads = zeros_like_params(params)
    dout = drecon.reshape(B * n, 3)[rows].astype(out.dtype)
    dg, da4 = _head_backward(params, "rec", cache, dout, trace["global"], grads)
    del cache, out, recon  # the encoder backward reads none of them
    _encoder_backward(params, trace, dg, grads, rows, da4)
    return total / B, grads
