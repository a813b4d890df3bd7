"""Domain-adaptive training: every step takes a supervised Adam update on a
source batch, then self-supervised reconstruction updates on deformed clouds
of the unlabelled target domain (and optionally of the source batch).

Every random draw is derived from a seed sequence keyed by (run seed,
stream, epoch, step, item), never from a shared mutable RNG, so a run is a
pure function of its config and inputs: repeating it reproduces metric logs
and checkpoints byte for byte, and resuming from a checkpoint continues the
exact same trajectory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .cloud import as_rng, jitter, rotate_z
from .dataio import Dataset, read_tensors, save_tensors
from .deform import FEATURE_KINDS, DeformSpec, apply_deformation
from .errors import DataFormatError, NumericalError
from .evaluation import mean_iou
from .mixup import mixup_classify, mixup_segment
from .network import (
    HEAD_OUTPUTS,
    classification_loss_and_grads,
    infer,
    init_params,
    param_shapes,
    point_features,
    reconstruction_loss_and_grads,
    segmentation_loss_and_grads,
    softmax_cross_entropy,
    zeros_like_params,
)

# seed-stream tags: top level, then per-epoch sub-streams
STREAM_SPLIT = 0
STREAM_EPOCH = 1
STREAM_INIT = 2
_SRC_PERM, _TGT_PERM, _SUP_AUG, _MIX, _DROP, _TGT_AUG, _TGT_DEF, _SRC_DEF = range(8)

DTYPES = {"float32": np.float32, "float64": np.float64}
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_CHUNK = 1 << 16  # elements per in-cache Adam chunk


def _seed(*parts) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(p) for p in parts])


@dataclass
class TrainConfig:
    """All knobs of one training run."""

    task: str = "classification"  # or "segmentation"
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 5e-5
    ssl_weight: float = 0.25  # 0 disables the reconstruction half-step
    use_mixup: bool = True
    mixup_alpha: float = 0.4
    mixup_beta: float = 0.4
    deform: DeformSpec = field(default_factory=DeformSpec)
    deform_domains: str = "target-only"  # or "source-and-target"
    val_fraction: float = 0.2
    augment: bool = True
    jitter_sigma: float = 0.01
    jitter_clip: float = 0.02
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.task not in ("classification", "segmentation"):
            raise DataFormatError(f"unknown task {self.task!r}")
        if self.deform_domains not in ("target-only", "source-and-target"):
            raise DataFormatError(f"unknown deform_domains {self.deform_domains!r}")
        if self.dtype not in DTYPES:
            raise DataFormatError("dtype must be 'float32' or 'float64'")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataFormatError("epochs and batch_size must be positive")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise DataFormatError("lr must be positive and finite")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise DataFormatError("weight_decay must be non-negative and finite")
        if not (self.ssl_weight >= 0 and math.isfinite(self.ssl_weight)):
            raise DataFormatError("ssl_weight must be non-negative and finite")
        if not 0 <= self.val_fraction < 1:
            raise DataFormatError("val_fraction must be in [0, 1)")
        if not all(x > 0 and math.isfinite(x) for x in (self.mixup_alpha, self.mixup_beta)):
            raise DataFormatError("mixup_alpha and mixup_beta must be positive and finite")
        if not all(x >= 0 and math.isfinite(x) for x in (self.jitter_sigma, self.jitter_clip)):
            raise DataFormatError("jitter_sigma and jitter_clip must be non-negative and finite")


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 to 0 at total_steps."""
    if total_steps <= 0:
        return base_lr
    t = min(max(step, 0), total_steps)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * t / total_steps))


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params: dict) -> AdamState:
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params))


def adam_step(params: dict, grads: dict, state: AdamState, lr: float, cfg: TrainConfig):
    """One Adam update in place. Weight decay is classic L2, added to the
    gradient before the moment updates.

    Each parameter is updated in chunks of ADAM_CHUNK elements whose
    temporaries go to cache-sized scratch buffers, in the dtypes and order
    of operations of `p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)`: a
    float64 `lr` still scales a float32 step in float64."""
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    dtype = np.result_type(*params.values())
    step_dtype = np.result_type(lr, dtype)
    bufs = np.empty((2, ADAM_CHUNK), dtype=dtype)
    step_buf = bufs[0] if step_dtype == dtype else np.empty(ADAM_CHUNK, dtype=step_dtype)
    for k, param in params.items():
        flat = [a.reshape(-1) for a in (param, grads[k], state.m[k], state.v[k])]
        for lo in range(0, param.size, ADAM_CHUNK):
            p, g, m, v = (a[lo : lo + ADAM_CHUNK] for a in flat)
            tmp, tmp2, step = bufs[0, : p.size], bufs[1, : p.size], step_buf[: p.size]
            if cfg.weight_decay:
                g = np.add(g, np.multiply(cfg.weight_decay, p, out=tmp), out=tmp)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=tmp2)
            v *= b2
            np.multiply(1.0 - b2, g, out=tmp2)
            v += np.multiply(tmp2, g, out=tmp2)
            np.multiply(lr, np.divide(m, c1, out=tmp), out=step)
            np.divide(v, c2, out=tmp2)
            np.sqrt(tmp2, out=tmp2)
            tmp2 += eps
            p -= np.divide(step, tmp2, out=step)


def stratified_split(labels, val_fraction: float, seed):
    """Per-class shuffled split into (train_idx, val_idx)."""
    y = np.asarray(labels, dtype=np.int64)
    rng = as_rng(seed)
    train_parts, val_parts = [], []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        n_val = int(round(val_fraction * len(idx)))
        if val_fraction > 0 and len(idx) >= 2:
            n_val = min(max(n_val, 1), len(idx) - 1)
        else:
            n_val = 0
        val_parts.append(idx[:n_val])
        train_parts.append(idx[n_val:])
    train = np.sort(np.concatenate(train_parts))
    val = np.sort(np.concatenate(val_parts)) if val_parts else np.empty(0, np.int64)
    return train, val


def uniform_split(n: int, val_fraction: float, seed):
    rng = as_rng(seed)
    perm = rng.permutation(n)
    n_val = int(round(val_fraction * n))
    if val_fraction > 0 and n >= 2:
        n_val = min(max(n_val, 1), n - 1)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


# -- batched inference -----------------------------------------------------


def _eval_batches(params, points, batch_size, heads, key):
    if batch_size < 1:
        raise DataFormatError(f"batch size must be positive, got {batch_size}")
    pts = np.asarray(points, dtype=np.float64)
    return np.concatenate(
        [
            infer(params, pts[lo : lo + batch_size], heads=heads)[key]
            for lo in range(0, len(pts), batch_size)
        ]
    )


def predict_logits(params: dict, points, batch_size: int = 32, head: str = "sup"):
    return _eval_batches(params, points, batch_size, (head,), HEAD_OUTPUTS[head])


def extract_global_features(params: dict, points, batch_size: int = 32) -> np.ndarray:
    """Eval-mode global feature for each cloud, as float64 (N, 1024)."""
    return _eval_batches(params, points, batch_size, (), "global").astype(np.float64)


def evaluate_classification(params: dict, dataset: Dataset, batch_size: int = 32) -> dict:
    """Accuracy and mean cross entropy on a labelled dataset."""
    pts = dataset.points_array()
    labels = dataset.labels()
    logits = predict_logits(params, pts, batch_size)
    onehot = np.eye(dataset.num_classes)[labels]
    ce, _ = softmax_cross_entropy(logits, onehot)
    pred = logits.argmax(axis=1)
    return {
        "accuracy": float((pred == labels).mean()),
        "cross_entropy": float(ce),
        "count": len(labels),
    }


def evaluate_segmentation(params: dict, dataset: Dataset, batch_size: int = 16) -> dict:
    """Mean per-cloud IoU, per-point accuracy, and cross entropy."""
    pts = dataset.points_array()
    labels = np.stack([s.labels for s in dataset.samples])
    logits = predict_logits(params, pts, batch_size, head="seg")
    logits = logits.reshape(labels.shape[0], labels.shape[1], -1)
    onehot = np.eye(dataset.num_classes)[labels]
    ce, _ = softmax_cross_entropy(logits, onehot)
    pred = logits.argmax(axis=2)
    ious = [
        mean_iou(pred[i], labels[i], dataset.num_classes) for i in range(len(labels))
    ]
    return {
        "mean_iou": float(np.mean(ious)),
        "point_accuracy": float((pred == labels).mean()),
        "cross_entropy": float(ce),
        "count": len(labels),
    }


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(path, params, best_params, adam: AdamState, meta: dict) -> None:
    """Write a checkpoint: the four tensor groups and the metadata."""
    groups = {"param": params, "best": best_params, "adam_m": adam.m, "adam_v": adam.v}
    tensors = {f"{g}/{k}": v for g, arrays in groups.items() for k, v in arrays.items()}
    save_tensors(path, tensors, {**meta, "adam_t": adam.t})


def _check_architecture(path, params: dict, meta: dict):
    """Refuse parameters that are not the network of param_shapes for the
    task and class count their output layer implies, in float32 or float64,
    or that disagree with the task and class count the metadata records."""
    task = "classification" if "sup1_w" in params else "segmentation"
    out = params.get("sup3_w" if task == "classification" else "seg4_w")
    if out is None or out.ndim != 2:
        raise DataFormatError(f"{path}: no classification or segmentation output layer")
    num_classes = out.shape[1]
    shapes = param_shapes(num_classes, task)
    if params.keys() != shapes.keys() or any(params[k].shape != v for k, v in shapes.items()):
        raise DataFormatError(
            f"{path}: parameters are not the {task} network with {num_classes} classes"
        )
    dtypes = {p.dtype for p in params.values()}
    if dtypes not in ({np.dtype(np.float32)}, {np.dtype(np.float64)}):
        raise DataFormatError(f"{path}: parameters must be float32 or float64, got {dtypes}")
    for key, value in (("task", task), ("num_classes", num_classes)):
        if key in meta and meta[key] != value:
            raise DataFormatError(f"{path}: metadata {key}={meta[key]!r}, parameters say {value!r}")


def _read_checkpoint(path, copy) -> tuple:
    """({group: {name: array}}, adam_t, meta) of a checkpoint whose four
    groups agree in names, shapes and dtypes, whose parameters pass
    _check_architecture and whose adam_t is a non-negative int. The tensors
    whose full name passes `copy` are copies; the others are read-only
    views of the mapped file, of which only the headers are read
    (read_tensors)."""
    tensors, meta = read_tensors(path, copy)
    groups = {g: {} for g in ("param", "best", "adam_m", "adam_v")}
    for name, arr in tensors.items():
        group, _, key = name.partition("/")
        if group not in groups:
            raise DataFormatError(f"{path}: unexpected tensor group {group!r}")
        groups[group][key] = arr
    params = groups["param"]
    if not params or any(
        g.keys() != params.keys()
        or any((g[k].shape, g[k].dtype) != (p.shape, p.dtype) for k, p in params.items())
        for g in groups.values()
    ):
        raise DataFormatError(f"{path}: incomplete checkpoint or mismatched groups")
    _check_architecture(path, params, meta)
    t = meta.get("adam_t")
    if type(t) is not int or t < 0:
        raise DataFormatError(f"{path}: adam_t must be a non-negative integer, got {t!r}")
    return groups, t, meta


def load_checkpoint(path):
    """(params, best params, AdamState, meta) of a checkpoint, as copies."""
    groups, t, meta = _read_checkpoint(path, copy=lambda name: True)
    params, best, m, v = groups.values()
    return params, best, AdamState(m=m, v=v, t=t), meta


def _resume_state(path, meta: dict) -> tuple:
    """(epoch, best_val, best_epoch) from a checkpoint's metadata. Raises
    DataFormatError unless epoch >= 0 and -1 <= best_epoch <= epoch are ints
    and best_val is a number, as train writes them."""
    epoch, best_val, best_epoch = (meta.get(k) for k in ("epoch", "best_val", "best_epoch"))
    if (
        type(epoch) is not int
        or epoch < 0
        or type(best_epoch) is not int
        or not -1 <= best_epoch <= epoch
        or type(best_val) not in (int, float)
    ):
        raise DataFormatError(
            f"{path}: bad resume metadata epoch={epoch!r}, best_val={best_val!r}, "
            f"best_epoch={best_epoch!r}"
        )
    return epoch, float(best_val), best_epoch


def load_params(path) -> tuple:
    """Best-scoring parameters from a checkpoint, with its metadata. The
    whole checkpoint is checked as load_checkpoint checks it, but the file
    is mapped, so only its tensor headers and the `best` group are read,
    and only `best` is copied."""
    groups, _, meta = _read_checkpoint(path, copy=lambda name: name.startswith("best/"))
    return groups["best"], meta


# -- the training loop -----------------------------------------------------


@dataclass
class TrainResult:
    params: dict
    best_params: dict
    best_epoch: int
    best_val: float
    metrics: list
    run_dir: str


def _augment(points, cfg: TrainConfig, seed):
    if not cfg.augment:
        return points
    rng = as_rng(seed)
    out = rotate_z(points, rng.uniform(0.0, 2.0 * np.pi))
    return jitter(out, sigma=cfg.jitter_sigma, clip=cfg.jitter_clip, seed=rng)


def _reconstruction_loss_and_grads(params, clouds, cfg, epoch, step, tag):
    """Deform every cloud in the batch and reconstruct it: the unweighted
    region Chamfer loss and ssl_weight-scaled gradients."""
    spec = cfg.deform
    feats = point_features(params, clouds, spec.layer) if spec.kind in FEATURE_KINDS else None
    pairs = [
        apply_deformation(
            cloud,
            spec,
            seed=_seed(cfg.seed, STREAM_EPOCH, epoch, tag, step, j),
            features=None if feats is None else feats[j],
        )
        for j, cloud in enumerate(clouds)
    ]
    del feats  # float64 (B, n, width): not to be held through the reconstruction
    return reconstruction_loss_and_grads(
        params,
        np.stack([p.deformed for p in pairs]),
        clouds,
        [p.region for p in pairs],
        weight=cfg.ssl_weight,
    )


def _sup_batch(samples, cfg: TrainConfig, num_classes, epoch, step):
    """Clouds and labels of one supervised batch: soft class labels or
    per-point labels. With mixup each sample is mixed with its successor."""
    if cfg.task == "segmentation":
        mix, mixed_key = mixup_segment, "point_labels"
        labels = [s.labels for s in samples]
    else:
        mix, mixed_key = partial(mixup_classify, num_classes=num_classes), "soft_label"
        labels = np.eye(num_classes)[[s.label for s in samples]]
    if cfg.use_mixup and len(samples) >= 2:
        mixed = [
            mix(
                a, b, alpha=cfg.mixup_alpha, beta=cfg.mixup_beta,
                seed=_seed(cfg.seed, STREAM_EPOCH, epoch, _MIX, step, j),
            )
            for j, (a, b) in enumerate(zip(samples, samples[1:] + samples[:1]))
        ]
        return np.stack([m.points for m in mixed]), np.stack([getattr(m, mixed_key) for m in mixed])
    return np.stack([s.points for s in samples]), np.stack(labels)


def _dump_diagnostic(run_dir, params, epoch, step, phase, error):
    path = os.path.join(run_dir, "diagnostic.tens")
    tensors = {f"param/{k}": v for k, v in params.items()}
    save_tensors(
        path,
        tensors,
        {"epoch": epoch, "step": step, "phase": phase, "error": str(error)},
    )
    return path


def prepare_run(source: Dataset, target: Dataset | None, cfg: TrainConfig) -> tuple:
    """Check a run's inputs against its config before anything is written.

    Returns (training samples, validation set, target clouds or None, steps
    per epoch); raises DataFormatError for a run that could not complete.
    """
    if cfg.task == "segmentation" and not source.segmented:
        raise DataFormatError("segmentation training needs per-point labels")
    if cfg.task == "classification" and source.segmented:
        raise DataFormatError("classification training needs class labels")
    use_ssl = cfg.ssl_weight > 0
    if use_ssl and (target is None or not target.samples):
        raise DataFormatError("reconstruction training needs target clouds")

    if cfg.task == "classification":
        tr_idx, val_idx = stratified_split(
            source.labels(), cfg.val_fraction, _seed(cfg.seed, STREAM_SPLIT)
        )
    else:
        tr_idx, val_idx = uniform_split(
            len(source.samples), cfg.val_fraction, _seed(cfg.seed, STREAM_SPLIT)
        )
    if len(val_idx) == 0:
        raise DataFormatError("validation split is empty; lower batch or add data")
    train_samples = [source.samples[i] for i in tr_idx]
    val_set = Dataset(
        samples=[source.samples[i] for i in val_idx], num_classes=source.num_classes
    )
    tgt_pts = target.points_array() if use_ssl else None

    n_src = len(train_samples)
    if use_ssl:
        steps_per_epoch = min(n_src, len(tgt_pts)) // cfg.batch_size
    else:
        steps_per_epoch = n_src // cfg.batch_size
    if steps_per_epoch < 1:
        raise DataFormatError("not enough samples for a single batch")
    if use_ssl and cfg.deform.kind in FEATURE_KINDS:
        both = cfg.deform_domains == "source-and-target"
        n = min(len(s.points) for s in target.samples + (source.samples if both else []))
        if cfg.deform.k_pts >= n:
            raise DataFormatError(f"deform k_pts={cfg.deform.k_pts} must be below n={n} points")
    return train_samples, val_set, tgt_pts, steps_per_epoch


def _kept_metrics(path: str, start_epoch: int) -> list:
    """The records of epochs 0 .. start_epoch - 1, the first lines of a
    run's metrics.jsonl. Later lines belong to epochs a resume re-runs and
    are dropped unread, so a line torn by a kill during its append is
    harmless."""
    kept = []
    with open(path, "rb") as fh:
        for epoch in range(start_epoch):
            try:
                record = json.loads(fh.readline())  # b"" past the end
            except ValueError:
                record = None
            if not isinstance(record, dict) or record.get("epoch") != epoch:
                raise DataFormatError(f"{path}: line {epoch + 1} is not epoch {epoch}'s record")
            kept.append(record)
    return kept


def train(
    source: Dataset,
    target: Dataset | None,
    cfg: TrainConfig,
    run_dir: str,
    resume: bool = False,
    stop_after: int | None = None,
) -> TrainResult:
    """Run (or resume) a full training job and leave its artifacts in
    run_dir: metrics.jsonl, last.ckpt, best.ckpt, config.json.

    Domains are balanced by under-sampling: each epoch runs
    floor(min(source_train, target) / batch_size) steps when the
    reconstruction task is active. A step runs one step body per loss
    (supervised; target reconstruction; source reconstruction with
    deform_domains="source-and-target"): loss and gradients, a finiteness
    check, and one Adam update at the cosine learning rate of the global
    update count, so 1-3 updates per step. Model selection is by source validation
    accuracy (classification) or mean IoU (segmentation); ties keep the
    earlier epoch. `stop_after` caps the epochs run by this call (the
    config's own epoch count still fixes the schedule), simulating an
    interrupted run that a later resume continues exactly. Bad inputs are
    rejected (see prepare_run) before run_dir is created.
    """
    train_samples, val_set, tgt_pts, steps_per_epoch = prepare_run(source, target, cfg)
    os.makedirs(run_dir, exist_ok=True)
    dtype = DTYPES[cfg.dtype]
    num_classes = source.num_classes
    use_ssl = cfg.ssl_weight > 0
    n_src = len(train_samples)
    # the Adam updates of one step, in order: (loss, deformation seed tag)
    halves = [("supervised", None)]
    if use_ssl:
        halves.append(("reconstruction", _TGT_DEF))
        if cfg.deform_domains == "source-and-target":
            halves.append(("reconstruction", _SRC_DEF))
    total_adam_steps = cfg.epochs * steps_per_epoch * len(halves)

    config_blob = json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"
    metrics_path = os.path.join(run_dir, "metrics.jsonl")
    last_path = os.path.join(run_dir, "last.ckpt")
    best_path = os.path.join(run_dir, "best.ckpt")

    start_epoch = 0
    metrics: list = []
    if resume and os.path.exists(last_path):
        params, best_params, adam, meta = load_checkpoint(last_path)
        if meta.get("config") != json.loads(config_blob):
            raise DataFormatError("resume config does not match checkpoint config")
        last_epoch, best_val, best_epoch = _resume_state(last_path, meta)
        start_epoch = last_epoch + 1
        want_t = start_epoch * steps_per_epoch * len(halves)
        if adam.t != want_t:
            raise DataFormatError(
                f"{last_path}: adam_t={adam.t}, but {start_epoch} epochs make {want_t} updates"
            )
        metrics = _kept_metrics(metrics_path, start_epoch)
        # rewrite so appended epochs line up with the checkpoint exactly
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for m in metrics:
                fh.write(json.dumps(m, sort_keys=True) + "\n")
    else:
        params = init_params(
            num_classes, task=cfg.task, seed=_seed(cfg.seed, STREAM_INIT), dtype=dtype
        )
        adam = init_adam(params)
        best_params = {k: v.copy() for k, v in params.items()}
        best_val = -np.inf
        best_epoch = -1
        with open(metrics_path, "w", encoding="utf-8"):
            pass
    with open(os.path.join(run_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(config_blob)

    if cfg.task == "segmentation":
        eval_fn, metric_key = evaluate_segmentation, "mean_iou"
        sup_loss_and_grads = segmentation_loss_and_grads
    else:
        eval_fn, metric_key = evaluate_classification, "accuracy"
        sup_loss_and_grads = classification_loss_and_grads

    end_epoch = cfg.epochs
    if stop_after is not None:
        end_epoch = min(end_epoch, start_epoch + stop_after)
    for epoch in range(start_epoch, end_epoch):
        src_perm = as_rng(_seed(cfg.seed, STREAM_EPOCH, epoch, _SRC_PERM)).permutation(n_src)
        if use_ssl:
            tgt_perm = as_rng(_seed(cfg.seed, STREAM_EPOCH, epoch, _TGT_PERM)).permutation(
                len(tgt_pts)
            )
        losses = {"supervised": [], "reconstruction": []}
        for step in range(steps_per_epoch):
            sl = slice(step * cfg.batch_size, (step + 1) * cfg.batch_size)
            batch = [
                replace(s, points=_augment(
                    s.points, cfg, _seed(cfg.seed, STREAM_EPOCH, epoch, _SUP_AUG, step, j)
                ))
                for j, s in enumerate(train_samples[i] for i in src_perm[sl])
            ]
            try:
                if use_ssl:
                    tgt_batch = np.stack(
                        [
                            _augment(
                                tgt_pts[idx], cfg,
                                _seed(cfg.seed, STREAM_EPOCH, epoch, _TGT_AUG, step, j),
                            )
                            for j, idx in enumerate(tgt_perm[sl])
                        ]
                    )
                for what, tag in halves:
                    lr_now = cosine_lr(cfg.lr, adam.t, total_adam_steps)
                    if tag is None:
                        loss, grads = sup_loss_and_grads(
                            params,
                            *_sup_batch(batch, cfg, num_classes, epoch, step),
                            mode="train",
                            dropout_seed=_seed(cfg.seed, STREAM_EPOCH, epoch, _DROP, step),
                        )
                    else:
                        clouds = (
                            tgt_batch if tag == _TGT_DEF else np.stack([b.points for b in batch])
                        )
                        loss, grads = _reconstruction_loss_and_grads(
                            params, clouds, cfg, epoch, step, tag
                        )
                    if not np.isfinite(loss):
                        raise NumericalError(f"{what} loss diverged")
                    adam_step(params, grads, adam, lr_now, cfg)
                    losses[what].append(loss)
            except NumericalError as exc:
                path = _dump_diagnostic(run_dir, params, epoch, step, "train", exc)
                raise NumericalError(f"{exc} (state dumped to {path})") from exc

        val = eval_fn(params, val_set, cfg.batch_size)
        is_best = val[metric_key] > best_val
        if is_best:
            best_val = val[metric_key]
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
        record = {
            "epoch": epoch,
            "sup_loss": float(np.mean(losses["supervised"])),
            "ssl_loss": float(np.mean(losses["reconstruction"])) if use_ssl else None,
            "val_" + metric_key: val[metric_key],
            "val_cross_entropy": val["cross_entropy"],
            "lr": float(lr_now),
            "best": bool(is_best),
        }
        metrics.append(record)
        with open(metrics_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        meta = {
            "epoch": epoch,
            "best_val": float(best_val),
            "best_epoch": best_epoch,
            "task": cfg.task,
            "num_classes": num_classes,
            "dtype": cfg.dtype,
            "config": json.loads(config_blob),
        }
        # best.ckpt first: a run killed between the two files resumes from
        # the previous last.ckpt, re-runs this epoch and rewrites both
        for path in (best_path, last_path) if is_best else (last_path,):
            save_checkpoint(path, params, best_params, adam, meta)

    return TrainResult(
        params=params,
        best_params=best_params,
        best_epoch=best_epoch,
        best_val=float(best_val),
        metrics=metrics,
        run_dir=run_dir,
    )
