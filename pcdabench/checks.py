"""Output checks made apart from the program.

Everything here is computed from the documented file formats and the
documented architecture with plain NumPy; nothing calls into pcda. Each
`check_*` function returns a list of problems (empty when the output
passes), so a benchmark run can report every failed check at once and the
quick tests can show that a perturbed output is rejected.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

ENCODER_LAYERS = 5
GLOBAL_DIM = 1024
GAUSS_REG = 1e-6  # the documented diagonal regularizer of the class Gaussians


# -- file formats (README "File formats") ----------------------------------


class _Bytes:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_tens(path):
    """(tensors, meta) of a `.tens` container."""
    with open(path, "rb") as fh:
        r = _Bytes(fh.read())
    if r.take(4) != b"TENS":
        raise ValueError(f"{path}: bad magic")
    _, count = r.unpack("<HI")
    (meta_len,) = r.unpack("<I")
    meta = json.loads(r.take(meta_len))
    tensors = {}
    for _ in range(count):
        name = r.take(r.unpack("<H")[0]).decode()
        dtype = np.dtype(r.take(r.unpack("<H")[0]).decode())
        (ndim,) = r.unpack("<H")
        shape = r.unpack(f"<{ndim}q")
        size = int(np.prod(shape)) * dtype.itemsize
        tensors[name] = np.frombuffer(r.take(size), dtype=dtype).reshape(shape)
    return tensors, meta


def read_dfrc(path):
    """(num_classes, [(points float32 (n, 3), label, part labels or None)])."""
    with open(path, "rb") as fh:
        r = _Bytes(fh.read())
    if r.take(4) != b"DFRC":
        raise ValueError(f"{path}: bad magic")
    _, num_classes, count, flags = r.unpack("<HHIH")
    samples = []
    for _ in range(count):
        n, label = r.unpack("<Ii")
        pts = np.frombuffer(r.take(12 * n), dtype="<f4").reshape(n, 3)
        parts = np.frombuffer(r.take(4 * n), dtype="<i4") if flags & 1 else None
        samples.append((pts, label, parts))
    if r.pos != len(r.data):
        raise ValueError(f"{path}: trailing bytes")
    return num_classes, samples


def best_params(ckpt_path) -> dict:
    """The `best/` parameter group of a checkpoint (the params `load_params`
    documents as the ones to evaluate)."""
    tensors, _ = read_tens(ckpt_path)
    best = {k[5:]: v for k, v in tensors.items() if k.startswith("best/")}
    return best or {k[6:]: v for k, v in tensors.items() if k.startswith("param/")}


# -- the network, as the README documents it, in float64 -------------------


def _relu(x):
    return np.maximum(x, 0.0)


def reference_forward(params: dict, clouds, head: str, batch: int = 16):
    """(global features (B, 1024), logits) in float64, eval mode (no
    dropout). `head` is "sup" (logits (B, C)) or "seg" (logits (B, n, C))."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    clouds = np.asarray(clouds, dtype=np.float64)
    feats, logits = [], []
    for lo in range(0, len(clouds), batch):
        h = clouds[lo : lo + batch]
        acts = []
        for i in range(1, ENCODER_LAYERS + 1):
            h = _relu(h @ p[f"enc{i}_w"] + p[f"enc{i}_b"])
            acts.append(h)
        g = h.max(axis=1)
        feats.append(g)
        if head == "sup":
            u = _relu(g @ p["sup1_w"] + p["sup1_b"])
            u = _relu(u @ p["sup2_w"] + p["sup2_b"])
            logits.append(u @ p["sup3_w"] + p["sup3_b"])
        else:
            point_feat = acts[3]
            cat = np.concatenate(
                [np.broadcast_to(g[:, None, :], point_feat.shape[:2] + (GLOBAL_DIM,)), point_feat],
                axis=2,
            )
            u = _relu(cat @ p["seg1_w"] + p["seg1_b"])
            u = _relu(u @ p["seg2_w"] + p["seg2_b"])
            u = _relu(u @ p["seg3_w"] + p["seg3_b"])
            logits.append(u @ p["seg4_w"] + p["seg4_b"])
    return np.concatenate(feats), np.concatenate(logits)


def float32_tolerance(reference) -> float:
    """Absolute tolerance for a float32 computation of float64 `reference`
    values: 2^-13 (64 float32 ulps) of the largest magnitude."""
    return 2.0**-13 * float(np.abs(reference).max())


def iou_mean(pred, true, num_parts: int) -> float:
    """Mean per-part IoU of one cloud; a part absent from both counts as 1."""
    ious = []
    for part in range(num_parts):
        p, t = pred == part, true == part
        union = np.count_nonzero(p | t)
        ious.append(1.0 if union == 0 else np.count_nonzero(p & t) / union)
    return sum(ious) / num_parts


def check_logits(ref_logits, prog_logits, what: str) -> list:
    """Program logits within the float32 tolerance of the reference, and the
    same argmax wherever the reference's top-two margin exceeds it."""
    problems = []
    ref = np.asarray(ref_logits, dtype=np.float64)
    prog = np.asarray(prog_logits, dtype=np.float64)
    if ref.shape != prog.shape:
        return [f"{what}: logits shape {prog.shape} != reference {ref.shape}"]
    tol = float32_tolerance(ref)
    err = float(np.abs(ref - prog).max())
    if not err <= tol:
        problems.append(f"{what}: logits differ from reference by {err:.3g} > {tol:.3g}")
    top2 = np.sort(ref, axis=-1)[..., -2:]
    clear = (top2[..., 1] - top2[..., 0]) > 2.0 * tol
    differ = (ref.argmax(-1) != prog.argmax(-1)) & clear
    if differ.any():
        problems.append(f"{what}: {int(differ.sum())} clear-margin predictions differ")
    return problems


def check_classification(ref_logits, prog_logits, labels, reported: dict) -> list:
    """Reference forward vs the program's logits, and the program's reported
    accuracy vs the accuracy of its own predictions."""
    problems = check_logits(ref_logits, prog_logits, "classification")
    acc = float(np.mean(np.asarray(prog_logits).argmax(-1) == np.asarray(labels)))
    if reported["accuracy"] != acc or reported["count"] != len(labels):
        problems.append(
            f"reported accuracy {reported['accuracy']} over {reported['count']} clouds, "
            f"predictions give {acc} over {len(labels)}"
        )
    return problems


def check_segmentation(ref_logits, prog_logits, part_labels, num_parts, reported: dict) -> list:
    """As check_classification, with mean IoU computed here."""
    problems = check_logits(ref_logits, prog_logits, "segmentation")
    pred = np.asarray(prog_logits).argmax(-1)
    miou = float(np.mean([iou_mean(pred[i], part_labels[i], num_parts) for i in range(len(pred))]))
    if not abs(reported["mean_iou"] - miou) <= 1e-12:
        problems.append(f"reported mean IoU {reported['mean_iou']}, predictions give {miou}")
    return problems


def check_features(ref_feats, prog_feats) -> list:
    ref = np.asarray(ref_feats, dtype=np.float64)
    err = float(np.abs(ref - np.asarray(prog_feats, dtype=np.float64)).max())
    tol = float32_tolerance(ref)
    return [] if err <= tol else [f"global features differ from reference by {err:.3g} > {tol:.3g}"]


# -- training logs ---------------------------------------------------------


def check_metrics_log(records: list, epochs: int, metric_key: str, best_epoch: int) -> list:
    """One finite record per epoch, both losses lower at the end than at the
    start, and `best` marking the first maximum of the validation metric."""
    problems = []
    if [r.get("epoch") for r in records] != list(range(epochs)):
        return [f"metrics.jsonl epochs {[r.get('epoch') for r in records]}, expected 0..{epochs - 1}"]
    for r in records:
        for key in ("sup_loss", "ssl_loss", metric_key, "val_cross_entropy", "lr"):
            if not (isinstance(r.get(key), float) and math.isfinite(r[key])):
                problems.append(f"epoch {r['epoch']}: {key}={r.get(key)!r} is not a finite number")
    if problems:
        return problems
    for key in ("sup_loss", "ssl_loss"):
        if not records[-1][key] < records[0][key]:
            problems.append(f"{key} did not fall: {records[0][key]} -> {records[-1][key]}")
    running, first_max = -math.inf, -1
    for r in records:
        improved = r[metric_key] > running
        if r["best"] != improved:
            problems.append(f"epoch {r['epoch']}: best={r['best']} but improved={improved}")
        if improved:
            running, first_max = r[metric_key], r["epoch"]
    if best_epoch != first_max:
        problems.append(f"best.ckpt is from epoch {best_epoch}, first maximum at {first_max}")
    return problems


# -- generated benchmarks --------------------------------------------------


def check_generated(splits: dict, archives: dict, n_points: int, num_classes: int, segmented: bool) -> list:
    """Every cloud has n_points finite points, in [-0.5, 0.5]^3 as archived,
    labels follow the documented rule, and each archive read back here
    reproduces the float32-rounded points and the labels exactly. `splits`
    maps a split name to (points list, labels list); `archives` maps it to
    a path."""
    problems = []
    for name, (points, labels) in splits.items():
        num, stored = read_dfrc(archives[name])
        if num != num_classes or len(stored) != len(points):
            problems.append(f"{name}: archive holds {len(stored)} clouds of {num} classes")
            continue
        for i, (pts, lab) in enumerate(zip(points, labels)):
            pts = np.asarray(pts)
            if pts.shape != (n_points, 3) or not np.isfinite(pts).all():
                problems.append(f"{name}[{i}]: shape {pts.shape} or non-finite points")
            if segmented:
                lab = np.asarray(lab)
                if lab.shape != (n_points,) or lab.min() < 0 or lab.max() >= num_classes:
                    problems.append(f"{name}[{i}]: part labels out of 0..{num_classes - 1}")
            elif lab != i % num_classes:
                problems.append(f"{name}[{i}]: label {lab}, expected {i % num_classes}")
            s_pts, s_label, s_parts = stored[i]
            if not np.abs(s_pts).max() <= 0.5:
                problems.append(f"{name}[{i}]: archived point outside [-0.5, 0.5]^3")
            if not np.array_equal(s_pts, pts.astype(np.float32)):
                problems.append(f"{name}[{i}]: archived points differ from float32(points)")
            if segmented:
                if s_label != -1 or not np.array_equal(s_parts, lab):
                    problems.append(f"{name}[{i}]: archived part labels differ")
            elif s_label != lab:
                problems.append(f"{name}[{i}]: archived label {s_label} != {lab}")
    return problems


def check_loaded(points_by_split: dict, archives: dict) -> list:
    """Clouds the program read back from an archive equal the stored float32
    coordinates exactly."""
    problems = []
    for name, points in points_by_split.items():
        _, stored = read_dfrc(archives[name])
        for i, (pts, (s_pts, _, _)) in enumerate(zip(points, stored)):
            if not np.array_equal(np.asarray(pts), s_pts.astype(np.float64)):
                problems.append(f"{name}[{i}]: loaded points differ from the archive")
    return problems


# -- feature perplexity ----------------------------------------------------


def explicit_log_perplexity(src_feats, src_labels, feats, labels, num_classes):
    """(standard, balanced) negative mean log-likelihood of `feats` under ML
    class Gaussians of `src_feats`, by slogdet and solve."""
    src = np.asarray(src_feats, dtype=np.float64)
    x = np.asarray(feats, dtype=np.float64)
    d = src.shape[1]
    sums, counts = [], []
    for c in range(num_classes):
        xc = src[np.asarray(src_labels) == c]
        mean = xc.mean(axis=0)
        cov = (xc - mean).T @ (xc - mean) / len(xc) + GAUSS_REG * np.eye(d)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError(f"class {c} covariance is not positive definite")
        diff = x[np.asarray(labels) == c] - mean
        maha = np.sum(diff * np.linalg.solve(cov, diff.T).T, axis=1)
        sums.append(float(np.sum(-0.5 * (d * math.log(2 * math.pi) + logdet + maha))))
        counts.append(len(diff))
    standard = -sum(sums) / sum(counts)
    balanced = -float(np.mean([s / n for s, n in zip(sums, counts) if n]))
    return standard, balanced


def check_perplexity(reported: dict, explicit) -> list:
    problems = []
    for key, value in zip(("log_perplexity", "log_perplexity_balanced"), explicit):
        got = reported[key]
        if not abs(got - value) <= 1e-9 * abs(value):
            problems.append(f"{key} {got!r} vs explicit {value!r}")
    return problems


# -- traced-run checks on recorded calls -----------------------------------


def check_deformation(points, deformed, region) -> list:
    """Point count kept, non-empty unique in-range region, and every point
    outside the region bitwise unchanged."""
    pts = np.asarray(points, dtype=np.float64)
    region = np.asarray(region)
    if deformed.shape != pts.shape:
        return [f"deformation changed the shape {pts.shape} -> {deformed.shape}"]
    if region.size == 0:
        return ["deformation returned an empty region"]
    if len(np.unique(region)) != len(region) or region.min() < 0 or region.max() >= len(pts):
        return ["deformation region has repeated or out-of-range indices"]
    outside = np.ones(len(pts), dtype=bool)
    outside[region] = False
    if not np.array_equal(deformed[outside], pts[outside]):
        return ["deformation moved a point outside its region"]
    return []


def check_segment_mixup(a_points, a_labels, b_points, b_labels, points, labels) -> list:
    """Every mixed point carries the label it had in its source cloud."""
    owner = {}
    for pts, labs in ((a_points, a_labels), (b_points, b_labels)):
        for p, lab in zip(np.asarray(pts, dtype=np.float64), labs):
            owner.setdefault(p.tobytes(), set()).add(int(lab))
    for p, lab in zip(np.asarray(points, dtype=np.float64), labels):
        if int(lab) not in owner.get(p.tobytes(), ()):
            return ["segment mixup gave a point a label it did not have"]
    return []


def brute_force_chamfer(pred, target, region) -> float:
    """Region Chamfer value by the definition: squared distance from each
    region target point to its nearest region prediction, and back."""
    t = np.asarray(target, dtype=np.float64)[region]
    p = np.asarray(pred, dtype=np.float64)[region]
    d2 = np.array([((p - ti) ** 2).sum(axis=1) for ti in t])
    return float(d2.min(axis=1).sum() + d2.min(axis=0).sum())


def check_chamfer(pred, target, region, value) -> list:
    want = brute_force_chamfer(pred, target, region)
    if not abs(value - want) <= 1e-9 * max(1.0, abs(want)):
        return [f"region Chamfer {value!r} vs brute force {want!r}"]
    return []
