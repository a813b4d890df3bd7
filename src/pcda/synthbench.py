"""Synthetic two-domain benchmarks with a controllable domain gap.

The source domain holds clean, evenly covered surface samples of randomized
geometric primitives. The target domain holds the same kinds of shapes put
through a scan-like corruption: a stochastically selected region is deleted
(reusing the hyperplane-split / density-ramp / visibility selection
machinery), the remainder is resampled with a directional density bias,
jittered and renormalized. Every cloud of both domains is then reduced to
the working resolution by farthest point sampling, one call per split that
samples its clouds together in blocks. Labels are never used to corrupt, so
target labels stay valid for evaluation.

The segmentation variant builds a four-part lamp (base slab, pole, ring,
top cone) with per-point part labels that ride along through every
corruption step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cloud import (
    LabeledCloud,
    SegLabeledCloud,
    as_rng,
    farthest_point_sample,
    jitter,
    normalize_unit_cube,
    rotate_z,
)
from .dataio import Dataset
from .deform import SAMPLE_SCHEMES, sample_region
from .errors import DataFormatError

PRIMITIVES = ("cylinder", "cone", "torus", "box")
SPLIT_CODES = {"source_train": 0, "source_test": 1, "target_train": 2, "target_test": 3}
OVERSAMPLE = 2.0  # surface samples per output point before corruption and FPS


@dataclass
class BenchConfig:
    """Benchmark shape counts and corruption strengths."""

    n_points: int = 256
    num_classes: int = 3
    source_train: int = 200
    source_test: int = 60
    target_train: int = 200
    target_test: int = 150
    occlusion_fraction: float = 0.5
    corruption_scheme: str = "split"
    density_bias: float = 3.5
    keep_fraction: float = 0.65
    target_jitter: float = 0.035
    seed: int = 0
    segmentation: bool = False
    num_parts: int = 4

    def __post_init__(self):
        if self.n_points < 8:
            raise DataFormatError("n_points must be at least 8")
        if not 2 <= self.num_classes <= len(PRIMITIVES):
            raise DataFormatError(
                f"num_classes must be in [2, {len(PRIMITIVES)}]"
            )
        if not 0 <= self.occlusion_fraction < 1:
            raise DataFormatError("occlusion_fraction must be in [0, 1)")
        if not 0 < self.keep_fraction <= 1:
            raise DataFormatError("keep_fraction must be in (0, 1]")
        if self.corruption_scheme not in SAMPLE_SCHEMES:
            raise DataFormatError(
                f"unknown corruption scheme {self.corruption_scheme!r}"
            )
        if self.target_jitter < 0:
            raise DataFormatError("target_jitter must be non-negative")
        for name in ("source_train", "source_test", "target_train", "target_test"):
            if getattr(self, name) < 1:
                raise DataFormatError(f"{name} must be at least 1")
        if self.segmentation and self.num_parts != 4:
            raise DataFormatError("the segmentation object has exactly 4 parts")


def _apportion(n: int, weights) -> np.ndarray:
    """Integer counts proportional to weights, summing exactly to n."""
    w = np.asarray(weights, dtype=np.float64)
    raw = n * w / w.sum()
    counts = np.floor(raw).astype(np.int64)
    rest = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:rest]] += 1
    return counts


# -- primitive surface samplers (area-uniform) -----------------------------


def sample_box(rng, n, width, height, depth):
    half = np.array([width, height, depth]) / 2.0
    face_areas = np.array(
        [height * depth, height * depth, width * depth, width * depth,
         width * height, width * height]
    )
    faces = rng.choice(6, size=n, p=face_areas / face_areas.sum())
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    pts = np.empty((n, 3))
    axis = faces // 2
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    for a in range(3):
        sel = axis == a
        others = [b for b in range(3) if b != a]
        pts[sel, a] = sign[sel] * half[a]
        pts[sel, others[0]] = u[sel] * half[others[0]]
        pts[sel, others[1]] = v[sel] * half[others[1]]
    return pts


def sample_cylinder(rng, n, radius, height, caps=True):
    lateral = 2.0 * np.pi * radius * height
    cap = np.pi * radius**2 if caps else 0.0
    comp = rng.choice(3, size=n, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    lat = comp == 0
    pts[lat, 0] = radius * np.cos(theta[lat])
    pts[lat, 1] = radius * np.sin(theta[lat])
    pts[lat, 2] = rng.uniform(-height / 2.0, height / 2.0, size=lat.sum())
    for which, z in ((1, height / 2.0), (2, -height / 2.0)):
        sel = comp == which
        rho = radius * np.sqrt(rng.uniform(size=sel.sum()))
        pts[sel, 0] = rho * np.cos(theta[sel])
        pts[sel, 1] = rho * np.sin(theta[sel])
        pts[sel, 2] = z
    return pts


def sample_cone(rng, n, radius, height, base=True):
    """Cone with base disk at z=0 and apex at (0, 0, height)."""
    slant = np.sqrt(radius**2 + height**2)
    lateral = np.pi * radius * slant
    base_area = np.pi * radius**2 if base else 0.0
    on_base = rng.uniform(size=n) < base_area / (lateral + base_area)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    # distance fraction from the apex; area grows linearly with it
    s = np.sqrt(rng.uniform(size=n))
    pts = np.empty((n, 3))
    side = ~on_base
    pts[side, 0] = s[side] * radius * np.cos(theta[side])
    pts[side, 1] = s[side] * radius * np.sin(theta[side])
    pts[side, 2] = height * (1.0 - s[side])
    rho = radius * np.sqrt(rng.uniform(size=on_base.sum()))
    pts[on_base, 0] = rho * np.cos(theta[on_base])
    pts[on_base, 1] = rho * np.sin(theta[on_base])
    pts[on_base, 2] = 0.0
    return pts


def sample_torus(rng, n, ring_radius, tube_radius):
    """Torus around the z axis; tube angle rejection-sampled so the surface
    density is uniform in area."""
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = np.empty(n)
    need = np.arange(n)
    while len(need):
        cand = rng.uniform(0.0, 2.0 * np.pi, size=len(need))
        accept = rng.uniform(size=len(need)) <= (
            (ring_radius + tube_radius * np.cos(cand)) / (ring_radius + tube_radius)
        )
        phi[need[accept]] = cand[accept]
        need = need[~accept]
    ring = ring_radius + tube_radius * np.cos(phi)
    return np.column_stack(
        [ring * np.cos(theta), ring * np.sin(theta), tube_radius * np.sin(phi)]
    )


def make_primitive(kind: str, rng, n: int) -> np.ndarray:
    """One randomized primitive in a random z-rotation, in the unit cube."""
    if kind == "box":
        dims = rng.uniform(0.4, 1.0, size=3)
        pts = sample_box(rng, n, *dims)
    elif kind == "cylinder":
        pts = sample_cylinder(rng, n, rng.uniform(0.15, 0.4), rng.uniform(0.6, 1.2))
    elif kind == "torus":
        pts = sample_torus(rng, n, rng.uniform(0.3, 0.5), rng.uniform(0.08, 0.2))
    elif kind == "cone":
        pts = sample_cone(rng, n, rng.uniform(0.2, 0.5), rng.uniform(0.6, 1.2))
    else:
        raise DataFormatError(f"unknown primitive {kind!r}")
    return normalize_unit_cube(rotate_z(pts, rng.uniform(0.0, 2.0 * np.pi)))


def make_lamp(rng, n: int):
    """Four-part lamp; returns (points, part labels).

    Parts: 0 base slab, 1 pole, 2 ring around the pole, 3 top cone. Points
    are split between parts in proportion to surface area (at least 12
    each)."""
    bw, bd = rng.uniform(0.5, 0.8, size=2)
    bh = rng.uniform(0.08, 0.16)
    pr = rng.uniform(0.05, 0.1)
    ph = rng.uniform(0.7, 1.1)
    rr = rng.uniform(0.12, 0.2)
    rt = rng.uniform(0.03, 0.06)
    cr = rng.uniform(0.15, 0.3)
    ch = rng.uniform(0.15, 0.3)
    areas = [
        2 * (bw * bh + bw * bd + bh * bd),
        2 * np.pi * pr * ph,
        4 * np.pi**2 * rr * rt,
        np.pi * cr * np.sqrt(cr**2 + ch**2),
    ]
    counts = np.maximum(_apportion(n, areas), 12)
    counts[np.argmax(counts)] -= counts.sum() - n
    if counts.min() < 1:
        raise DataFormatError("n too small for a four-part object")
    # slab lies flat: thin along z, sitting on the ground plane
    base = sample_box(rng, counts[0], bw, bd, bh) + [0.0, 0.0, bh / 2.0]
    pole = sample_cylinder(rng, counts[1], pr, ph, caps=False) + [0, 0, bh + ph / 2.0]
    ring = sample_torus(rng, counts[2], rr, rt) + [0.0, 0.0, bh + 0.55 * ph]
    top = sample_cone(rng, counts[3], cr, ch, base=False) + [0.0, 0.0, bh + ph]
    pts = np.concatenate([base, pole, ring, top])
    labels = np.repeat(np.arange(4), counts)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return normalize_unit_cube(rotate_z(pts, angle)), labels


# -- domain construction ---------------------------------------------------


def corrupt_to_target(points, cfg: BenchConfig, rng, point_labels=None):
    """Scan-like corruption: regional deletion, density-biased thinning,
    jitter and renormalization into the unit cube.

    Returns the corrupted cloud, of at least cfg.n_points rows, and its
    per-point labels (None without `point_labels`). Reducing it to
    cfg.n_points by farthest point sampling is left to the caller, which
    samples a whole split at once."""
    pts = np.asarray(points, dtype=np.float64)
    m = len(pts)
    if m < cfg.n_points:
        raise DataFormatError("cloud smaller than the target resolution")
    keep = np.arange(m)
    if cfg.occlusion_fraction > 0.0:
        cap = min(cfg.occlusion_fraction, (m - cfg.n_points) / m)
        if cap > 0.0:
            region = sample_region(pts, cfg.corruption_scheme, seed=rng, cap_fraction=cap)
            keep = np.setdiff1d(keep, region)
    if cfg.keep_fraction < 1.0 and len(keep) > cfg.n_points:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        proj = pts[keep] @ direction
        span = proj.max() - proj.min()
        t = (proj - proj.min()) / span if span > 0 else np.zeros(len(keep))
        weights = np.exp(cfg.density_bias * t)
        target = max(cfg.n_points, int(round(cfg.keep_fraction * len(keep))))
        picked = rng.choice(len(keep), size=target, replace=False, p=weights / weights.sum())
        keep = keep[np.sort(picked)]
    out = pts[keep]
    if cfg.target_jitter > 0.0:
        out = jitter(out, sigma=cfg.target_jitter, clip=2.0 * cfg.target_jitter, seed=rng)
    out = normalize_unit_cube(out)
    if point_labels is not None:
        return out, np.asarray(point_labels)[keep]
    return out, None


def _sample_rng(cfg: BenchConfig, split: str, index: int):
    return as_rng(np.random.SeedSequence([cfg.seed, SPLIT_CODES[split], index]))


def _build(cfg: BenchConfig, split: str, count: int) -> Dataset:
    """One split: each sample from its own (seed, split, index) RNG, whose
    last draw is the first index of one FPS call over the whole split."""
    corrupted = split.startswith("target")
    m = int(np.ceil(OVERSAMPLE * cfg.n_points))
    rngs, clouds, point_labels = [], [], []
    for i in range(count):
        rng = _sample_rng(cfg, split, i)
        if cfg.segmentation:
            pts, labels = make_lamp(rng, m)
        else:
            pts, labels = make_primitive(PRIMITIVES[i % cfg.num_classes], rng, m), None
        if corrupted:
            pts, labels = corrupt_to_target(pts, cfg, rng, point_labels=labels)
        rngs.append(rng)
        clouds.append(pts)
        point_labels.append(labels)
    picks = farthest_point_sample(clouds, cfg.n_points, rngs)
    if cfg.segmentation:
        samples = [
            SegLabeledCloud(points=pts[sel], labels=labels[sel])
            for pts, labels, sel in zip(clouds, point_labels, picks)
        ]
        return Dataset(samples=samples, num_classes=cfg.num_parts)
    samples = [
        LabeledCloud(points=pts[sel], label=i % cfg.num_classes)
        for i, (pts, sel) in enumerate(zip(clouds, picks))
    ]
    return Dataset(samples=samples, num_classes=cfg.num_classes)


def gen_benchmark(cfg: BenchConfig):
    """All four splits plus a metadata dict describing the benchmark."""
    splits = {name: _build(cfg, name, getattr(cfg, name)) for name in SPLIT_CODES}
    meta = {
        "kind": "segmentation" if cfg.segmentation else "classification",
        "classes": (
            ["base", "pole", "ring", "top"]
            if cfg.segmentation
            else list(PRIMITIVES[: cfg.num_classes])
        ),
        "n_points": cfg.n_points,
        "config": asdict(cfg),
    }
    return splits, meta
