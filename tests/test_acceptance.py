"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers (visible with -rA or -s). The heavy directional-adaptation run
(criterion 6) takes about five minutes on one core and criterion 7 under
a minute; everything else is seconds.
"""

import math
import time

import numpy as np
from scipy import stats

from pcda.chamfer import chamfer_distance
from pcda.cloud import LabeledCloud
from pcda.deform import DeformSpec, apply_deformation, pick_mixed_family
from pcda.evaluation import ClassGaussians, fit_class_gaussians, log_perplexity
from pcda.mixup import mixup_classify, mixup_segment
from pcda.selfcheck import (
    brute_force_chamfer,
    brute_force_log_perplexity,
    check_network_gradients,
)
from pcda.synthbench import BenchConfig, gen_benchmark
from pcda.training import TrainConfig, evaluate_classification, evaluate_segmentation, train

_BENCH_CACHE: dict = {}


def _bench(seed: int, segmentation: bool = False):
    key = (seed, segmentation)
    if key not in _BENCH_CACHE:
        cfg = BenchConfig(seed=seed, segmentation=segmentation)
        _BENCH_CACHE[key] = gen_benchmark(cfg)[0]
    return _BENCH_CACHE[key]


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_network_gradients_match_finite_differences():
    t0 = time.monotonic()
    frac, worst, count = check_network_gradients(
        num_classes=3, n_points=32, batch=2, budget=2000, h=1e-5, tol=1e-4, seed=0
    )
    elapsed = time.monotonic() - t0
    _report(
        1,
        frac >= 0.99 and elapsed < 60.0,
        f"{frac:.4f} of {count} sampled coords within 1e-4 rel "
        f"(worst {worst:.2e}) in {elapsed:.1f}s",
    )


def test_criterion_2_chamfer_matches_brute_force():
    rng = np.random.default_rng(2)
    worst = 0.0
    symmetric = True
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 65)), 3))
        b = rng.normal(size=(int(rng.integers(1, 65)), 3))
        fast = chamfer_distance(a, b)
        worst = max(worst, abs(fast - brute_force_chamfer(a, b)))
        symmetric = symmetric and fast == chamfer_distance(b, a)
    _report(
        2,
        worst <= 1e-9 and symmetric,
        f"max |fast - brute| = {worst:.2e} over 100 instances, symmetry exact",
    )


def test_criterion_3_deformation_invariants_and_mixed_frequencies():
    plan = [
        (DeformSpec(kind="voxel", k=3), 167, False),
        (DeformSpec(kind="sphere", radius=0.3), 167, False),
        (DeformSpec(kind="feature", k_pts=40, layer=3), 167, False),
        (DeformSpec(kind="split"), 167, True),
        (DeformSpec(kind="gradient"), 166, True),
        (DeformSpec(kind="lambertian"), 166, True),
    ]
    rng = np.random.default_rng(3)
    checked = 0
    for spec, draws, capped in plan:
        for d in range(draws):
            n = 96 + (d % 5) * 32
            pts = rng.normal(scale=0.5, size=(n, 3))
            pair = apply_deformation(pts, spec, seed=rng)
            assert len(pair.deformed) == n and len(pair.original) == n
            region = pair.region
            assert len(region) > 0
            assert len(np.unique(region)) == len(region)
            assert region.min() >= 0 and region.max() < n
            if capped:
                assert len(region) <= math.ceil(spec.sample_cap_fraction * n)
            outside = np.setdiff1d(np.arange(n), region)
            assert np.array_equal(pair.deformed[outside], pair.original[outside])
            assert np.array_equal(pair.original, pts)
            checked += 1
    assert checked == 1000

    # the mixed variant draws each family with probability 1/3
    fam_rng = np.random.default_rng(33)
    draws = 30000
    counts = {"volume": 0, "feature": 0, "sample": 0}
    for _ in range(draws):
        counts[pick_mixed_family(fam_rng)] += 1
    three_sigma = 3.0 * math.sqrt(draws * (1 / 3) * (2 / 3))
    freq_ok = all(abs(c - draws / 3) <= three_sigma for c in counts.values())

    mixed_spec = DeformSpec(kind="mixed", k_pts=40)
    seen = set()
    for _ in range(60):
        pair = apply_deformation(rng.normal(scale=0.5, size=(128, 3)), mixed_spec, seed=rng)
        seen.add(pair.kind)
        outside = np.setdiff1d(np.arange(128), pair.region)
        assert np.array_equal(pair.deformed[outside], pair.original[outside])
    dispatch_ok = seen <= {"voxel", "feature", "split"} and len(seen) == 3

    _report(
        3,
        freq_ok and dispatch_ok,
        f"1000 deformations kept invariants; family counts {counts} "
        f"within {three_sigma:.0f} of {draws // 3}",
    )


def test_criterion_4_mixup_labels_and_gamma_distribution():
    rng = np.random.default_rng(4)
    n = 256
    a = LabeledCloud(points=rng.normal(size=(n, 3)), label=0)
    b = LabeledCloud(points=rng.normal(size=(n, 3)), label=1)

    pure_a = mixup_classify(a, b, 2, seed=0, gamma=1.0)
    pure_b = mixup_classify(a, b, 2, seed=0, gamma=0.0)
    exact_ok = (
        pure_a.gamma == 1.0
        and pure_b.gamma == 0.0
        and np.array_equal(pure_a.soft_label, [1.0, 0.0])
        and np.array_equal(pure_b.soft_label, [0.0, 1.0])
    )

    draws = 100000
    gammas = np.empty(draws)
    worst_sum = 0.0
    for i in range(draws):
        ms = mixup_classify(a, b, 2, seed=rng)
        gammas[i] = ms.gamma
        worst_sum = max(worst_sum, abs(ms.soft_label.sum() - 1.0))
    ks = stats.kstest(gammas, "uniform").statistic

    _report(
        4,
        worst_sum <= 1e-12 and exact_ok and ks < 0.01,
        f"max |label sum - 1| = {worst_sum:.1e}, endpoints exact, "
        f"KS vs U(0,1) = {ks:.4f} over {draws} draws",
    )


def test_criterion_5_perplexity_matches_explicit_inverse():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 4)) + rng.normal(scale=2.0, size=(3, 1, 4)).repeat(40, 1).reshape(120, 4)
    y = np.repeat(np.arange(3), 40)
    model = fit_class_gaussians(x, y, 3)
    err = max(
        abs(log_perplexity(model, x, y) - brute_force_log_perplexity(model, x, y)),
        abs(
            log_perplexity(model, x, y, balanced=True)
            - brute_force_log_perplexity(model, x, y, balanced=True)
        ),
    )
    equal_gap = abs(
        log_perplexity(model, x, y) - log_perplexity(model, x, y, balanced=True)
    )

    unit = ClassGaussians(
        means=np.zeros((1, 2)), covariances=np.eye(2)[None], counts=np.array([1])
    )
    point = abs(log_perplexity(unit, np.zeros((1, 2)), [0]) - np.log(2 * np.pi))

    _report(
        5,
        err <= 1e-9 and point <= 1e-9 and equal_gap <= 1e-9,
        f"|fast - brute| = {err:.1e}, point-at-mean off by {point:.1e}, "
        f"balanced gap at equal sizes {equal_gap:.1e}",
    )


ARMS = {
    "baseline": dict(ssl_weight=0.0, use_mixup=False),
    "ssl_only": dict(ssl_weight=0.25, use_mixup=False),
    "mix_only": dict(ssl_weight=0.0, use_mixup=True),
    "both": dict(ssl_weight=0.25, use_mixup=True),
}


def test_criterion_6_adaptation_beats_source_only_baseline(tmp_path_factory):
    root = tmp_path_factory.mktemp("adapt")
    t0 = time.monotonic()
    accs = {name: [] for name in ARMS}
    for seed in (0, 1, 2):
        splits = _bench(seed)
        for name, kw in ARMS.items():
            cfg = TrainConfig(epochs=30, dtype="float32", seed=seed, **kw)
            res = train(
                splits["source_train"],
                splits["target_train"],
                cfg,
                str(root / f"{name}_s{seed}"),
            )
            acc = evaluate_classification(res.best_params, splits["target_test"])
            accs[name].append(acc["accuracy"])
    elapsed = time.monotonic() - t0
    mean = {name: float(np.mean(v)) for name, v in accs.items()}
    ok = (
        mean["both"] >= mean["baseline"] + 0.05
        and mean["ssl_only"] > mean["baseline"]
        and mean["mix_only"] > mean["baseline"]
        and elapsed <= 900.0
    )
    _report(
        6,
        ok,
        "mean target accuracy over seeds 0-2: "
        + ", ".join(f"{k} {mean[k]:.3f}" for k in ARMS)
        + f"; 12 runs in {elapsed / 60:.1f} min",
    )


def test_criterion_7_segmentation_gains_and_label_migration(tmp_path_factory):
    splits = _bench(0, segmentation=True)

    # every mixed batch keeps each point's own part label
    rng = np.random.default_rng(7)
    samples = splits["source_train"].samples
    batches_ok = 0
    for batch in range(40):
        for j in range(8):
            a = samples[(batch * 16 + 2 * j) % len(samples)]
            b = samples[(batch * 16 + 2 * j + 1) % len(samples)]
            ms = mixup_segment(a, b, seed=rng)
            lookup = {tuple(p): int(l) for p, l in zip(a.points, a.labels)}
            lookup.update({tuple(p): int(l) for p, l in zip(b.points, b.labels)})
            assert all(
                lookup[tuple(p)] == int(l) for p, l in zip(ms.points, ms.point_labels)
            ), f"label migrated away from its point in batch {batch}"
        batches_ok += 1

    root = tmp_path_factory.mktemp("seg")
    miou = {}
    for name in ("baseline", "ssl_only"):
        cfg = TrainConfig(
            task="segmentation", epochs=10, dtype="float32", seed=0, **ARMS[name]
        )
        res = train(
            splits["source_train"],
            splits["target_train"],
            cfg,
            str(root / name),
        )
        miou[name] = evaluate_segmentation(res.best_params, splits["target_test"])["mean_iou"]

    _report(
        7,
        miou["ssl_only"] >= miou["baseline"] and batches_ok == 40,
        f"target mIoU baseline {miou['baseline']:.3f} vs reconstruction "
        f"{miou['ssl_only']:.3f}; labels stayed with points in all {batches_ok} batches",
    )


def test_criterion_8_identical_runs_are_bitwise_identical(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro")
    splits = _bench(0)
    cfg = TrainConfig(epochs=2, dtype="float32", seed=0)
    for name in ("first", "second"):
        train(
            splits["source_train"],
            splits["target_train"],
            cfg,
            str(root / name),
        )
    same = {
        name: (root / "first" / name).read_bytes() == (root / "second" / name).read_bytes()
        for name in ("metrics.jsonl", "last.ckpt", "best.ckpt")
    }
    _report(
        8,
        all(same.values()),
        "repeated runs bitwise-identical: "
        + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in same.items()),
    )
