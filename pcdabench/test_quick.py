"""Quick tests of the benchmark: every workload end to end at a tiny size
through the same code, and every output check rejecting a perturbed output.

    python3 -m pytest -q pcdabench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from pcda import chamfer, dataio, mixup, network  # noqa: E402
from pcda.cloud import SegLabeledCloud  # noqa: E402
from pcda.deform import DeformSpec, apply_deformation  # noqa: E402
from pcda.evaluation import fit_class_gaussians, log_perplexity  # noqa: E402
from pcda.synthbench import BenchConfig, gen_benchmark  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"]) and got["value"] >= 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "pcdabench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("adapt_cls", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- each check accepts the program's output and rejects a perturbed one ---


@pytest.fixture(scope="module")
def params():
    return network.init_params(3, seed=0, dtype=np.float32)


@pytest.fixture(scope="module")
def seg_params():
    return network.init_params(4, task="segmentation", seed=0, dtype=np.float32)


@pytest.fixture(scope="module")
def clouds():
    return np.random.default_rng(0).uniform(-0.5, 0.5, size=(6, 64, 3))


def test_classification_check(params, clouds):
    _, ref = checks.reference_forward(params, clouds, "sup")
    prog = network.forward_pass(params, clouds, heads=("sup",))[0]["logits"]
    labels = prog.argmax(-1)
    report = {"accuracy": 1.0, "count": len(labels)}
    assert checks.check_classification(ref, prog, labels, report) == []
    shifted = prog.copy()
    shifted[2] += 10 * checks.float32_tolerance(ref)
    assert checks.check_classification(ref, shifted, labels, report)
    assert checks.check_classification(ref, prog, labels, {"accuracy": 0.5, "count": 6})


def test_segmentation_check(seg_params, clouds):
    _, ref = checks.reference_forward(seg_params, clouds, "seg")
    prog = network.forward_pass(seg_params, clouds, heads=("seg",))[0]["seg_logits"]
    parts = np.random.default_rng(1).integers(0, 4, size=prog.shape[:2])
    pred = prog.argmax(-1)
    miou = float(np.mean([checks.iou_mean(pred[i], parts[i], 4) for i in range(len(pred))]))
    assert checks.check_segmentation(ref, prog, parts, 4, {"mean_iou": miou}) == []
    assert checks.check_segmentation(ref, prog, parts, 4, {"mean_iou": miou + 1e-6})
    assert checks.check_segmentation(ref, prog + 0.01 * np.abs(ref).max(), parts, 4, {"mean_iou": miou})
    # a part absent from both prediction and truth counts as IoU 1
    assert checks.iou_mean(np.zeros(5, int), np.zeros(5, int), 4) == 1.0


def test_feature_check(params, clouds):
    ref, _ = checks.reference_forward(params, clouds, "sup")
    prog = network.forward_pass(params, clouds, heads=())[0]["global"]
    assert checks.check_features(ref, prog) == []
    assert checks.check_features(ref, prog * (1 + 1e-3))


def test_perplexity_check():
    rng = np.random.default_rng(2)
    src, labels = rng.normal(size=(60, 8)), np.arange(60) % 3
    tgt, tgt_labels = rng.normal(size=(30, 8)), np.arange(30) % 3
    model = fit_class_gaussians(src, labels, 3)
    reported = {
        "log_perplexity": log_perplexity(model, tgt, tgt_labels),
        "log_perplexity_balanced": log_perplexity(model, tgt, tgt_labels, balanced=True),
    }
    explicit = checks.explicit_log_perplexity(src, labels, tgt, tgt_labels, 3)
    assert checks.check_perplexity(reported, explicit) == []
    wrong = dict(reported, log_perplexity=reported["log_perplexity"] * (1 + 1e-8))
    assert checks.check_perplexity(wrong, explicit)


def test_deformation_check(clouds):
    pts = clouds[0]
    for kind in ("voxel", "split", "feature"):
        spec = DeformSpec(kind=kind, k_pts=20)
        pair = apply_deformation(pts, spec, seed=4)
        assert checks.check_deformation(pts, pair.deformed, pair.region) == []
    moved = pair.deformed.copy()
    outside = np.setdiff1d(np.arange(len(pts)), pair.region)[0]
    moved[outside, 0] = np.nextafter(moved[outside, 0], 1.0)
    assert checks.check_deformation(pts, moved, pair.region)
    assert checks.check_deformation(pts, pair.deformed, pair.region[:0])
    assert checks.check_deformation(pts, pair.deformed[:-1], pair.region)


def test_segment_mixup_check(clouds):
    rng = np.random.default_rng(5)
    a = SegLabeledCloud(points=clouds[0], labels=rng.integers(0, 4, 64))
    b = SegLabeledCloud(points=clouds[1], labels=rng.integers(0, 4, 64))
    ms = mixup.mixup_segment(a, b, seed=6)
    args = (a.points, a.labels, b.points, b.labels, ms.points)
    assert checks.check_segment_mixup(*args, ms.point_labels) == []
    assert checks.check_segment_mixup(*args, (ms.point_labels + 1) % 4)


def test_chamfer_check(clouds):
    region = np.arange(5, 40)
    pred = clouds[1] * 0.9
    res = chamfer.chamfer_loss_region(pred, clouds[0], region)
    assert checks.check_chamfer(pred, clouds[0], region, res.value) == []
    assert checks.check_chamfer(pred, clouds[0], region, res.value * (1 + 1e-8))


def test_metrics_log_check():
    def rec(epoch, sup, ssl, val, best):
        return {"epoch": epoch, "sup_loss": sup, "ssl_loss": ssl, "val_accuracy": val,
                "val_cross_entropy": 1.0, "lr": 1e-3, "best": best}

    good = [rec(0, 1.0, 2.0, 0.5, True), rec(1, 0.9, 1.5, 0.7, True), rec(2, 0.8, 1.4, 0.7, False)]
    assert checks.check_metrics_log(good, 3, "val_accuracy", 1) == []
    assert checks.check_metrics_log(good, 3, "val_accuracy", 2)  # a later tie is not the best
    assert checks.check_metrics_log(good[:2], 3, "val_accuracy", 1)
    tie_marked = good[:2] + [rec(2, 0.8, 1.4, 0.7, True)]
    assert checks.check_metrics_log(tie_marked, 3, "val_accuracy", 1)
    rising = good[:2] + [rec(2, 1.1, 1.4, 0.7, False)]
    assert checks.check_metrics_log(rising, 3, "val_accuracy", 1)
    nan = good[:2] + [rec(2, float("nan"), 1.4, 0.7, False)]
    assert checks.check_metrics_log(nan, 3, "val_accuracy", 1)


def test_generated_check(tmp_path):
    splits, _ = gen_benchmark(BenchConfig(seed=7, source_train=6, source_test=3,
                                          target_train=6, target_test=4, n_points=32))
    paths = {}
    for name, ds in splits.items():
        paths[name] = str(tmp_path / f"{name}.dfrc")
        dataio.save_archive(paths[name], ds)
    lists = {n: ([s.points for s in ds.samples], [s.label for s in ds.samples])
             for n, ds in splits.items()}
    assert checks.check_generated(lists, paths, 32, 3, False) == []
    loaded = {n: [s.points for s in dataio.load_archive(p).samples] for n, p in paths.items()}
    assert checks.check_loaded(loaded, paths) == []

    relabeled = dict(lists, source_test=(lists["source_test"][0], [1, 1, 2]))
    assert checks.check_generated(relabeled, paths, 32, 3, False)
    data = bytearray(open(paths["target_test"], "rb").read())
    data[-5] ^= 1  # a bit of the last stored coordinate
    open(paths["target_test"], "wb").write(bytes(data))
    assert checks.check_generated(lists, paths, 32, 3, False)
    assert checks.check_loaded(loaded, paths)
