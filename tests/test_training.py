"""Training loop: optimizer oracle, splits, checkpoints, determinism, resume."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcda.cloud import LabeledCloud, SegLabeledCloud
from pcda.dataio import Dataset, load_tensors, read_tensors, save_tensors
from pcda.deform import DeformSpec
from pcda.errors import DataFormatError
from pcda.network import HEAD_OUTPUTS, forward_pass, init_params
from pcda.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    cosine_lr,
    evaluate_classification,
    evaluate_segmentation,
    extract_global_features,
    init_adam,
    load_checkpoint,
    load_params,
    predict_logits,
    save_checkpoint,
    stratified_split,
    train,
    uniform_split,
)

from conftest import make_cloud

TINY_DEFORM = DeformSpec(kind="sphere", radius=0.5)


def tiny_cls_dataset(seed, count=12, n=24, num_classes=3):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        label = i % num_classes
        pts = make_cloud(seed * 1000 + i, n) + 2.0 * label
        samples.append(LabeledCloud(points=pts, label=label))
    del rng
    return Dataset(samples=samples, num_classes=num_classes)


def tiny_seg_dataset(seed, count=8, n=24):
    samples = []
    for i in range(count):
        pts = make_cloud(seed * 1000 + i, n)
        labels = (pts[:, 2] > 0).astype(np.int64)
        samples.append(SegLabeledCloud(points=pts, labels=labels))
    return Dataset(samples=samples, num_classes=2)


def improving_run():
    """Source, target and config of a run whose best epoch comes after epoch
    0; tiny_config on the 12-cloud tiny_cls_dataset never improves after it."""
    cfg = tiny_config(epochs=4, lr=3e-3, seed=1)
    return tiny_cls_dataset(0, count=30), tiny_cls_dataset(1, count=30), cfg


def tiny_config(**kw):
    base = dict(
        epochs=2,
        batch_size=4,
        deform=TINY_DEFORM,
        dtype="float64",
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1)
        assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(0.1, 50, 100) == pytest.approx(0.05)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(1.0, t, 50) for t in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamps_out_of_range_steps(self):
        assert cosine_lr(1.0, -5, 10) == pytest.approx(1.0)
        assert cosine_lr(1.0, 99, 10) == pytest.approx(0.0, abs=1e-18)

    def test_zero_total_returns_base(self):
        assert cosine_lr(0.3, 5, 0) == 0.3


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        cfg = tiny_config(lr=0.1, weight_decay=0.01)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, 0.25])}
        state = init_adam(params)
        adam_step(params, grads, state, lr=0.1, cfg=cfg)

        g = np.array([0.5, 0.25]) + 0.01 * np.array([1.0, -2.0])
        m = 0.1 * g
        v = 0.001 * g * g
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.999)
        want = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(params["w"], want, atol=1e-15)
        assert state.t == 1

    def test_two_steps_accumulate_moments(self):
        cfg = tiny_config(lr=0.1, weight_decay=0.0)
        params = {"w": np.array([0.0])}
        state = init_adam(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.01, cfg=cfg)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.01, cfg=cfg)
        # constant gradient: bias-corrected update is exactly -lr * g/|g| each step
        assert params["w"][0] == pytest.approx(-0.02, abs=1e-9)
        assert state.t == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_plain_update_bitwise(self, dtype):
        # the whole-array expression is the reference; tensors span several
        # chunks, and cosine_lr's float64 rate scales a float32 step in float64
        rng = np.random.default_rng(0)
        shapes = {"w": (3, ADAM_CHUNK + 5), "b": (7,)}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        m, v = init_adam(params).m, init_adam(params).v
        state = init_adam(params)
        cfg = tiny_config(weight_decay=5e-5)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t in range(1, 4):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            lr = cosine_lr(1e-3, t, 10) if t < 3 else 1e-3
            adam_step(params, grads, state, lr, cfg)
            for k, p in ref.items():
                g = grads[k] + cfg.weight_decay * p
                m[k] *= b1
                m[k] += (1.0 - b1) * g
                v[k] *= b2
                v[k] += (1.0 - b2) * g * g
                p -= lr * (m[k] / (1.0 - b1**t)) / (np.sqrt(v[k] / (1.0 - b2**t)) + ADAM_EPS)
        for k in shapes:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])

    def test_zero_weight_decay_leaves_gradient_untouched(self):
        cfg = tiny_config(weight_decay=0.0)
        params = {"w": np.array([3.0])}
        state = init_adam(params)
        adam_step(params, {"w": np.array([0.0])}, state, lr=0.1, cfg=cfg)
        assert params["w"][0] == pytest.approx(3.0)


class TestSplits:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), per_class=st.integers(2, 20))
    def test_stratified_partition(self, seed, per_class):
        labels = np.repeat([0, 1, 2], per_class)
        tr, val = stratified_split(labels, 0.25, seed)
        assert len(tr) + len(val) == len(labels)
        assert len(np.intersect1d(tr, val)) == 0
        # every class is represented on both sides
        for c in range(3):
            assert (labels[tr] == c).any()
            assert (labels[val] == c).any()

    def test_stratified_fraction(self):
        labels = np.repeat([0, 1], 20)
        _, val = stratified_split(labels, 0.2, seed=0)
        assert len(val) == 8
        assert (labels[val] == 0).sum() == 4

    def test_stratified_deterministic_and_sorted(self):
        labels = np.repeat([0, 1, 2], 10)
        a = stratified_split(labels, 0.3, seed=5)
        b = stratified_split(labels, 0.3, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], np.sort(a[0]))

    def test_uniform_split_partition(self):
        tr, val = uniform_split(17, 0.2, seed=1)
        assert len(tr) + len(val) == 17
        assert len(val) == round(0.2 * 17)
        assert len(np.intersect1d(tr, val)) == 0

    def test_zero_fraction_gives_empty_val(self):
        tr, val = uniform_split(10, 0.0, seed=0)
        assert len(val) == 0 and len(tr) == 10


class TestEvaluate:
    def test_classification_metrics_shape(self):
        ds = tiny_cls_dataset(0)
        params = init_params(3, seed=0)
        out = evaluate_classification(params, ds)
        assert set(out) == {"accuracy", "cross_entropy", "count"}
        assert out["count"] == 12
        assert 0.0 <= out["accuracy"] <= 1.0

    def test_segmentation_metrics_shape(self):
        ds = tiny_seg_dataset(0)
        params = init_params(2, task="segmentation", seed=0)
        out = evaluate_segmentation(params, ds)
        assert set(out) == {"mean_iou", "point_accuracy", "cross_entropy", "count"}
        assert 0.0 <= out["mean_iou"] <= 1.0

    def test_global_features_shape(self):
        ds = tiny_cls_dataset(1)
        params = init_params(3, seed=0)
        feats = extract_global_features(params, ds.points_array(), batch_size=5)
        assert feats.shape == (12, 1024)
        assert feats.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("task, head", [("classification", "sup"), ("segmentation", "seg")])
    def test_inference_matches_forward_pass_bitwise(self, dtype, task, head):
        # 37 points, not a multiple of 8; batches of 4 over 10 clouds end with 2
        params = init_params(3, task=task, seed=2, dtype=dtype)
        clouds = np.random.default_rng(4).uniform(-0.5, 0.5, size=(10, 37, 3))
        want = [forward_pass(params, clouds[lo : lo + 4], heads=(head,))[0] for lo in (0, 4, 8)]
        logits = predict_logits(params, clouds, batch_size=4, head=head)
        assert logits.dtype == dtype
        assert np.array_equal(logits, np.concatenate([w[HEAD_OUTPUTS[head]] for w in want]))
        feats = extract_global_features(params, clouds, batch_size=4)
        assert np.array_equal(feats, np.concatenate([w["global"] for w in want]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_global_features_do_not_depend_on_batch_size(self, dtype):
        # each cloud runs through the encoder alone, so pcda perplexity
        # gives the same bits at any --batch-size
        params = init_params(3, seed=1, dtype=dtype)
        clouds = np.random.default_rng(5).uniform(-0.5, 0.5, size=(9, 50, 3))
        want = extract_global_features(params, clouds, batch_size=32)
        for batch_size in (1, 2, 4, 9):
            assert np.array_equal(extract_global_features(params, clouds, batch_size), want)

    def test_predict_logits_keeps_no_layer_blocks(self):
        # one (B*n, 256) float32 block is 8 MiB; a trace of layers 1-4 holds two
        B, n = 32, 256
        params = init_params(3, seed=0, dtype=np.float32)
        clouds = np.random.default_rng(0).uniform(-0.5, 0.5, size=(B, n, 3))
        predict_logits(params, clouds, B)  # warm-up
        tracemalloc.start()
        try:
            predict_logits(params, clouds, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = B * n * 256 * 4
        assert peak < block, f"peak {peak / block:.2f} blocks of (B*n, 256) float32"


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        params = init_params(3, seed=0)
        best = {k: v + 1.0 for k, v in params.items()}
        adam = init_adam(params)
        adam.t = 17
        meta = {"epoch": 4, "task": "classification"}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, best, adam, meta)
        p2, b2, a2, m2 = load_checkpoint(path)
        assert all(np.array_equal(params[k], p2[k]) for k in params)
        assert all(np.array_equal(best[k], b2[k]) for k in best)
        assert a2.t == 17
        assert m2["epoch"] == 4 and m2["adam_t"] == 17

    def test_load_params_prefers_best(self, tmp_path):
        params = init_params(3, seed=0)
        best = {k: v * 2.0 for k, v in params.items()}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, best, init_adam(params), {"epoch": 0})
        loaded, _ = load_params(path)
        assert np.array_equal(loaded["enc1_w"], best["enc1_w"])

    def test_load_params_reads_only_the_best_group(self, tmp_path):
        # the file holds four groups; load_params copies one and maps the rest
        params = init_params(3, seed=0, dtype=np.float32)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, params, init_adam(params), {"epoch": 0})
        best_bytes = sum(v.nbytes for v in params.values())
        load_params(path)  # warm-up
        tracemalloc.start()
        try:
            loaded, _ = load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(loaded[k], params[k]) for k in params)
        assert peak < 1.5 * best_bytes, f"peak {peak / best_bytes:.2f} best groups"

    def test_views_outlive_an_atomic_replace(self, tmp_path):
        # read_tensors maps the file; save_checkpoint renames a new file onto
        # the path, so the mapped one keeps its bytes
        params = init_params(3, seed=0, dtype=np.float32)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, params, init_adam(params), {"epoch": 0})
        tensors, meta = read_tensors(path)
        other = {k: v + 1.0 for k, v in params.items()}
        save_checkpoint(path, other, other, init_adam(other), {"epoch": 1})
        assert meta["epoch"] == 0
        for k, v in params.items():
            assert np.array_equal(tensors[f"best/{k}"], v)
            assert np.array_equal(tensors[f"param/{k}"], v)
        assert np.array_equal(load_params(path)[0]["enc1_w"], other["enc1_w"])

    def test_unknown_group_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_tensors(path, {"mystery/x": np.ones(3)}, {})
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_missing_adam_v_group_rejected(self, tmp_path):
        params = init_params(3, seed=0)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, params, init_adam(params), {"epoch": 0})
        tensors, meta = load_tensors(path)
        save_tensors(path, {k: v for k, v in tensors.items() if not k.startswith("adam_v/")}, meta)
        with pytest.raises(DataFormatError, match="incomplete"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, says",
        [
            ("enc2_w", "not the classification network"),
            ("head width", "not the classification network"),
            ("float16", "float32 or float64"),
            ("meta classes", "num_classes"),
            ("meta task", "task"),
        ],
    )
    def test_architecture_mismatch_rejected(self, tmp_path, damage, says):
        # every group stays consistent with the others; only the network differs
        params = init_params(3, seed=0)
        path = tmp_path / "c.ckpt"
        meta = {"epoch": 0, "task": "classification", "num_classes": 3}
        save_checkpoint(path, params, params, init_adam(params), meta)
        tensors, meta = load_tensors(path)
        shapes = {
            "enc2_w": {"enc2_w": (65, 64)},
            "head width": {"sup2_w": (512, 200), "sup2_b": (200,), "sup3_w": (200, 3)},
        }.get(damage, {})
        for name in list(tensors):
            key = name.partition("/")[2]
            if key in shapes:
                tensors[name] = np.zeros(shapes[key])
            elif damage == "float16":
                tensors[name] = tensors[name].astype(np.float16)
        if damage == "meta classes":
            meta["num_classes"] = 4
        if damage == "meta task":
            meta["task"] = "segmentation"
        save_tensors(path, tensors, meta)
        with pytest.raises(DataFormatError, match=says):
            load_checkpoint(path)

    @pytest.mark.parametrize("adam_t", ["x", -1, 2.5, True, None])
    def test_bad_adam_t_rejected(self, tmp_path, adam_t):
        params = init_params(3, seed=0)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, params, init_adam(params), {"epoch": 0})
        tensors, meta = load_tensors(path)
        save_tensors(path, tensors, {**meta, "adam_t": adam_t})
        with pytest.raises(DataFormatError, match="adam_t"):
            load_checkpoint(path)


class TestTrainLoop:
    def test_artifacts_and_metrics_schema(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        res = train(src, tgt, tiny_config(), str(tmp_path / "run"))
        run = tmp_path / "run"
        for name in ("config.json", "metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert (run / name).exists()
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["epoch"] == i
            assert set(rec) == {
                "epoch", "sup_loss", "ssl_loss", "val_accuracy",
                "val_cross_entropy", "lr", "best",
            }
            assert rec["ssl_loss"] is not None
        assert res.best_epoch >= 0
        assert res.metrics == [json.loads(l) for l in lines]

    def test_two_runs_bitwise_identical(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        train(src, tgt, tiny_config(), str(tmp_path / "a"))
        train(src, tgt, tiny_config(), str(tmp_path / "b"))
        for name in ("metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), f"{name} differs between identical runs"

    def test_interrupted_resume_matches_uninterrupted(self, tmp_path):
        src, tgt, cfg = improving_run()
        full = train(src, tgt, cfg, str(tmp_path / "full"))
        assert full.best_epoch >= 1
        train(src, tgt, cfg, str(tmp_path / "part"), stop_after=2)
        part_lines = (tmp_path / "part" / "metrics.jsonl").read_text().splitlines()
        assert len(part_lines) == 2
        train(src, tgt, cfg, str(tmp_path / "part"), resume=True)
        for name in ("metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == (
                tmp_path / "part" / name
            ).read_bytes(), f"{name} differs after resume"

    def test_kill_between_checkpoint_files_resumes_byte_identical(self, tmp_path, monkeypatch):
        # an improving epoch writes two checkpoint files; stop the run right
        # after the first one lands, as a kill would, then resume
        src, tgt, cfg = improving_run()
        full = train(src, tgt, cfg, str(tmp_path / "full"))
        best = [rec["best"] for rec in full.metrics]
        epoch = max(e for e, b in enumerate(best) if b)
        assert epoch > 0, "the run needs an improving epoch after the first"
        kill_at = sum(1 + b for b in best[:epoch]) + 1  # checkpoint files written so far

        class Killed(Exception):
            pass

        real_replace, written = os.replace, []

        def replace_then_kill(src_path, dst_path):
            real_replace(src_path, dst_path)
            if str(dst_path).endswith(".ckpt"):
                written.append(dst_path)
                if len(written) == kill_at:
                    raise Killed

        monkeypatch.setattr(os, "replace", replace_then_kill)
        with pytest.raises(Killed):
            train(src, tgt, cfg, str(tmp_path / "part"))
        monkeypatch.setattr(os, "replace", real_replace)
        train(src, tgt, cfg, str(tmp_path / "part"), resume=True)
        for name in ("metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == (
                tmp_path / "part" / name
            ).read_bytes(), f"{name} differs after a kill and resume"

    def test_resume_with_changed_config_rejected(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        train(src, tgt, tiny_config(epochs=2), str(tmp_path / "r"), stop_after=1)
        with pytest.raises(DataFormatError, match="config"):
            train(src, tgt, tiny_config(epochs=2, lr=5e-4), str(tmp_path / "r"), resume=True)

    def test_resume_with_wrong_adam_t_rejected(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        run = tmp_path / "r"
        train(src, tgt, tiny_config(epochs=2), str(run), stop_after=1)
        tensors, meta = load_tensors(run / "last.ckpt")
        save_tensors(run / "last.ckpt", tensors, {**meta, "adam_t": meta["adam_t"] + 1})
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(DataFormatError, match="adam_t"):
            train(src, tgt, tiny_config(epochs=2), str(run), resume=True)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize(
        "key, value", [("best_val", "x"), ("epoch", "one"), ("best_epoch", None)]
    )
    def test_resume_with_bad_meta_types_rejected(self, tmp_path, key, value):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        run = tmp_path / "r"
        train(src, tgt, tiny_config(epochs=2), str(run), stop_after=1)
        tensors, meta = load_tensors(run / "last.ckpt")
        save_tensors(run / "last.ckpt", tensors, {**meta, key: value})
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(DataFormatError, match="resume metadata"):
            train(src, tgt, tiny_config(epochs=2), str(run), resume=True)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("torn", [b'{"epoch": 1, "sup_lo', b'{"epoch": 1}\n\xff\xfe'])
    def test_resume_after_a_torn_metrics_line_matches_uninterrupted(self, tmp_path, torn):
        # a kill during an epoch's append leaves a partial line of an epoch
        # that the checkpoint does not hold and the resume re-runs
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        train(src, tgt, tiny_config(), str(tmp_path / "full"))
        run = tmp_path / "part"
        train(src, tgt, tiny_config(), str(run), stop_after=1)
        with open(run / "metrics.jsonl", "ab") as fh:
            fh.write(torn)
        train(src, tgt, tiny_config(), str(run), resume=True)
        for name in ("metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize("line", [b"garbage\n", b'{"epoch": 0}\n', b"[0]\n", b"\n", b""])
    def test_resume_with_a_bad_kept_metrics_line_rejected(self, tmp_path, line):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        run = tmp_path / "r"
        train(src, tgt, tiny_config(epochs=3), str(run), stop_after=2)
        lines = (run / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        (run / "metrics.jsonl").write_bytes(lines[0] + line)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        with pytest.raises(DataFormatError, match="line 2 is not epoch 1's record"):
            train(src, tgt, tiny_config(epochs=3), str(run), resume=True)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_ssl_disabled_trains_source_only(self, tmp_path):
        src = tiny_cls_dataset(0)
        res = train(src, None, tiny_config(ssl_weight=0.0, use_mixup=False), str(tmp_path / "s"))
        assert all(rec["ssl_loss"] is None for rec in res.metrics)

    def test_ssl_enabled_requires_target(self, tmp_path):
        src = tiny_cls_dataset(0)
        with pytest.raises(DataFormatError):
            train(src, None, tiny_config(ssl_weight=0.25), str(tmp_path / "t"))

    def test_task_dataset_mismatch_rejected(self, tmp_path):
        seg = tiny_seg_dataset(0)
        with pytest.raises(DataFormatError):
            train(seg, None, tiny_config(ssl_weight=0.0), str(tmp_path / "m"))

    def test_best_checkpoint_tracks_metrics(self, tmp_path):
        src, tgt, cfg = improving_run()
        res = train(src, tgt, cfg, str(tmp_path / "b"))
        assert res.best_epoch >= 1
        vals = [rec["val_accuracy"] for rec in res.metrics]
        assert res.best_val == max(vals)
        # strict improvement only: the recorded best epoch is the first argmax
        assert res.best_epoch == int(np.argmax(vals))
        best_flags = [rec["best"] for rec in res.metrics]
        assert best_flags[res.best_epoch] is True

    def test_segmentation_task_runs(self, tmp_path):
        src = tiny_seg_dataset(0)
        tgt = tiny_seg_dataset(1)
        cfg = tiny_config(task="segmentation", epochs=1, batch_size=2)
        res = train(src, tgt, cfg, str(tmp_path / "seg"))
        assert "val_mean_iou" in res.metrics[0]

    def test_source_and_target_deformation_runs(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        cfg = tiny_config(epochs=1, deform_domains="source-and-target")
        res = train(src, tgt, cfg, str(tmp_path / "st"))
        assert res.metrics[0]["ssl_loss"] is not None

    def test_best_epoch_writes_identical_checkpoints(self, tmp_path):
        # epoch 0 always improves on no model, so it writes best.ckpt and
        # then last.ckpt from the same state
        cfg = tiny_config(dtype="float32", epochs=1)
        res = train(tiny_cls_dataset(0), tiny_cls_dataset(1), cfg, str(tmp_path / "r"))
        assert res.metrics[0]["best"] is True
        blob = (tmp_path / "r" / "best.ckpt").read_bytes()
        assert (tmp_path / "r" / "last.ckpt").read_bytes() == blob
        assert sorted(os.listdir(tmp_path / "r")) == [
            "best.ckpt", "config.json", "last.ckpt", "metrics.jsonl"
        ]

    def test_float32_mode_runs_and_is_deterministic(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        cfg = tiny_config(dtype="float32", epochs=1)
        train(src, tgt, cfg, str(tmp_path / "f1"))
        train(src, tgt, cfg, str(tmp_path / "f2"))
        assert (tmp_path / "f1" / "last.ckpt").read_bytes() == (
            tmp_path / "f2" / "last.ckpt"
        ).read_bytes()


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(task="translation"),
            dict(deform_domains="everywhere"),
            dict(dtype="float16"),
            dict(epochs=0),
            dict(ssl_weight=-0.5),
            dict(val_fraction=1.0),
            dict(mixup_alpha=0.0),
            dict(mixup_beta=-1.0),
            dict(jitter_sigma=-0.01),
            dict(jitter_clip=-0.01),
            dict(lr=0.0),
            dict(lr=-1.0),
            dict(lr=float("nan")),
            dict(weight_decay=-1e-4),
            dict(ssl_weight=float("nan")),
            dict(mixup_alpha=float("nan")),
            dict(mixup_beta=float("nan")),
            dict(jitter_sigma=float("nan")),
            dict(jitter_clip=float("nan")),
            dict(lr=float("inf")),
            dict(weight_decay=float("inf")),
            dict(ssl_weight=float("inf")),
            dict(mixup_alpha=float("inf")),
            dict(mixup_beta=float("inf")),
            dict(jitter_sigma=float("inf")),
            dict(jitter_clip=float("inf")),
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(DataFormatError):
            TrainConfig(**kw)

    def test_config_round_trips_through_dataclass_replace(self):
        cfg = tiny_config()
        again = dataclasses.replace(cfg, lr=5e-4)
        assert again.lr == 5e-4 and again.epochs == cfg.epochs


class TestRejectBeforeRunDir:
    """Inputs a run could not complete with are refused before run_dir exists."""

    @pytest.mark.parametrize(
        "kw, n_src, n_tgt",
        [
            (dict(deform=DeformSpec(kind="feature", k_pts=24)), 40, 24),
            (dict(deform=DeformSpec(kind="mixed")), 40, 40),  # the default k_pts=200
            (dict(deform=DeformSpec(kind="mixed", k_pts=30),
                  deform_domains="source-and-target"), 24, 40),
            (dict(val_fraction=0.0), 24, 24),
            (dict(batch_size=64), 24, 24),
        ],
        ids=["feature-k_pts", "mixed-default-k_pts", "source-k_pts", "empty-val", "big-batch"],
    )
    def test_rejected_without_run_dir(self, tmp_path, kw, n_src, n_tgt):
        run_dir = tmp_path / "run"
        with pytest.raises(DataFormatError):
            train(
                tiny_cls_dataset(0, n=n_src), tiny_cls_dataset(1, n=n_tgt),
                tiny_config(**kw), str(run_dir),
            )
        assert not run_dir.exists()

    def test_mixed_with_small_k_pts_trains(self, tmp_path):
        src = tiny_cls_dataset(0)
        tgt = tiny_cls_dataset(1)
        cfg = tiny_config(epochs=1, deform=DeformSpec(kind="mixed", k_pts=5))
        res = train(src, tgt, cfg, str(tmp_path / "mixed"))
        assert res.metrics[0]["ssl_loss"] is not None


def _structure_bytes(tensors: dict, meta: dict) -> list:
    """Offsets of the .tens bytes that are not tensor data: the header, the
    metadata block and each tensor's name, dtype and shape (save_tensors'
    layout, tensors sorted by name)."""
    meta_len = len(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    offsets = list(range(14 + meta_len))
    pos = len(offsets)
    for name in sorted(tensors):
        arr = tensors[name]
        head = 2 + len(name.encode()) + 2 + len(arr.dtype.str) + 2 + 8 * arr.ndim
        offsets.extend(range(pos, pos + head))
        pos += head + arr.nbytes
    return offsets


@pytest.fixture(scope="module")
def resumable_run(tmp_path_factory):
    """A float32 run stopped after one of two epochs: its inputs, config,
    last.ckpt bytes, and where the checkpoint's structure bytes sit."""
    src, tgt = tiny_cls_dataset(0), tiny_cls_dataset(1)
    cfg = tiny_config(dtype="float32")
    run = tmp_path_factory.mktemp("fuzz") / "run"
    train(src, tgt, cfg, str(run), stop_after=1)
    tensors, meta = load_tensors(run / "last.ckpt")
    return src, tgt, cfg, run, (run / "last.ckpt").read_bytes(), _structure_bytes(tensors, meta)


META_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers()),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_only_data_format_error(resumable_run, data):
    # load_checkpoint and train(resume=True) on a damaged last.ckpt either
    # succeed or raise DataFormatError; stop_after=0 runs no epoch
    src, tgt, cfg, run, blob, structure = resumable_run
    damage = data.draw(st.sampled_from(["truncate", "flip", "drop", "meta"]), label="damage")
    path = run / "last.ckpt"
    if damage == "truncate":
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    elif damage == "flip":
        damaged = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.sampled_from(structure), label="at")
            damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(damaged))
    else:
        path.write_bytes(blob)
        tensors, meta = load_tensors(path)
        if damage == "drop":
            names = sorted({k.partition("/")[0] for k in tensors} | set(tensors))
            gone = data.draw(st.sampled_from(names), label="dropped")
            tensors = {k: v for k, v in tensors.items() if gone not in (k, k.partition("/")[0])}
        else:
            key = data.draw(st.sampled_from(sorted(meta)), label="key")
            meta[key] = data.draw(META_VALUES, label="value")
        save_tensors(path, tensors, meta)
    for load in (
        lambda: load_checkpoint(path),
        lambda: train(src, tgt, cfg, str(run), resume=True, stop_after=0),
    ):
        try:
            load()
        except DataFormatError:
            pass
