"""Two-head encoder network: shapes, pooling, dropout, losses, and the
analytic-vs-numeric gradient oracle."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pcda import network
from pcda.chamfer import chamfer_loss_region
from pcda.deform import DeformSpec, apply_deformation
from pcda.errors import DataFormatError, NumericalError
from pcda.network import (
    DROPOUT_RATE,
    ENCODER_WIDTHS,
    GLOBAL_DIM,
    HEAD_HIDDEN,
    HEAD_IN_DIM,
    HEAD_OUTPUTS,
    POINT_FEAT_DIM,
    SUP_HIDDEN,
    backward,
    classification_loss_and_grads,
    forward_pass,
    infer,
    init_params,
    param_dtype,
    point_features,
    reconstruction_loss_and_grads,
    segmentation_loss_and_grads,
    softmax_cross_entropy,
    zeros_like_params,
    _encode,
    _encode_pool,
    _head_backward,
    _head_forward,
)
from pcda.selfcheck import (
    check_network_gradients,
    composite_loss_and_grads,
    finite_difference_grad,
    gradient_agreement,
    sample_param_coords,
)

from conftest import make_cloud


@pytest.fixture(scope="module")
def params_cls():
    return init_params(num_classes=3, task="classification", seed=0)


@pytest.fixture(scope="module")
def params_seg():
    return init_params(num_classes=4, task="segmentation", seed=0)


class TestInit:
    def test_architecture_widths(self, params_cls):
        assert ENCODER_WIDTHS == (64, 64, 128, 256, 1024)
        assert SUP_HIDDEN == (512, 256)
        assert HEAD_HIDDEN == (256, 256, 128)
        assert HEAD_IN_DIM == GLOBAL_DIM + POINT_FEAT_DIM == 1280
        d_in = 3
        for i, width in enumerate(ENCODER_WIDTHS, start=1):
            assert params_cls[f"enc{i}_w"].shape == (d_in, width)
            assert params_cls[f"enc{i}_b"].shape == (width,)
            d_in = width
        assert params_cls["sup1_w"].shape == (GLOBAL_DIM, 512)
        assert params_cls["sup3_w"].shape == (256, 3)
        assert params_cls["rec1_w"].shape == (HEAD_IN_DIM, 256)
        assert params_cls["rec4_w"].shape == (128, 3)

    def test_seg_head_widths(self, params_seg):
        assert params_seg["seg1_w"].shape == (HEAD_IN_DIM, 256)
        assert params_seg["seg4_w"].shape == (128, 4)
        assert "sup1_w" not in params_seg

    def test_glorot_bounds_and_zero_biases(self, params_cls):
        for name, arr in params_cls.items():
            if name.endswith("_b"):
                assert np.all(arr == 0.0)
            else:
                fan_in, fan_out = arr.shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.abs(arr).max() <= limit
                assert np.abs(arr).max() > 0.5 * limit  # actually spread out

    def test_seeded_init_reproducible(self):
        a = init_params(3, seed=7)
        b = init_params(3, seed=7)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_bad_task_rejected(self):
        with pytest.raises(DataFormatError):
            init_params(3, task="nope")


class TestForward:
    def test_output_shapes_batch(self, params_cls):
        clouds = np.stack([make_cloud(i, 20) for i in range(4)])
        out, _ = forward_pass(params_cls, clouds, heads=("sup",))
        assert set(out) == {"global", "logits"}
        assert out["global"].shape == (4, GLOBAL_DIM)
        assert out["logits"].shape == (4, 3)

    def test_single_cloud_refused(self, params_cls):
        # one cloud goes in as a batch of one, (1, n, 3)
        cloud = make_cloud(0, 20)
        for run in (
            lambda: forward_pass(params_cls, cloud, heads=("sup",)),
            lambda: infer(params_cls, cloud),
            lambda: point_features(params_cls, cloud, 3),
            lambda: reconstruction_loss_and_grads(params_cls, cloud, cloud, np.arange(4)),
        ):
            with pytest.raises(DataFormatError, match=r"\(B, n, 3\)"):
                run()

    def test_seg_output_shape(self, params_seg):
        out, _ = forward_pass(params_seg, make_cloud(0, 15)[None], heads=("seg",))
        assert out["seg_logits"].shape == (1, 15, 4)

    def test_permutation_invariant_global_feature(self, params_cls):
        pts = make_cloud(1, 30)[None]
        perm = np.random.default_rng(0).permutation(30)
        a, _ = forward_pass(params_cls, pts, heads=("sup",))
        b, _ = forward_pass(params_cls, pts[:, perm], heads=("sup",))
        assert np.array_equal(a["global"], b["global"])
        assert np.array_equal(a["logits"], b["logits"])

    def test_global_is_max_over_points(self, params_cls):
        pts = make_cloud(2, 25)[None]
        out, _ = forward_pass(params_cls, pts, heads=())
        per_point = point_features(params_cls, pts, 5).reshape(25, GLOBAL_DIM)
        assert np.array_equal(out["global"][0], per_point.max(axis=0))

    def test_eval_mode_deterministic(self, params_cls):
        pts = make_cloud(3, 16)[None]
        a, _ = forward_pass(params_cls, pts, heads=("sup",))
        b, _ = forward_pass(params_cls, pts, heads=("sup",))
        assert np.array_equal(a["logits"], b["logits"])

    def test_train_dropout_seeded(self, params_cls):
        pts = make_cloud(4, 16)[None]
        a, _ = forward_pass(params_cls, pts, mode="train", heads=("sup",), dropout_seed=1)
        b, _ = forward_pass(params_cls, pts, mode="train", heads=("sup",), dropout_seed=1)
        c, _ = forward_pass(params_cls, pts, mode="train", heads=("sup",), dropout_seed=2)
        assert np.array_equal(a["logits"], b["logits"])
        assert not np.array_equal(a["logits"], c["logits"])

    def test_dropout_off_in_eval(self, params_cls):
        # eval logits do not depend on any dropout seed
        pts = make_cloud(5, 16)[None]
        a, _ = forward_pass(params_cls, pts, heads=("sup",), dropout_seed=1)
        b, _ = forward_pass(params_cls, pts, heads=("sup",), dropout_seed=99)
        assert np.array_equal(a["logits"], b["logits"])

    def test_train_dropout_masks_both_sup_hidden_layers(self):
        # train-mode s_i = 2 * relu(pre_i) * (uniform(size) < 0.5) on hidden
        # layers 1 and 2 of sup and seg, the masks drawn in order from the
        # dropout generator, which ends in the same state; pre_1 is the
        # eval-mode pre-activation and pre_i+1 = s_i W_i+1 + b_i+1. Each
        # live unit is scaled by 0 or 2, about half of them by 0.
        clouds = np.stack([make_cloud(i, 16) for i in range(8)])
        for head, hidden in (("sup", SUP_HIDDEN), ("seg", HEAD_HIDDEN)):
            for dtype in (np.float32, np.float64):
                task = "classification" if head == "sup" else "segmentation"
                params = init_params(3, task=task, seed=0, dtype=dtype)
                drawn, ref = np.random.default_rng(3), np.random.default_rng(3)
                _, trace = forward_pass(
                    params, clouds, mode="train", heads=(head,), dropout_seed=drawn
                )
                relu = forward_pass(params, clouds, heads=(head,))[1][head]["s1"]
                for i in range(1, len(hidden) + 1):
                    s = trace[head][f"s{i}"]
                    assert s.dtype == dtype
                    if i <= 2:
                        mask = ref.uniform(size=s.shape) < 1.0 - DROPOUT_RATE
                        np.testing.assert_array_equal(s, 2 * relu * mask)
                        scale = s[relu > 0] / relu[relu > 0]
                        assert set(np.unique(scale)) == {0.0, 1.0 / (1.0 - DROPOUT_RATE)}
                        assert abs((scale == 0).mean() - DROPOUT_RATE) < 0.05
                    else:  # the seg head's third hidden layer has no dropout
                        np.testing.assert_array_equal(s, relu)
                    w, b = params[f"{head}{i + 1}_w"], params[f"{head}{i + 1}_b"]
                    relu = np.maximum(s @ w + b, 0)
                assert drawn.random() == ref.random()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_point_features_match_forward_activations(self, dtype):
        params = init_params(3, seed=4, dtype=dtype)
        clouds = np.stack([make_cloud(i, 20) for i in range(3)])
        out, trace = forward_pass(params, clouds, heads=())
        for layer in range(1, len(ENCODER_WIDTHS)):
            feats = point_features(params, clouds, layer)
            want = trace["acts"][layer - 1].reshape(3, 20, -1).astype(np.float64)
            assert feats.dtype == np.float64
            assert np.array_equal(feats, want)
        # layer 5 is pooled cloud by cloud and not kept: compare its max-pool
        feats = point_features(params, clouds, len(ENCODER_WIDTHS))
        assert feats.dtype == np.float64
        assert np.array_equal(feats.max(axis=1), out["global"].astype(np.float64))
        assert np.array_equal(feats.argmax(axis=1), trace["argmax"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_pool_argmax_is_first_maximum(self, dtype):
        # repeated points tie every activation; np.argmax picks the first row
        params = init_params(3, seed=2, dtype=dtype)
        clouds = np.stack([make_cloud(i, 40) for i in range(4)])
        clouds[:, 20:] = clouds[:, :20]
        clouds[1] = clouds[1, 0]
        _, trace = forward_pass(params, clouds, heads=())
        a5 = point_features(params, clouds, 5)
        assert (a5 == 0).all(axis=1).any()  # some all-zero (tied) columns
        assert np.array_equal(trace["argmax"], a5.argmax(axis=1))

    def test_bad_shapes_rejected(self, params_cls):
        with pytest.raises(DataFormatError):
            forward_pass(params_cls, np.zeros((4, 2)))
        with pytest.raises(DataFormatError):
            forward_pass(params_cls, np.zeros((2, 4, 2)))
        with pytest.raises(DataFormatError):
            forward_pass(params_cls, make_cloud(0, 8)[None], mode="sometimes")
        with pytest.raises(DataFormatError):
            forward_pass(params_cls, make_cloud(0, 8)[None], heads=("nope",))

    @pytest.mark.parametrize("entry", ["forward_pass", "infer"])
    def test_bad_heads_rejected(self, params_cls, params_seg, entry):
        # an unknown head (rec among them: it runs only inside the
        # reconstruction loss), or a head the parameters do not hold
        run = getattr(network, entry)
        cloud = make_cloud(0, 8)[None]
        for params, head in (
            (params_cls, "nope"), (params_cls, "rec"), (params_cls, "seg"), (params_seg, "sup"),
        ):
            with pytest.raises(DataFormatError, match=head):
                run(params, cloud, heads=(head,))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_numerical_error(self, params_cls):
        blown = dict(params_cls)
        blown["enc1_w"] = params_cls["enc1_w"] * 1e200
        blown["enc2_w"] = params_cls["enc2_w"] * 1e200
        with pytest.raises(NumericalError):
            forward_pass(blown, make_cloud(0, 8)[None], heads=("sup",))

    def test_dtype_follows_params(self):
        params32 = init_params(3, seed=0, dtype=np.float32)
        assert param_dtype(params32) == np.float32
        out, _ = forward_pass(params32, make_cloud(0, 8)[None], heads=("sup",))
        assert out["logits"].dtype == np.float32


def dense_max_pool(params, a4):
    """The max-pool before the channel-major one, kept as a reference:
    relu(a4 @ W5 + b5) on every row, then each channel's maximum and its
    first row."""
    B, n, d = a4.shape
    z = a4.reshape(B * n, d) @ params["enc5_w"] + params["enc5_b"]
    z = np.maximum(z, 0.0).reshape(B, n, GLOBAL_DIM)
    return z.max(axis=1), z.argmax(axis=1)


def pool_case(case, dtype):
    """(params, clouds) of the pool pin; the biases have mixed signs, so
    some channels are dead in some clouds or in all of them."""
    params = init_params(3, seed=5, dtype=dtype)
    rng = np.random.default_rng(11)
    params["enc5_b"] = rng.normal(0.0, 0.3, GLOBAL_DIM).astype(dtype)
    params["enc5_b"][:8] = -5.0
    if case == "ties":
        clouds = pin_clouds("ties")
    else:  # a ragged row count: above 192 and not a multiple of 8
        clouds = rng.uniform(-0.5, 0.5, size=(2, 300, 3))
    return params, np.asarray(clouds, dtype=dtype)


class TestMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["ties", "ragged"])
    def test_matches_dense_reference(self, dtype, case):
        # the per-cloud loop against the batched layers 1-4 and a row-major
        # layer 5 on every row
        params, clouds = pool_case(case, dtype)
        B, n, _ = clouds.shape
        a4 = _encode(params, clouds.reshape(B * n, 3), 4)[3]
        g, argmax, kept = _encode_pool(params, clouds, (4,))
        want_g, want_argmax = dense_max_pool(params, a4.reshape(B, n, -1))
        assert g.dtype == dtype
        assert np.array_equal(kept[4], a4)
        assert np.array_equal(g, want_g)
        assert np.array_equal(argmax, want_argmax)
        assert (g == 0).all(axis=0).any()  # dead in every cloud
        assert ((g == 0).any(axis=0) & (g > 0).any(axis=0)).any()  # dead in some

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_row_raises(self, value):
        params, clouds = pool_case("ties", np.float64)
        if value == "nan":
            clouds[2, 5, 0] = np.nan  # one point's rows are NaN up to layer 5
        else:
            params["enc4_b"][0] = np.inf  # layer-4 column 0 is +inf on every row
        # the guard's two branches: a NaN maximum, or a +inf one with no NaN
        B, n, _ = clouds.shape
        a4 = _encode(params, clouds.reshape(B * n, 3), 4)[3]
        z5 = a4 @ params["enc5_w"] + params["enc5_b"]
        assert np.isnan(z5).any() == (value == "nan")
        assert value == "nan" or z5.max() == np.inf
        with pytest.raises(NumericalError):
            _encode_pool(params, clouds)

    def test_column_of_minus_inf_is_a_dead_channel(self):
        params, clouds = pool_case("ties", np.float64)
        params["enc5_b"][100] = -np.inf
        g, argmax, _ = _encode_pool(params, clouds)
        assert (g[:, 100] == 0).all() and (argmax[:, 100] == 0).all()


THREAD_PROBE = """
import numpy as np
from pcda.network import _head_forward, forward_pass, init_params
clouds = np.random.default_rng(3).uniform(-0.5, 0.5, size=(3, 300, 3))
for task, head in (("classification", "sup"), ("segmentation", "seg")):
    for dtype in (np.float32, np.float64):
        params = init_params(4, task=task, seed=1, dtype=dtype)
        out, trace = forward_pass(params, clouds, heads=(head,))
        # the rec head on every layer-4 row of the trace
        out["recon"] = _head_forward(
            params, "rec", trace["global"], trace["acts"][3], None, None
        )[0]
        for key, arr in sorted(out.items()) + [("argmax", trace["argmax"])]:
            print(task, dtype.__name__, key, arr.tobytes().hex())
"""


def test_forward_pass_bits_do_not_depend_on_blas_threads():
    # 300 points per cloud: a ragged row count for the layer-5 GEMM
    src = os.path.dirname(os.path.dirname(os.path.abspath(network.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.splitlines())
    assert [len(lines) for lines in runs] == [2 * 2 * 4] * 2
    differ = [one.split()[:3] for one, two in zip(*runs) if one != two]
    assert not differ


def dense_backward(params, trace, upstream):
    """The encoder backward before the sparse max-pool, kept as a reference:
    scatter the gated global gradient into dense (B*n, 1024) zeros and run
    all five encoder layers on every row. `upstream` maps each head to its
    cache and the gradient at its output, (B, C) for sup and (B*n, width)
    for a per-point head run on every row."""
    dtype = param_dtype(params)
    B, n = trace["B"], trace["n"]
    grads = zeros_like_params(params)
    dg = np.zeros((B, GLOBAL_DIM), dtype=dtype)
    da4_extra = None
    for head, (cache, d) in upstream.items():
        dgh, da4 = _head_backward(params, head, cache, d, trace["global"], grads)
        dg += dgh
        if da4 is not None:
            da4_extra = da4 if da4_extra is None else da4_extra + da4
    dg *= trace["global"] > 0
    da5 = np.zeros((B, n, GLOBAL_DIM), dtype=dtype)
    np.put_along_axis(da5, trace["argmax"][:, None, :], dg[:, None, :], axis=1)
    dh = da5.reshape(B * n, GLOBAL_DIM)
    acts = trace["acts"]
    inputs = [trace["x"]] + acts
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


def dense_rec(params, trace):
    """The rec head on every layer-4 row of a trace, as the seg head runs:
    its (B, n, 3) output and its cache."""
    out, cache = _head_forward(params, "rec", trace["global"], trace["acts"][3], None, None)
    return out.reshape(trace["B"], trace["n"], 3), cache


def dense_region_chamfer(recon, originals, regions, weight):
    """Mean region Chamfer of (B, n, 3) reconstructions, one
    chamfer_loss_region per cloud, and its weighted gradient at every row,
    as (B*n, 3) in the reconstruction's dtype."""
    B = len(recon)
    total, drecon = 0.0, np.zeros(recon.shape)
    for b in range(B):
        res = chamfer_loss_region(recon[b], originals[b], regions[b])
        total += res.value
        drecon[b] = res.grad_pred
    drecon *= weight / B
    return total / B, drecon.reshape(-1, 3).astype(recon.dtype)


def dense_composite(params, clouds, soft, originals, regions, weight, dropout_seed):
    """composite_loss_and_grads by the dense route: one traced train-mode
    sup pass, the rec head on every row of its trace, and one backward of
    both heads."""
    out, trace = forward_pass(
        params, clouds, mode="train", heads=("sup",), dropout_seed=dropout_seed
    )
    ce, dlogits = softmax_cross_entropy(out["logits"], soft)
    recon, cache = dense_rec(params, trace)
    rec_loss, drecon = dense_region_chamfer(recon, originals, regions, weight)
    upstream = {
        "sup": (trace["sup"], dlogits.reshape(trace["B"], -1).astype(recon.dtype)),
        "rec": (cache, drecon),
    }
    return ce + weight * rec_loss, dense_backward(params, trace, upstream)


def pin_clouds(case):
    """Inputs of the sparse-vs-dense pin: (B, n, 3) clouds."""
    rng = np.random.default_rng(7)
    if case == "b1":
        return rng.uniform(-0.5, 0.5, size=(1, 30, 3))
    # repeated points tie activations; one all-equal cloud ties every row
    # and leaves dead (all-zero) columns
    clouds = rng.uniform(-0.5, 0.5, size=(4, 40, 3))
    clouds[:, 20:] = clouds[:, :20]
    clouds[1] = clouds[1, 0]
    return clouds


def walk_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from walk_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from walk_arrays(value)


class TestBackward:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", ["ties", "b1"])
    @pytest.mark.parametrize("heads", [("sup",), ("rec",), ("seg",), ("sup", "rec")])
    def test_sparse_matches_dense_reference(self, dtype, tol, case, heads):
        # ("rec",) is reconstruction_loss_and_grads, the region-sparse rec
        # head against the rec head on every row; ("sup", "rec") is
        # composite_loss_and_grads: the classification and the region-sparse
        # reconstruction losses, summed, against one dense backward of both
        # heads
        task = "segmentation" if "seg" in heads else "classification"
        params = init_params(3, task=task, seed=5, dtype=dtype)
        clouds = pin_clouds(case)
        rng = np.random.default_rng(3)
        if case == "ties":
            a5 = point_features(params, clouds, 5)
            assert (a5 == 0).all(axis=1).any()  # dead channels
            assert ((a5 == a5.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()  # ties
        if "rec" in heads:
            soft = rng.dirichlet(np.ones(3), size=clouds.shape[:-2])
            originals = rng.uniform(-0.5, 0.5, size=clouds.shape)
            n = clouds.shape[-2]
            regions = [np.sort(rng.choice(n, size=k, replace=False)) for k in (1, 9, n, 4)]
            regions = regions[: len(clouds)]
            if "sup" in heads:
                args = (params, clouds, soft, originals, regions, 0.5, 2)
                loss, got = composite_loss_and_grads(*args)
                want_loss, want = dense_composite(*args)
            else:
                args = (params, clouds, originals, regions, 0.5)
                loss, got = reconstruction_loss_and_grads(*args)
                want_loss, want = dense_reconstruction(*args)
            assert loss == pytest.approx(want_loss, rel=tol)
        else:
            (head,) = heads
            out, trace = forward_pass(params, clouds, mode="train", heads=heads, dropout_seed=2)
            d = rng.normal(size=out[HEAD_OUTPUTS[head]].shape)
            got = backward(params, trace, **{{"sup": "dlogits", "seg": "dseg_logits"}[head]: d})
            rows = trace["B"] if head == "sup" else trace["B"] * trace["n"]
            d = d.reshape(rows, -1).astype(dtype)
            want = dense_backward(params, trace, {head: (trace[head], d)})
        assert set(got) == set(want)
        for k in want:
            scale = max(np.abs(want[k]).max(), np.finfo(dtype).tiny)
            err = np.abs(got[k] - want[k]).max() / scale
            assert err <= tol, f"{k}: relative difference {err:.2e}"
        assert np.abs(got["enc1_w"]).max() > 0
        if "rec" in heads:
            live = ("rec1_w", "rec4_w") + (("sup1_w",) if "sup" in heads else ())
            assert all(np.abs(got[k]).max() > 0 for k in live)

    @pytest.mark.parametrize("task", ["classification", "segmentation"])
    def test_sparse_pool_backward_finite_differences(self, task):
        # float64 central differences at layer-5 and layer-4 weights, through
        # the sparse layer-5 backward of a sup-only or a seg pass, on a batch
        # with tied rows and channels dead in some clouds
        params = init_params(3, task=task, seed=5)
        clouds = pin_clouds("ties")
        rng = np.random.default_rng(4)
        if task == "classification":
            loss_and_grads = classification_loss_and_grads
            labels = np.eye(3)[rng.integers(0, 3, len(clouds))]
        else:
            loss_and_grads = segmentation_loss_and_grads
            labels = rng.integers(0, 3, clouds.shape[:2])

        def loss_only():
            return loss_and_grads(params, clouds, labels, mode="train", dropout_seed=2)[0]

        _, grads = loss_and_grads(params, clouds, labels, mode="train", dropout_seed=2)
        _, trace = forward_pass(params, clouds, heads=())
        a5 = point_features(params, clouds, 5)
        assert ((a5 == a5.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()  # ties
        live = trace["global"] > 0
        mixed = np.flatnonzero(live.any(axis=0) & ~live.all(axis=0))
        dead = np.flatnonzero(~live.any(axis=0))
        assert len(mixed) and len(dead)  # channels dead in some clouds, and in all
        channels = np.concatenate(
            [rng.choice(mixed, 8, replace=False), rng.choice(dead, 2, replace=False)]
        )
        # enc5_w rows read layer 4 at the argmax rows of the first cloud
        a4_top = trace["acts"][3][trace["argmax"][0, channels]]
        coords = [
            *(("enc5_w", int(rng.choice(np.flatnonzero(a)) * GLOBAL_DIM + c))
              for a, c in zip(a4_top, channels) if a.any()),
            *(("enc5_b", int(c)) for c in channels),
            *(("enc4_w", int(i)) for i in rng.choice(params["enc4_w"].size, 10, replace=False)),
        ]
        # the seg head's 160 x 256 ReLUs put a kink within 1e-6 of some
        # coordinates, so it takes a smaller step (and more rounding error)
        h = 1e-6 if task == "classification" else 1e-7
        numeric = finite_difference_grad(loss_only, params, coords, h=h)
        analytic = np.array([grads[name].reshape(-1)[idx] for name, idx in coords])
        assert (analytic != 0).sum() >= 20
        assert not grads["enc5_w"][:, dead].any() and not grads["enc5_b"][dead].any()
        frac, worst = gradient_agreement(analytic, numeric, tol=1e-4)
        assert frac == 1.0, f"{frac:.3f} of {len(coords)} coords agree (worst {worst:.2e})"

    def test_pool_gradient_is_not_densified(self):
        # on the argmax rows R, layers 4-1 hold about R x 1027 values (their
        # gathered inputs and gradients); a dense R x 1024 pool gradient
        # would double the peak
        params = init_params(3, seed=0)
        clouds = np.random.default_rng(0).uniform(-0.5, 0.5, size=(16, 128, 3))
        _, trace = forward_pass(params, clouds, heads=())
        live = trace["global"] > 0
        rows = len(np.unique((trace["argmax"] + np.arange(16)[:, None] * 128)[live]))
        grads = zeros_like_params(params)
        dg = np.random.default_rng(1).normal(size=live.shape)
        tracemalloc.start()
        try:
            network._encoder_backward(
                params, trace, dg, grads, np.empty(0, dtype=np.intp), np.empty((0, POINT_FEAT_DIM))
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows * GLOBAL_DIM * 8, f"peak {peak} bytes for {rows} argmax rows"

    def test_dense_seg_step_peak_memory(self):
        # the seg head keeps one (B*n, 256) array per dropout layer, its
        # output after dropout, and draws the masks in chunks: about 9.5
        # units of B*n*256 float32; a cache of the ReLU output, the mask
        # and their product per layer would peak at 13.5
        B, n = 8, 256
        params = init_params(4, "segmentation", seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        clouds = rng.uniform(-0.5, 0.5, size=(B, n, 3))
        labels = rng.integers(0, 4, size=(B, n))
        segmentation_loss_and_grads(params, clouds, labels, dropout_seed=1)  # warm-up
        tracemalloc.start()
        try:
            segmentation_loss_and_grads(params, clouds, labels, dropout_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        units = peak / (B * n * 256 * 4)
        assert units < 11.0, f"peak {units:.2f} units of B*n*256 float32"

    @pytest.mark.parametrize("heads", [("sup",), ("seg",)])
    def test_trace_keeps_no_layer5_activations(self, heads):
        task = "segmentation" if "seg" in heads else "classification"
        params = init_params(3, task=task, seed=0, dtype=np.float32)
        B, n = 3, 50
        clouds = np.stack([make_cloud(i, n) for i in range(B)])
        _, trace = forward_pass(params, clouds, mode="train", heads=heads, dropout_seed=1)
        del trace["params_ref"]
        assert len(trace["acts"]) == len(ENCODER_WIDTHS) - 1
        for arr in walk_arrays(trace):
            assert arr.size != B * n * GLOBAL_DIM, f"a {arr.shape} array in the trace"

    def test_trace_params_mismatch_rejected(self, params_cls):
        _, trace = forward_pass(params_cls, make_cloud(0, 8)[None], heads=("sup",))
        other = init_params(3, seed=1)
        with pytest.raises(DataFormatError):
            backward(other, trace, dlogits=np.zeros((1, 3)))

    def test_grads_cover_all_params(self, params_cls):
        pts = np.stack([make_cloud(i, 12) for i in range(2)])
        labels = np.eye(3)[[0, 1]]
        _, grads = classification_loss_and_grads(params_cls, pts, labels, mode="eval")
        assert set(grads) == set(params_cls)
        assert all(grads[k].shape == params_cls[k].shape for k in grads)
        # encoder and sup head receive signal; untouched rec head stays zero
        assert np.abs(grads["enc1_w"]).max() > 0
        assert np.abs(grads["rec1_w"]).max() == 0

    def test_zeros_like_params(self, params_cls):
        z = zeros_like_params(params_cls)
        assert set(z) == set(params_cls)
        assert all(np.all(v == 0) and v.shape == params_cls[k].shape for k, v in z.items())


def dense_reconstruction(params, deformed, originals, regions, weight):
    """The dense reconstruction path, kept as the reference: the rec head on
    every point of a heads=() trace, the region Chamfer cloud by cloud, and
    dense_backward above."""
    _, trace = forward_pass(params, deformed, heads=())
    recon, cache = dense_rec(params, trace)
    loss, drecon = dense_region_chamfer(recon, originals, regions, weight)
    return loss, dense_backward(params, trace, {"rec": (cache, drecon)})


def region_case(case, params):
    """(deformed, originals, regions) of one sparse-reconstruction pin case."""
    rng = np.random.default_rng(11)
    n = 40
    B = 1 if case == "b1" else 4
    clouds = rng.uniform(-0.5, 0.5, size=(B, n, 3))
    spec = {
        "feature": DeformSpec(kind="feature", k_pts=7),
        "split": DeformSpec(kind="split"),
    }.get(case, DeformSpec(kind="voxel", k=2))
    feats = point_features(params, clouds, 3) if case == "feature" else [None] * B
    pairs = [
        apply_deformation(c, spec, seed=j, features=feats[j]) for j, c in enumerate(clouds)
    ]
    deformed = np.stack([p.deformed for p in pairs])
    regions = [p.region for p in pairs]
    if case == "sizes":  # a 1-point region, a whole cloud out of order, then two more
        regions = [np.array([5]), rng.permutation(n), regions[2], np.array([n - 1, 0])]
    if case == "whole":  # the union of rows is every point
        regions = [rng.permutation(n) for _ in range(B)]
    return deformed, clouds, regions


class TestSparseReconstruction:
    CASES = ["voxel", "feature", "split", "sizes", "whole", "b1"]

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_reference(self, dtype, tol, case):
        params = init_params(3, seed=5, dtype=dtype)
        deformed, originals, regions = region_case(case, params)
        loss, got = reconstruction_loss_and_grads(params, deformed, originals, regions, 0.25)
        want_loss, want = dense_reconstruction(params, deformed, originals, regions, 0.25)
        assert loss == pytest.approx(want_loss, rel=tol)
        assert set(got) == set(want)
        for k in want:
            scale = max(np.abs(want[k]).max(), np.finfo(dtype).tiny)
            err = np.abs(got[k] - want[k]).max() / scale
            assert err <= tol, f"{k}: relative difference {err:.2e}"
        for k in ("enc1_w", "enc4_w", "rec1_w", "rec4_w"):
            assert np.abs(got[k]).max() > 0

    def test_finite_differences(self):
        params = init_params(3, seed=6, dtype=np.float64)
        deformed, originals, regions = region_case("sizes", params)
        _, grads = reconstruction_loss_and_grads(params, deformed, originals, regions)
        rng = np.random.default_rng(2)
        split = GLOBAL_DIM * HEAD_HIDDEN[0]  # rec1_w rows below it read the global feature
        coords = [
            (name, int(i))
            for name, lo, hi in (
                ("enc1_w", 0, params["enc1_w"].size),
                ("enc4_w", 0, params["enc4_w"].size),
                ("rec1_w", 0, split),
                ("rec1_w", split, params["rec1_w"].size),
                ("rec4_w", 0, params["rec4_w"].size),
            )
            for i in rng.choice(np.arange(lo, hi), size=6, replace=False)
        ]

        def loss_only():
            return reconstruction_loss_and_grads(params, deformed, originals, regions)[0]

        # a small step: at 1e-5 some enc1_w coordinates straddle a ReLU kink
        numeric = finite_difference_grad(loss_only, params, coords, h=1e-6)
        analytic = np.array([grads[name].reshape(-1)[idx] for name, idx in coords])
        frac, worst = gradient_agreement(analytic, numeric, tol=1e-4)
        assert frac == 1.0, f"{frac:.3f} of {len(coords)} coords agree (worst {worst:.2e})"

    def test_rec_head_runs_on_region_rows_only(self, monkeypatch):
        params = init_params(3, seed=5, dtype=np.float32)
        deformed, originals, regions = region_case("voxel", params)
        caches = []

        def spy(*args):
            out, cache = head_forward(*args)
            caches.append((args[1], out, cache))
            return out, cache

        head_forward = network._head_forward
        monkeypatch.setattr(network, "_head_forward", spy)
        reconstruction_loss_and_grads(params, deformed, originals, regions)
        rows = sum(len(r) for r in regions)
        assert rows < deformed.shape[0] * deformed.shape[1]
        ((head, out, cache),) = caches
        assert head == "rec" and len(out) == rows
        for key, arr in cache.items():
            assert arr is None or len(arr) == rows, f"{key} has {len(arr)} rows"

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("head", ["rec", "seg"])
    def test_every_row_broadcast_matches_row_gather(self, dtype, tol, head):
        # forward_pass runs the per-point heads on every point with cloud=None
        # (broadcast over equal row blocks, reshape-sum backward); the
        # reconstruction loss passes row indices (gather, segment sum)
        params = init_params(4, "segmentation", seed=2, dtype=dtype)
        _, trace = forward_pass(params, pin_clouds("batch"), heads=())
        B, n = trace["B"], trace["n"]
        g, a4 = trace["global"], trace["acts"][3]
        cloud = np.repeat(np.arange(B), n)
        out_b, cache_b = network._head_forward(params, head, g, a4, None, None)
        out_g, cache_g = network._head_forward(params, head, g, a4, cloud, None)
        np.testing.assert_array_equal(out_b, out_g)
        dout = np.random.default_rng(3).normal(size=out_b.shape).astype(dtype)
        grads_b, grads_g = zeros_like_params(params), zeros_like_params(params)
        dg_b, da4_b = _head_backward(params, head, cache_b, dout, g, grads_b)
        dg_g, da4_g = _head_backward(params, head, cache_g, dout, g, grads_g)
        for want, got in ((dg_b, dg_g), (da4_b, da4_g), *((grads_b[k], grads_g[k]) for k in grads_b)):
            assert np.abs(got - want).max() <= tol * max(np.abs(want).max(), 1e-30)

    def test_bad_batches_rejected(self, params_cls):
        clouds = np.stack([make_cloud(i, 16) for i in range(2)])
        good = [np.arange(4), np.arange(3)]
        for originals, regions in (
            (clouds[:1], good),
            (clouds, good[:1]),
            (clouds, [np.arange(4), np.array([], dtype=np.int64)]),
            (clouds, [np.arange(4), np.array([16])]),
            (clouds, [np.arange(4), np.array([-1])]),
            (clouds, [np.arange(4), np.array([2, 2])]),
            (clouds, [np.arange(4), np.array([[1], [2]])]),
        ):
            with pytest.raises(DataFormatError):
                reconstruction_loss_and_grads(params_cls, clouds, originals, regions)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 10):
            onehot = np.zeros(c)
            onehot[0] = 1.0
            loss, grad = softmax_cross_entropy(np.zeros(c), onehot)
            assert loss == pytest.approx(np.log(c), abs=1e-12)
            assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean_and_grad_scale(self):
        logits = np.zeros((4, 3))
        labels = np.eye(3)[[0, 1, 2, 0]]
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(3), abs=1e-12)
        # per-row gradient carries the 1/B factor
        assert np.allclose(grad[0], (np.ones(3) / 3 - np.eye(3)[0]) / 4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        labels = np.eye(4)[rng.integers(0, 4, size=5)]
        l1, g1 = softmax_cross_entropy(logits, labels)
        l2, g2 = softmax_cross_entropy(logits + 100.0, labels)
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert np.allclose(g1, g2)

    def test_extreme_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([1000.0, 0.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-10)
        assert np.isfinite(grad).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 5))
        labels = np.array([[0.2, 0.3, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.4, 0.6]])
        _, grad = softmax_cross_entropy(logits, labels)
        h = 1e-6
        for i in range(2):
            for j in range(5):
                up = logits.copy()
                up[i, j] += h
                down = logits.copy()
                down[i, j] -= h
                num = (
                    softmax_cross_entropy(up, labels)[0]
                    - softmax_cross_entropy(down, labels)[0]
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(num, abs=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            softmax_cross_entropy(np.zeros(3), np.zeros(4))


class TestLosses:
    def test_reconstruction_loss_is_mean_region_chamfer(self, params_cls):
        clouds = np.stack([make_cloud(i, 16) for i in range(3)])
        regions = [np.arange(4), np.arange(5, 9), np.arange(10, 16)]
        loss, _ = reconstruction_loss_and_grads(params_cls, clouds, clouds, regions)
        recon, _ = dense_rec(params_cls, forward_pass(params_cls, clouds, heads=())[1])
        want = np.mean(
            [chamfer_loss_region(recon[b], clouds[b], regions[b]).value for b in range(3)]
        )
        assert loss == pytest.approx(want, rel=1e-12)

    def test_reconstruction_weight_scales_grads_not_loss(self, params_cls):
        clouds = make_cloud(0, 16)[None]
        regions = [np.arange(6)]
        l1, g1 = reconstruction_loss_and_grads(params_cls, clouds, clouds, regions, weight=1.0)
        l2, g2 = reconstruction_loss_and_grads(params_cls, clouds, clouds, regions, weight=0.5)
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert np.allclose(g2["rec1_w"], 0.5 * g1["rec1_w"])

    def test_segmentation_loss_matches_manual(self, params_seg):
        clouds = np.stack([make_cloud(i, 10) for i in range(2)])
        labels = np.random.default_rng(0).integers(0, 4, size=(2, 10))
        loss, grads = segmentation_loss_and_grads(params_seg, clouds, labels, mode="eval")
        out, _ = forward_pass(params_seg, clouds, heads=("seg",))
        want, _ = softmax_cross_entropy(out["seg_logits"], np.eye(4)[labels])
        assert loss == pytest.approx(want, rel=1e-12)
        assert np.abs(grads["seg1_w"]).max() > 0

    def test_label_shape_mismatch_rejected(self, params_seg):
        with pytest.raises(DataFormatError):
            segmentation_loss_and_grads(params_seg, make_cloud(0, 10)[None], np.zeros((1, 9)))


class TestGradientOracle:
    def test_composite_gradients_match_finite_differences(self):
        # joint classification + reconstruction pass, reduced coordinate budget
        frac, worst, count = check_network_gradients(
            num_classes=3, n_points=32, batch=2, budget=400, seed=0
        )
        assert count >= 400
        assert frac >= 0.99, f"only {frac:.4f} of {count} coords within tol (worst {worst:.2e})"

    def test_dropout_path_gradients(self):
        # train-mode pass with fixed dropout: loss stays differentiable
        params = init_params(3, seed=2)
        clouds = np.stack([make_cloud(i, 12, scale=1.0) for i in range(2)])
        soft = np.eye(3)[[0, 2]]
        targets = clouds.copy()
        regions = [np.arange(6), np.arange(6, 12)]

        def loss_only():
            loss, _ = composite_loss_and_grads(
                params, clouds, soft, targets, regions, ssl_weight=0.5, dropout_seed=11
            )
            return loss

        _, grads = composite_loss_and_grads(
            params, clouds, soft, targets, regions, ssl_weight=0.5, dropout_seed=11
        )
        coords = sample_param_coords(params, budget=120, seed=3)
        numeric = finite_difference_grad(loss_only, params, coords)
        analytic = np.array([grads[name].reshape(-1)[idx] for name, idx in coords])
        frac, worst = gradient_agreement(analytic, numeric, tol=1e-4)
        assert frac >= 0.99, f"dropout-path agreement {frac:.4f} (worst {worst:.2e})"
