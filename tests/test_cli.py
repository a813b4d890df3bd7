"""Command line interface: subcommand flows and exit codes."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pcda.cli import _from_args, build_parser, main
from pcda.dataio import load_archive, load_cloud, load_tensors, save_cloud, save_tensors
from pcda.deform import DeformSpec
from pcda.synthbench import BenchConfig
from pcda.training import TrainConfig

from conftest import make_cloud, tens_bytes

BENCH_FLAGS = [
    "--n-points", "48",
    "--classes", "3",
    "--source-train", "9",
    "--source-test", "6",
    "--target-train", "9",
    "--target-test", "6",
    "--seed", "1",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "bench"
    code = main(["gen-bench", "--out", str(out)] + BENCH_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, bench_dir):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(
        [
            "train",
            "--bench", str(bench_dir),
            "--out", str(out),
            "--epochs", "1",
            "--batch-size", "4",
            "--dtype", "float32",
            "--kind", "sphere",
        ]
    )
    assert code == 0
    return out


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys, )
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--bench", "x", "--ckpt", "y",
                               "--split", "imaginary")
        assert code == 1
        assert "usage error" in err


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


class TestFlagsMapToFields:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def train_config(self, args):
        return _from_args(
            TrainConfig, args, task="classification", deform=_from_args(DeformSpec, args)
        )

    def test_no_optional_flags_give_the_defaults(self):
        args = self.parse("train", "--bench", "b", "--out", "o")
        assert self.train_config(args) == TrainConfig()
        args = self.parse("gen-bench", "--out", "o")
        assert _from_args(BenchConfig, args) == BenchConfig()
        args = self.parse("deform", "--input", "i.xyz", "--out", "o.xyz")
        assert _from_args(DeformSpec, args) == DeformSpec()

    def test_every_dest_is_a_field(self):
        args = vars(self.parse("train", "--bench", "b", "--out", "o"))
        flags = set(args) - {"command", "func", "bench", "out", "config", "resume"}
        assert flags == (field_names(TrainConfig) - {"task", "deform"}) | field_names(DeformSpec)
        args = vars(self.parse("gen-bench", "--out", "o"))
        assert set(args) - {"command", "func", "out"} == field_names(BenchConfig) - {"num_parts"}
        args = vars(self.parse("deform", "--input", "i.xyz", "--out", "o.xyz"))
        flags = set(args) - {"command", "func", "input", "out", "seed", "region_out"}
        assert flags == field_names(DeformSpec)

    def test_every_flag_spelling_parses(self):
        args = self.parse(
            "train", "--bench", "b", "--out", "o", "--epochs", "2", "--batch-size", "8",
            "--lr", "0.01", "--weight-decay", "0", "--ssl-weight", "0.5", "--no-mixup",
            "--alpha", "0.3", "--beta", "0.7", "--deform-domains", "source-and-target",
            "--val-fraction", "0.1", "--no-augment", "--jitter-sigma", "0.02",
            "--jitter-clip", "0.03", "--seed", "4", "--dtype", "float32",
            "--kind", "mixed", "--voxel-k", "2", "--radius", "0.3", "--k-pts", "20",
            "--feature-layer", "2", "--relocate-sigma", "0.1", "--cap-fraction", "0.4",
        )
        assert self.train_config(args) == TrainConfig(
            epochs=2, batch_size=8, lr=0.01, weight_decay=0.0, ssl_weight=0.5,
            use_mixup=False, mixup_alpha=0.3, mixup_beta=0.7,
            deform=DeformSpec(kind="mixed", k=2, radius=0.3, layer=2, k_pts=20,
                              relocate_sigma=0.1, sample_cap_fraction=0.4),
            deform_domains="source-and-target", val_fraction=0.1, augment=False,
            jitter_sigma=0.02, jitter_clip=0.03, seed=4, dtype="float32",
        )
        args = self.parse(
            "gen-bench", "--out", "o", "--seed", "3", "--n-points", "64", "--classes", "4",
            "--source-train", "5", "--source-test", "6", "--target-train", "7",
            "--target-test", "8", "--occlusion", "0.3", "--scheme", "gradient",
            "--density-bias", "1.5", "--keep-fraction", "0.9", "--target-jitter", "0.01",
            "--segmentation",
        )
        assert _from_args(BenchConfig, args) == BenchConfig(
            n_points=64, num_classes=4, source_train=5, source_test=6, target_train=7,
            target_test=8, occlusion_fraction=0.3, corruption_scheme="gradient",
            density_bias=1.5, keep_fraction=0.9, target_jitter=0.01, seed=3,
            segmentation=True,
        )


class TestGenBench:
    def test_creates_archives_and_meta(self, bench_dir, capsys):
        names = {p.name for p in bench_dir.iterdir()}
        assert names >= {
            "source_train.dfrc", "source_test.dfrc",
            "target_train.dfrc", "target_test.dfrc", "meta.json",
        }
        ds = load_archive(bench_dir / "source_train.dfrc")
        assert len(ds.samples) == 9
        assert ds.samples[0].points.shape == (48, 3)
        meta = json.loads((bench_dir / "meta.json").read_text())
        assert meta["kind"] == "classification"
        assert len(meta["classes"]) == 3

    def test_reports_counts(self, tmp_path, capsys):
        out = tmp_path / "b2"
        code, stdout, _ = run_cli(
            capsys, "gen-bench", "--out", str(out), *BENCH_FLAGS
        )
        assert code == 0
        payload = last_json(stdout)
        assert payload["counts"] == {
            "source_train": 9, "source_test": 6,
            "target_train": 9, "target_test": 6,
        }

    def test_invalid_bench_config(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen-bench", "--out", str(tmp_path / "b3"), "--classes", "9"
        )
        assert code == 2
        assert "data error" in err


class TestDeform:
    def test_deform_flow_with_region_file(self, tmp_path, capsys):
        src = tmp_path / "in.xyz"
        save_cloud(src, make_cloud(0, 60))
        out = tmp_path / "out.xyz"
        region_out = tmp_path / "region.json"
        code, stdout, _ = run_cli(
            capsys, "deform", "--input", str(src), "--out", str(out),
            "--kind", "sphere", "--radius", "0.5", "--seed", "3",
            "--region-out", str(region_out),
        )
        assert code == 0
        payload = last_json(stdout)
        assert payload["kind"] == "sphere"
        assert payload["n"] == 60

        original = load_cloud(src)
        deformed = load_cloud(out)
        region = json.loads(region_out.read_text())
        assert deformed.shape == original.shape
        assert len(region) == payload["region_size"] > 0
        outside = np.setdiff1d(np.arange(60), region)
        np.testing.assert_allclose(deformed[outside], original[outside], atol=1e-15)
        assert not np.allclose(deformed[region], original[region])

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "deform", "--input", str(tmp_path / "nope.xyz"),
            "--out", str(tmp_path / "o.xyz"),
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("count", ["-5", "100000000000000"])
    def test_malformed_ply_is_data_error(self, tmp_path, capsys, count):
        src = tmp_path / "bad.ply"
        src.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {count}\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n0 0 0\n"
        )
        code, _, err = run_cli(
            capsys, "deform", "--input", str(src), "--out", str(tmp_path / "o.xyz"),
        )
        assert code == 2
        assert "data error" in err


class TestMixup:
    def test_forced_gamma_one_copies_first_cloud(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.xyz", tmp_path / "b.xyz"
        save_cloud(a_path, make_cloud(1, 40))
        save_cloud(b_path, make_cloud(2, 40))
        out = tmp_path / "m.xyz"
        code, stdout, _ = run_cli(
            capsys, "mixup", "--in-a", str(a_path), "--in-b", str(b_path),
            "--label-a", "0", "--label-b", "2", "--num-classes", "3",
            "--out", str(out), "--gamma", "1.0",
        )
        assert code == 0
        payload = last_json(stdout)
        assert payload["gamma"] == 1.0
        assert payload["soft_label"] == [1.0, 0.0, 0.0]
        # all points come from cloud a, in shuffled order
        mixed = load_cloud(out)
        orig = load_cloud(a_path)
        order = lambda p: p[np.lexsort(p.T)]
        np.testing.assert_allclose(order(mixed), order(orig), atol=1e-15)

    def test_random_gamma_reports_soft_label(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.xyz", tmp_path / "b.xyz"
        save_cloud(a_path, make_cloud(1, 40))
        save_cloud(b_path, make_cloud(2, 40))
        code, stdout, _ = run_cli(
            capsys, "mixup", "--in-a", str(a_path), "--in-b", str(b_path),
            "--label-a", "0", "--label-b", "1", "--num-classes", "2",
            "--out", str(tmp_path / "m.xyz"), "--seed", "5",
        )
        assert code == 0
        payload = last_json(stdout)
        assert sum(payload["soft_label"]) == pytest.approx(1.0, abs=1e-12)


class TestTrainEvalPerplexity:
    def test_train_artifacts_and_lock_released(self, run_dir, capsys):
        for name in ("config.json", "metrics.jsonl", "last.ckpt", "best.ckpt"):
            assert (run_dir / name).exists()
        assert not (run_dir / ".lock").exists()

    def test_lock_conflict_is_usage_error(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(f"{os.getpid()}\n")  # a live process
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(out),
            "--epochs", "1",
        )
        assert code == 1
        assert "locked" in err
        assert (out / ".lock").exists()  # a live run's lock is never removed

    @pytest.mark.parametrize("text", ["", "garbage\n", "0\n", "-5\n", "99999999999999999999\n"])
    def test_unreadable_lock_is_usage_error(self, bench_dir, tmp_path, capsys, text):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(text)
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(out), "--epochs", "1",
        )
        assert code == 1 and "locked" in err
        assert (out / ".lock").read_text() == text

    def test_stale_lock_is_reclaimed(self, bench_dir, tmp_path, capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its PID names no process
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text(f"{child.pid}\n")
        code, stdout, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(out),
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32", "--kind", "sphere",
        )
        assert code == 0
        assert err.splitlines() == [
            f"removing stale lock {out / '.lock'}: process {child.pid} is not running"
        ]
        assert last_json(stdout)["epochs"] == 1
        assert not (out / ".lock").exists()

    def test_missing_bench_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--bench", str(tmp_path / "ghost"),
            "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "data error" in err

    def test_config_file_task_mismatch(self, bench_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"train": {"task": "segmentation"}}\n')
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir),
            "--out", str(tmp_path / "r"), "--config", str(cfg_path),
        )
        assert code == 2
        assert "does not match" in err

    @pytest.mark.parametrize("extra", ['"bench": {"seed": 4}', '"grid": {"lr": [0.1]}'])
    def test_config_file_with_bench_or_grid_is_data_error(self, bench_dir, tmp_path, capsys, extra):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"train": {"epochs": 1}, ' + extra + "}\n")
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir),
            "--out", str(tmp_path / "r"), "--config", str(cfg_path),
        )
        assert code == 2
        assert "only the 'train' section" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 1.5),
            ("batch_size", 4.0),
            ("lr", "x"),
            ("use_mixup", "no"),
            ("seed", 1.5),
            ("lr", -1.0),
            ("radius", True),
            ("ssl_weight", float("nan")),
            ("radius", float("nan")),
            ("ssl_weight", float("inf")),
        ],
    )
    def test_config_file_with_bad_values_is_data_error(
        self, bench_dir, tmp_path, capsys, field, value
    ):
        train = {"epochs": 1, "batch_size": 4, "dtype": "float32", "deform": {"kind": "sphere"}}
        if field == "radius":
            train["deform"][field] = value
        else:
            train[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": train}))
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir),
            "--out", str(tmp_path / "r"), "--config", str(cfg_path),
        )
        assert code == 2 and field in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--ssl-weight", "ssl_weight"),
            ("--alpha", "mixup_alpha"),
            ("--jitter-sigma", "jitter_sigma"),
        ],
    )
    def test_nan_flag_is_data_error(self, bench_dir, tmp_path, capsys, flag, field):
        # inf too: each would otherwise make the run directory, then fail or
        # train on a meaningless value
        for value in ("nan", "inf"):
            out = tmp_path / value
            code, _, err = run_cli(
                capsys, "train", "--bench", str(bench_dir), "--out", str(out),
                "--epochs", "1", "--batch-size", "4", "--dtype", "float32", flag, value,
            )
            assert code == 2 and field in err
            assert not out.exists()

    def test_eval_reports_metrics(self, bench_dir, run_dir, capsys):
        code, stdout, _ = run_cli(
            capsys, "eval", "--bench", str(bench_dir),
            "--ckpt", str(run_dir / "best.ckpt"), "--split", "target_test",
        )
        assert code == 0
        payload = last_json(stdout)
        assert payload["split"] == "target_test"
        assert set(payload) == {"split", "accuracy", "cross_entropy", "count"}
        assert payload["count"] == 6

    def test_eval_ignores_an_unreadable_meta_json(self, bench_dir, run_dir, tmp_path, capsys):
        copy = tmp_path / "bench"
        copy.mkdir()
        (copy / "target_test.dfrc").write_bytes((bench_dir / "target_test.dfrc").read_bytes())
        (copy / "meta.json").write_text("{not json")
        code, stdout, _ = run_cli(
            capsys, "eval", "--bench", str(copy), "--ckpt", str(run_dir / "best.ckpt"),
        )
        assert code == 0
        assert last_json(stdout)["count"] == 6

    def test_perplexity_scores_and_feature_dump(self, bench_dir, run_dir, tmp_path, capsys):
        feats_path = tmp_path / "feats.tens"
        code, stdout, _ = run_cli(
            capsys, "perplexity", "--bench", str(bench_dir),
            "--ckpt", str(run_dir / "best.ckpt"), "--split", "target_test",
            "--features-out", str(feats_path),
        )
        assert code == 0
        payload = last_json(stdout)
        assert payload["count"] == 6
        assert np.isfinite(payload["log_perplexity"])
        assert np.isfinite(payload["log_perplexity_balanced"])
        tensors, meta = load_tensors(feats_path)
        assert tensors["features"].shape == (6, 1024)
        assert tensors["projection"].shape == (6, 2)
        assert list(tensors["labels"]) == [0, 1, 2, 0, 1, 2]
        assert meta["split"] == "target_test"

    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("command", ["eval", "perplexity"])
    def test_bad_batch_size_is_data_error(self, bench_dir, run_dir, capsys, command, size):
        code, stdout, err = run_cli(
            capsys, command, "--bench", str(bench_dir),
            "--ckpt", str(run_dir / "best.ckpt"), "--batch-size", size,
        )
        assert code == 2
        assert stdout == ""
        assert err == f"data error: batch size must be positive, got {size}\n"

    @pytest.mark.parametrize(
        "flags, says",
        [
            (["--alpha", "0"], "mixup_alpha"),
            (["--beta", "-1"], "mixup_beta"),
            (["--kind", "feature", "--feature-layer", "6"], "layer"),
            (["--kind", "feature", "--feature-layer", "0"], "layer"),
            (["--kind", "feature", "--k-pts", "48"], "k_pts"),
            (["--kind", "mixed"], "k_pts"),  # the default k_pts=200 on 48 points
            (["--jitter-sigma", "-0.1"], "jitter"),
            (["--jitter-clip", "-0.1"], "jitter"),
            (["--val-fraction", "0"], "validation"),
        ],
    )
    def test_bad_config_exits_2_before_run_dir(self, bench_dir, tmp_path, capsys, flags, says):
        out = tmp_path / "never"
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(out),
            "--epochs", "1", "--batch-size", "4", *flags,
        )
        assert code == 2
        assert says in err
        assert not out.exists()

    def test_mixed_with_small_k_pts_trains_on_64_points(self, tmp_path, capsys):
        bench = tmp_path / "bench64"
        flags = [f if f != "48" else "64" for f in BENCH_FLAGS]
        assert main(["gen-bench", "--out", str(bench)] + flags) == 0
        code, stdout, err = run_cli(
            capsys, "train", "--bench", str(bench), "--out", str(tmp_path / "run"),
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32",
            "--kind", "mixed", "--k-pts", "20",
        )
        assert code == 0, err
        assert last_json(stdout)["epochs"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_numerical_blowup_is_exit_3(self, bench_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir),
            "--out", str(tmp_path / "boom"), "--epochs", "1",
            "--batch-size", "4", "--dtype", "float32", "--lr", "1e12",
        )
        assert code == 3
        assert "numerical error" in err


    def test_malformed_checkpoint_is_data_error(self, bench_dir, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        save_tensors(ckpt, {"param/w": np.zeros(2)}, {})
        blob = ckpt.read_bytes().replace(b"<f8", b"<q9")
        ckpt.write_bytes(blob)
        code, _, err = run_cli(
            capsys, "eval", "--bench", str(bench_dir), "--ckpt", str(ckpt),
        )
        assert code == 2
        assert "data error" in err and "<q9" in err

    @pytest.mark.parametrize("cut", ["empty", "in a header", "in a tensor", "trailing bytes"])
    def test_cut_or_padded_checkpoint_is_data_error(
        self, bench_dir, run_dir, tmp_path, capsys, cut
    ):
        blob = (run_dir / "best.ckpt").read_bytes()
        name_at = blob.index(b"adam_m/enc1_b")  # the first tensor's name
        damaged = {
            "empty": b"",
            "in a header": blob[: name_at + 4],
            "in a tensor": blob[:-5],
            "trailing bytes": blob + b"\0",
        }[cut]
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(damaged)
        code, stdout, err = run_cli(
            capsys, "eval", "--bench", str(bench_dir), "--ckpt", str(ckpt),
        )
        assert code == 2 and stdout == ""
        assert err.startswith("data error:")

    def test_repeated_tensor_name_is_data_error(self, bench_dir, run_dir, tmp_path, capsys):
        # a second best/enc1_w after the first would otherwise replace it
        tensors, meta = load_tensors(run_dir / "best.ckpt")
        items = sorted(tensors.items())
        at = [name for name, _ in items].index("best/enc1_w")
        items.insert(at + 1, ("best/enc1_w", np.zeros_like(tensors["best/enc1_w"])))
        meta_b = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        ckpt = tmp_path / "twice.ckpt"
        ckpt.write_bytes(tens_bytes(items, meta_b))
        code, stdout, err = run_cli(
            capsys, "eval", "--bench", str(bench_dir), "--ckpt", str(ckpt),
        )
        assert code == 2 and stdout == ""
        assert err.startswith("data error:") and "'best/enc1_w'" in err

    @pytest.mark.parametrize(
        "damage", ["no adam_v", "x", -1, "enc2_w", "head width", "float16"]
    )
    def test_damaged_checkpoint_is_data_error(self, bench_dir, run_dir, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        tensors, meta = load_tensors(run / "last.ckpt")
        # architecture damage is made in every group, so the groups still agree
        shapes = {
            "enc2_w": {"enc2_w": (65, 64)},
            "head width": {"sup2_w": (512, 200), "sup2_b": (200,), "sup3_w": (200, 3)},
        }.get(damage, {})
        if damage == "no adam_v":
            tensors = {k: v for k, v in tensors.items() if not k.startswith("adam_v/")}
        elif damage == "float16":
            tensors = {k: v.astype(np.float16) for k, v in tensors.items()}
        elif shapes:
            for name in list(tensors):
                if name.partition("/")[2] in shapes:
                    tensors[name] = np.zeros(shapes[name.partition("/")[2]], dtype=np.float32)
        else:
            meta["adam_t"] = damage
        save_tensors(run / "last.ckpt", tensors, meta)
        code, _, err = run_cli(
            capsys, "eval", "--bench", str(bench_dir), "--ckpt", str(run / "last.ckpt"),
        )
        assert code == 2 and "data error" in err
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(run), "--resume",
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32", "--kind", "sphere",
        )
        says = ("incomplete", "adam_t", "not the classification network", "float32 or float64")
        assert code == 2 and any(s in err for s in says)

    def test_resume_with_wrong_adam_t_is_data_error(self, bench_dir, run_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        tensors, meta = load_tensors(run / "last.ckpt")
        save_tensors(run / "last.ckpt", tensors, {**meta, "adam_t": meta["adam_t"] + 1})
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(run), "--resume",
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32", "--kind", "sphere",
        )
        assert code == 2 and "adam_t" in err

    @pytest.mark.parametrize(
        "key, value", [("best_val", "x"), ("epoch", "one"), ("best_epoch", None)]
    )
    def test_resume_with_bad_meta_types_is_data_error(
        self, bench_dir, run_dir, tmp_path, capsys, key, value
    ):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        tensors, meta = load_tensors(run / "last.ckpt")
        save_tensors(run / "last.ckpt", tensors, {**meta, key: value})
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(run), "--resume",
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32", "--kind", "sphere",
        )
        assert code == 2 and "resume metadata" in err

    def test_resume_removes_partial_writes(self, bench_dir, run_dir, tmp_path, capsys):
        # a run killed while writing a checkpoint leaves its temporary file
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        leftover = run / ".tmp-k1ll3d.part"
        leftover.write_bytes((run / "last.ckpt").read_bytes()[:1000])
        before = {p.name: p.read_bytes() for p in run.iterdir() if p != leftover}
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(run), "--resume",
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32", "--kind", "sphere",
        )
        assert code == 0
        assert err.splitlines() == [f"removing partial write {leftover}"]
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_resume_with_garbage_metrics_line_is_data_error(
        self, bench_dir, run_dir, tmp_path, capsys
    ):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        (run / "metrics.jsonl").write_text("garbage\n")
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code, _, err = run_cli(
            capsys, "train", "--bench", str(bench_dir), "--out", str(run), "--resume",
            "--epochs", "1", "--batch-size", "4", "--dtype", "float32", "--kind", "sphere",
        )
        assert code == 2 and "metrics.jsonl" in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, stdout, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "9/9 checks passed" in stdout
        assert stdout.count("PASS") == 9
        assert "FAIL" not in stdout

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pcda.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for name in ("gen-bench", "deform", "mixup", "train", "eval",
                     "perplexity", "selftest"):
            assert name in proc.stdout
