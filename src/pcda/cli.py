"""Command line interface.

Subcommands: gen-bench, deform, mixup, train, eval, perplexity, selftest.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .cloud import LabeledCloud
from .config import load_train_config
from .dataio import (
    atomic_write_text,
    load_archive,
    load_cloud,
    remove_partial_writes,
    save_archive,
    save_cloud,
    save_tensors,
)
from .deform import KINDS, DeformSpec, apply_deformation
from .errors import DataFormatError, NumericalError, UsageError
from .evaluation import fit_class_gaussians, log_perplexity, project_features
from .mixup import mixup_classify
from .synthbench import SPLIT_CODES, BenchConfig, gen_benchmark
from .training import (
    TrainConfig,
    evaluate_classification,
    evaluate_segmentation,
    extract_global_features,
    load_params,
    prepare_run,
    train,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _from_args(cls, args, **extra):
    """A `cls` config built from the parsed flags named after its fields."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**given, **extra)


def _load_bench(bench_dir: str, *needed: str) -> dict:
    if not os.path.isdir(bench_dir):
        raise DataFormatError(f"{bench_dir}: not a benchmark directory")
    out = {}
    for name in needed:
        path = os.path.join(bench_dir, name + ".dfrc")
        if not os.path.exists(path):
            raise DataFormatError(f"{bench_dir}: missing split {name!r} ({path})")
        out[name] = load_archive(path)
    return out


# -- subcommands -----------------------------------------------------------


def cmd_gen_bench(args) -> int:
    splits, meta = gen_benchmark(_from_args(BenchConfig, args))
    os.makedirs(args.out, exist_ok=True)
    for name, dataset in splits.items():
        save_archive(os.path.join(args.out, name + ".dfrc"), dataset)
    atomic_write_text(
        os.path.join(args.out, "meta.json"),
        json.dumps(meta, sort_keys=True, indent=2) + "\n",
    )
    _emit(
        {
            "out": args.out,
            "kind": meta["kind"],
            "classes": meta["classes"],
            "counts": {name: len(ds.samples) for name, ds in splits.items()},
        }
    )
    return 0


def cmd_deform(args) -> int:
    points = load_cloud(args.input)
    pair = apply_deformation(points, _from_args(DeformSpec, args), seed=args.seed)
    save_cloud(args.out, pair.deformed)
    if args.region_out:
        atomic_write_text(
            args.region_out, json.dumps([int(i) for i in pair.region]) + "\n"
        )
    _emit(
        {
            "kind": pair.kind,
            "n": len(points),
            "region_size": len(pair.region),
            "out": args.out,
        }
    )
    return 0


def cmd_mixup(args) -> int:
    a = LabeledCloud(points=load_cloud(args.in_a), label=args.label_a)
    b = LabeledCloud(points=load_cloud(args.in_b), label=args.label_b)
    mixed = mixup_classify(
        a,
        b,
        args.num_classes,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        gamma=args.gamma,
    )
    save_cloud(args.out, mixed.points)
    _emit(
        {
            "gamma": mixed.gamma,
            "soft_label": [float(v) for v in mixed.soft_label],
            "out": args.out,
        }
    )
    return 0


def _stale_lock_pid(lock_path: str):
    """The PID a run lock names if no such process exists, else None (the
    process is alive, or the lock cannot be read or parsed)."""
    try:
        with open(lock_path, "r", encoding="ascii") as fh:
            pid = int(fh.read())
        if pid > 0:
            os.kill(pid, 0)  # signal 0 sends nothing: it only checks the PID
    except ProcessLookupError:
        return pid
    except (OSError, ValueError, OverflowError):  # unreadable, or alive under another user
        pass
    return None


def cmd_train(args) -> int:
    bench = _load_bench(args.bench, "source_train", "target_train")
    source = bench["source_train"]
    target = bench["target_train"]
    task = "segmentation" if source.segmented else "classification"
    if args.config:
        cfg = load_train_config(args.config)
        if cfg.task != task:
            raise DataFormatError(
                f"config task {cfg.task!r} does not match benchmark task {task!r}"
            )
    else:
        cfg = _from_args(TrainConfig, args, task=task, deform=_from_args(DeformSpec, args))
    lock_path = os.path.join(args.out, ".lock")
    locked = UsageError(f"{args.out} is locked by another run (remove {lock_path} if stale)")
    if os.path.exists(lock_path):
        pid = _stale_lock_pid(lock_path)
        if pid is None:
            raise locked
        print(f"removing stale lock {lock_path}: process {pid} is not running", file=sys.stderr)
        os.unlink(lock_path)
    prepare_run(source, target, cfg)  # refuse a bad run before its directory exists
    os.makedirs(args.out, exist_ok=True)
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise locked from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()) + "\n")
        # the lock makes this the only writer: a temporary file here is
        # what a run killed during a write left behind
        for tmp in remove_partial_writes(args.out):
            print(f"removing partial write {tmp}", file=sys.stderr)
        result = train(source, target, cfg, args.out, resume=args.resume)
    finally:
        if os.path.exists(lock_path):
            os.unlink(lock_path)
    _emit(
        {
            "run_dir": result.run_dir,
            "epochs": cfg.epochs,
            "best_epoch": result.best_epoch,
            "best_val": result.best_val,
        }
    )
    return 0


def cmd_eval(args) -> int:
    params, meta = load_params(args.ckpt)
    bench = _load_bench(args.bench, args.split)
    dataset = bench[args.split]
    segmented = meta.get("task") == "segmentation"
    if dataset.segmented != segmented:
        raise DataFormatError(f"checkpoint task {meta.get('task')!r} does not match the split")
    evaluate = evaluate_segmentation if segmented else evaluate_classification
    metrics = evaluate(params, dataset, args.batch_size)
    _emit({"split": args.split, **metrics})
    return 0


def cmd_perplexity(args) -> int:
    params, meta = load_params(args.ckpt)
    if meta.get("task") == "segmentation":
        raise DataFormatError("feature scoring needs a classification checkpoint")
    bench = _load_bench(args.bench, "source_train", args.split)
    source = bench["source_train"]
    scored = bench[args.split]
    if source.segmented or scored.segmented:
        raise DataFormatError("feature scoring needs class-labelled archives")
    src_feats = extract_global_features(params, source.points_array(), args.batch_size)
    model = fit_class_gaussians(src_feats, source.labels(), source.num_classes)
    feats = extract_global_features(params, scored.points_array(), args.batch_size)
    labels = scored.labels()
    payload = {
        "split": args.split,
        "log_perplexity": log_perplexity(model, feats, labels),
        "log_perplexity_balanced": log_perplexity(model, feats, labels, balanced=True),
        "count": len(labels),
    }
    if args.features_out:
        proj, _ = project_features(feats, 2)
        save_tensors(
            args.features_out,
            {"features": feats, "labels": labels, "projection": proj},
            {"split": args.split},
        )
        payload["features_out"] = args.features_out
    _emit(payload)
    return 0


def cmd_selftest(args) -> int:
    from .selfcheck import run_all

    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status} {r.name}"
        if r.detail:
            line += f": {r.detail}"
        print(line)
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


# -- parser ----------------------------------------------------------------


def _add_deform_flags(p) -> None:
    d = DeformSpec()
    p.add_argument("--kind", default=d.kind, choices=KINDS, help="deformation variant")
    p.add_argument("--voxel-k", dest="k", type=int, default=d.k, help="voxel grid resolution")
    p.add_argument("--radius", type=float, default=d.radius, help="sphere region radius")
    p.add_argument("--k-pts", type=int, default=d.k_pts, help="feature-space region size")
    p.add_argument(
        "--feature-layer", dest="layer", type=int, default=d.layer,
        help="encoder layer (1-5) for feature proximity",
    )
    p.add_argument(
        "--relocate-sigma", type=float, default=d.relocate_sigma, help="relocation noise scale"
    )
    p.add_argument(
        "--cap-fraction", dest="sample_cap_fraction", type=float,
        default=d.sample_cap_fraction, help="max region share for sampling schemes",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pcda",
        description=(
            "Self-supervised domain adaptation toolkit for 3D point clouds: "
            "deform-and-reconstruct pretraining, point cloud mixup, synthetic "
            "benchmarks, training, and feature diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    bench_defaults = BenchConfig()
    p = sub.add_parser("gen-bench", help="generate a synthetic two-domain benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=bench_defaults.seed)
    p.add_argument("--n-points", type=int, default=bench_defaults.n_points)
    p.add_argument("--classes", dest="num_classes", type=int, default=bench_defaults.num_classes)
    p.add_argument("--source-train", type=int, default=bench_defaults.source_train)
    p.add_argument("--source-test", type=int, default=bench_defaults.source_test)
    p.add_argument("--target-train", type=int, default=bench_defaults.target_train)
    p.add_argument("--target-test", type=int, default=bench_defaults.target_test)
    p.add_argument(
        "--occlusion", dest="occlusion_fraction", type=float,
        default=bench_defaults.occlusion_fraction,
    )
    p.add_argument(
        "--scheme",
        dest="corruption_scheme",
        default=bench_defaults.corruption_scheme,
        choices=("split", "gradient", "lambertian"),
    )
    p.add_argument("--density-bias", type=float, default=bench_defaults.density_bias)
    p.add_argument("--keep-fraction", type=float, default=bench_defaults.keep_fraction)
    p.add_argument("--target-jitter", type=float, default=bench_defaults.target_jitter)
    p.add_argument("--segmentation", action="store_true", help="four-part object benchmark")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("deform", help="deform a region of one cloud")
    p.add_argument("--input", required=True, help="input .xyz or .ply")
    p.add_argument("--out", required=True, help="deformed cloud path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--region-out", help="write region indices as JSON")
    _add_deform_flags(p)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("mixup", help="mix two clouds into one soft-labelled cloud")
    p.add_argument("--in-a", required=True)
    p.add_argument("--in-b", required=True)
    p.add_argument("--label-a", type=int, required=True)
    p.add_argument("--label-b", type=int, required=True)
    p.add_argument("--num-classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=None, help="force the mix coefficient")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mixup)

    train_defaults = TrainConfig()
    p = sub.add_parser("train", help="train with alternating supervised/reconstruction steps")
    p.add_argument("--bench", required=True, help="benchmark directory")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument(
        "--config",
        help='JSON {"train": {...}} of TrainConfig fields; overrides the flags below',
    )
    p.add_argument("--epochs", type=int, default=train_defaults.epochs)
    p.add_argument("--batch-size", type=int, default=train_defaults.batch_size)
    p.add_argument("--lr", type=float, default=train_defaults.lr)
    p.add_argument("--weight-decay", type=float, default=train_defaults.weight_decay)
    p.add_argument("--ssl-weight", type=float, default=train_defaults.ssl_weight)
    p.add_argument("--no-mixup", dest="use_mixup", action="store_false")
    p.add_argument(
        "--alpha", dest="mixup_alpha", type=float, default=train_defaults.mixup_alpha,
        help="mixup Beta alpha",
    )
    p.add_argument(
        "--beta", dest="mixup_beta", type=float, default=train_defaults.mixup_beta,
        help="mixup Beta beta",
    )
    p.add_argument(
        "--deform-domains",
        default=train_defaults.deform_domains,
        choices=("target-only", "source-and-target"),
    )
    p.add_argument("--val-fraction", type=float, default=train_defaults.val_fraction)
    p.add_argument("--no-augment", dest="augment", action="store_false")
    p.add_argument("--jitter-sigma", type=float, default=train_defaults.jitter_sigma)
    p.add_argument("--jitter-clip", type=float, default=train_defaults.jitter_clip)
    p.add_argument("--seed", type=int, default=train_defaults.seed)
    p.add_argument("--dtype", default=train_defaults.dtype, choices=("float32", "float64"))
    p.add_argument("--resume", action="store_true", help="continue from last.ckpt")
    _add_deform_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a benchmark split")
    p.add_argument("--bench", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="target_test", choices=SPLIT_CODES)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "perplexity", help="score target features under source class Gaussians"
    )
    p.add_argument("--bench", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", default="target_test", choices=SPLIT_CODES)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--features-out", help="save features and 2-d projection")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
