"""One benchmark process: prepare inputs, probe set-up, or run a workload.

    python3 pcdabench/workload.py {prep,probe,run} --workload NAME --seed N
        --seconds S --trace {0,1} --work DIR [--tiny]

`run.py` starts this script with BLAS pinned to one thread and `src/` on
PYTHONPATH; see README.md. `prep` writes the workload's inputs to DIR;
`probe` imports and loads them and exits; `run` does the same, then times
the workload's phases in whole rounds, checks the outputs and prints one
JSON line for `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import checks
from tracer import Tracer

import pcda
from pcda import cli, dataio, network, synthbench, training
from pcda.deform import DeformSpec
from pcda.errors import DataFormatError, NumericalError

SPLITS = ("source_train", "source_test", "target_train", "target_test")
ADAPT_INPUTS = ("source_train", "target_train", "target_test")
SCORE_CLASSES = 3
EVAL_SHARE = 0.5  # the scoring phase runs for this share of --seconds


@dataclasses.dataclass
class Workload:
    bench: dict  # BenchConfig fields besides the seed
    train: dict | None = None  # TrainConfig fields besides the seed (adapt_* only)


WORKLOADS = {
    # classification "both" arm of criterion 6: mixup + voxel reconstruction
    # on the target domain, 3 classes, 200 + 200 training clouds of 256 points
    "adapt_cls": Workload(bench={}, train=dict(epochs=6, dtype="float32")),
    # segmentation with mixed deformations on both domains and segment mixup
    "adapt_seg": Workload(
        bench=dict(segmentation=True),
        train=dict(
            task="segmentation",
            epochs=2,
            dtype="float32",
            deform=DeformSpec(kind="mixed"),
            deform_domains="source-and-target",
        ),
    ),
    # `pcda gen-bench` for both tasks, then `pcda eval` + `pcda perplexity`
    "gen_score": Workload(bench={}),
}

# With --tiny the quick tests run the same code small. Classification keeps
# enough steps to learn above chance; segmentation keeps 256 points for the
# feature family's 200-point regions.
TINY_BENCH = dict(n_points=64, source_train=120, source_test=8, target_train=120, target_test=30)
TINY_SEG_BENCH = dict(source_train=40, source_test=8, target_train=40, target_test=16)
TINY_TRAIN = dict(batch_size=16)


def bench_config(name, seed, tiny, segmentation=None) -> synthbench.BenchConfig:
    fields = dict(WORKLOADS[name].bench, seed=seed)
    if segmentation is not None:
        fields["segmentation"] = segmentation
    if tiny:
        fields.update(TINY_SEG_BENCH if fields.get("segmentation") else TINY_BENCH)
    return synthbench.BenchConfig(**fields)


def train_config(name, seed, tiny) -> training.TrainConfig:
    fields = dict(WORKLOADS[name].train, seed=seed)
    if tiny:
        fields.update(TINY_TRAIN)
    return training.TrainConfig(**fields)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- inputs ----------------------------------------------------------------


def prep(args):
    """Write the workload's inputs: the benchmark splits for adapt_*, a
    freshly initialized classification checkpoint for gen_score."""
    inputs = os.path.join(args.work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    if args.workload == "gen_score":
        params = network.init_params(
            SCORE_CLASSES, seed=np.random.SeedSequence([args.seed]), dtype=np.float32
        )
        meta = {"task": "classification", "num_classes": SCORE_CLASSES, "dtype": "float32"}
        training.save_checkpoint(
            os.path.join(inputs, "score.ckpt"), params, params, training.init_adam(params), meta
        )
        return
    splits, _ = synthbench.gen_benchmark(bench_config(args.workload, args.seed, args.tiny))
    for name in ADAPT_INPUTS:
        dataio.save_archive(os.path.join(inputs, name + ".dfrc"), splits[name])


def setup(args) -> dict:
    """What a user of the workload loads before its first operation."""
    inputs = os.path.join(args.work, "inputs")
    if args.workload == "gen_score":
        ckpt = os.path.join(inputs, "score.ckpt")
        params, _ = training.load_params(ckpt)
        return {"ckpt": ckpt, "params": params}
    return {
        name: dataio.load_archive(os.path.join(inputs, name + ".dfrc")) for name in ADAPT_INPUTS
    }


# -- phases ----------------------------------------------------------------


def timed_rounds(op, seconds, ops, after=None):
    """Run op(round) in whole rounds until `seconds` of them have passed (at
    least one round), each followed by after(round), untimed. op returns
    the clouds it handled. Returns (rounds, median clouds/s of the rounds);
    a round that raises a pcda error counts as a failed operation in `ops`
    and handled nothing."""
    rates, spent = [], 0.0
    while not rates or spent < seconds:
        ops["attempted"] += 1
        start = time.perf_counter()
        try:
            work = op(len(rates))
        except (DataFormatError, NumericalError) as exc:
            ops["failed"] += 1
            ops["problems"].append(f"round {len(rates)} failed: {exc}")
            work = 0
        elapsed = time.perf_counter() - start
        spent += elapsed
        rates.append(work / elapsed)
        if after:
            after(len(rates) - 1)
    return len(rates), statistics.median(rates)


def train_clouds(cfg, source, target) -> int:
    """Source clouds one `training.train` run consumes: epochs x steps x batch."""
    if cfg.task == "classification":
        tr, _ = training.stratified_split(source.labels(), cfg.val_fraction, 0)
    else:
        tr, _ = training.uniform_split(len(source.samples), cfg.val_fraction, 0)
    steps = min(len(tr), len(target.samples)) // cfg.batch_size
    return cfg.epochs * steps * cfg.batch_size


def run_adapt(args, data, tracer, out, ops):
    cfg = train_config(args.workload, args.seed, args.tiny)
    source, target, test = data["source_train"], data["target_train"], data["target_test"]
    per_round = train_clouds(cfg, source, target)
    digests = []

    def train_round(r):
        run_dir = os.path.join(args.work, f"run{r}")
        training.train(source, target, cfg, run_dir)
        return per_round

    def after_round(r):
        run_dir = os.path.join(args.work, f"run{r}")
        digests.append([sha256(os.path.join(run_dir, f)) for f in ("metrics.jsonl", "best.ckpt")])
        if r:
            shutil.rmtree(run_dir)
        elif tracer:
            tracer.observers = {}  # the traced-run checks use the first round

    out["main_rounds"], out["clouds_per_s"] = timed_rounds(
        train_round, args.seconds, ops, after_round
    )

    run0 = os.path.join(args.work, "run0")
    best = os.path.join(run0, "best.ckpt")
    if tracer:
        tracer.phase = "load_best"
    params, _ = training.load_params(best)
    segmented = cfg.task == "segmentation"
    evaluate = training.evaluate_segmentation if segmented else training.evaluate_classification
    results = []

    def eval_pass(r):
        results.append(evaluate(params, test))
        return len(test.samples)

    if tracer:
        tracer.phase = "eval"
    out["eval_passes"], out["eval_clouds_per_s"] = timed_rounds(
        eval_pass, args.seconds * EVAL_SHARE, ops
    )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    # -- checks, untimed --
    problems = ops["problems"]
    if any(d != digests[0] for d in digests):
        problems.append("identical training rounds wrote different metrics.jsonl or best.ckpt")
    with open(os.path.join(run0, "metrics.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    key = "val_mean_iou" if segmented else "val_accuracy"
    _, meta = checks.read_tens(best)
    problems += checks.check_metrics_log(records, cfg.epochs, key, meta["best_epoch"])
    pts = test.points_array()
    head = "seg" if segmented else "sup"
    _, ref_logits = checks.reference_forward(checks.best_params(best), pts, head)
    prog_logits = training.predict_logits(params, pts, 16 if segmented else 32, head=head)
    if segmented:
        labels = np.stack([s.labels for s in test.samples])
        prog_logits = prog_logits.reshape(ref_logits.shape)
        problems += checks.check_segmentation(
            ref_logits, prog_logits, labels, test.num_classes, results[-1]
        )
    else:
        labels = test.labels()
        problems += checks.check_classification(ref_logits, prog_logits, labels, results[-1])
        if not results[-1]["accuracy"] > 1.0 / test.num_classes:
            problems.append(f"target accuracy {results[-1]['accuracy']} is not above chance")
    out["quality"] = results[-1]


def run_gen_score(args, data, tracer, out, ops):
    bench_dirs = {seg: os.path.join(args.work, "seg" if seg else "cls") for seg in (False, True)}
    kept, digests = {}, []

    def gen_round(r):
        produced = 0
        for seg, bench_dir in bench_dirs.items():
            splits, _ = synthbench.gen_benchmark(bench_config(args.workload, args.seed, args.tiny, seg))
            os.makedirs(bench_dir, exist_ok=True)
            for name, dataset in splits.items():
                dataio.save_archive(os.path.join(bench_dir, name + ".dfrc"), dataset)
                produced += len(dataset.samples)
            if r == 0:
                kept[seg] = splits
        return produced

    def after_round(r):
        digests.append(
            [sha256(os.path.join(d, n + ".dfrc")) for d in bench_dirs.values() for n in SPLITS]
        )

    out["main_rounds"], out["clouds_per_s"] = timed_rounds(
        gen_round, args.seconds, ops, after_round
    )

    cls_dir = bench_dirs[False]
    printed = {}

    def pcda_cli(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise DataFormatError(f"pcda {argv[0]} exited with {code}")
        printed[argv[0]] = json.loads(buf.getvalue().strip().splitlines()[-1])

    def score_pass(r):
        common = ("--bench", cls_dir, "--ckpt", data["ckpt"], "--split", "target_test")
        pcda_cli("eval", *common)
        pcda_cli("perplexity", *common)
        return printed["eval"]["count"] + printed["perplexity"]["count"] + len(
            kept[False]["source_train"].samples
        )

    if tracer:
        tracer.phase = "eval"
    out["eval_passes"], out["eval_clouds_per_s"] = timed_rounds(
        score_pass, args.seconds * EVAL_SHARE, ops
    )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    # -- checks, untimed --
    problems = ops["problems"]
    if any(d != digests[0] for d in digests):
        problems.append("identical generation rounds wrote different archives")
    for seg, splits in kept.items():
        cfg = bench_config(args.workload, args.seed, args.tiny, seg)
        archives = {n: os.path.join(bench_dirs[seg], n + ".dfrc") for n in SPLITS}
        as_lists = {
            n: (
                [s.points for s in ds.samples],
                [s.labels if seg else s.label for s in ds.samples],
            )
            for n, ds in splits.items()
        }
        problems += checks.check_generated(
            as_lists, archives, cfg.n_points, cfg.num_parts if seg else cfg.num_classes, seg
        )
        loaded = {n: [s.points for s in dataio.load_archive(p).samples] for n, p in archives.items()}
        problems += checks.check_loaded(loaded, archives)
    params = data["params"]
    ref_params = checks.best_params(data["ckpt"])
    source, test = kept[False]["source_train"], kept[False]["target_test"]
    test_pts = np.stack([s.points.astype(np.float32) for s in test.samples]).astype(np.float64)
    src_pts = np.stack([s.points.astype(np.float32) for s in source.samples]).astype(np.float64)
    _, ref_logits = checks.reference_forward(ref_params, test_pts, "sup")
    prog_logits = training.predict_logits(params, test_pts, 32)
    labels = np.array([s.label for s in test.samples])
    problems += checks.check_classification(ref_logits, prog_logits, labels, printed["eval"])
    src_ref, _ = checks.reference_forward(ref_params, src_pts, "sup")
    src_feats = training.extract_global_features(params, src_pts, 32)
    test_feats = training.extract_global_features(params, test_pts, 32)
    problems += checks.check_features(src_ref, src_feats)
    src_labels = np.array([s.label for s in source.samples])
    explicit = checks.explicit_log_perplexity(
        src_feats, src_labels, test_feats, labels, source.num_classes
    )
    problems += checks.check_perplexity(printed["perplexity"], explicit)
    out["quality"] = {"eval": printed["eval"], "perplexity": printed["perplexity"]}


# -- traced-run checks -----------------------------------------------------


def observe_for_checks(tracer, recorded):
    """Keep what the traced-run checks need from the calls made while the
    observers are set (the first main round); the checks run after timing."""

    def deformation(args, kwargs, pair):
        recorded["deform"].append((np.array(args[0], dtype=np.float64), pair.deformed, pair.region))

    def segment_mixup(args, kwargs, mixed):
        a, b = args[0], args[1]
        recorded["mixup"].append(
            (a.points, a.labels, b.points, b.labels, mixed.points, mixed.point_labels)
        )

    def chamfer(args, kwargs, result):
        recorded["chamfer_calls"] += 1
        if recorded["chamfer_calls"] % 16 == 1:
            recorded["chamfer"].append(
                (np.array(args[0]), np.array(args[1]), np.array(args[2]), result.value)
            )

    tracer.observers = {
        "deform.apply_deformation": [deformation],
        "mixup.mixup_segment": [segment_mixup],
        "chamfer.chamfer_loss_region": [chamfer],
    }


def traced_checks(recorded) -> list:
    problems = []
    for pts, deformed, region in recorded["deform"]:
        problems += checks.check_deformation(pts, deformed, region)
    for item in recorded["mixup"]:
        problems += checks.check_segment_mixup(*item)
    for pred, target, region, value in recorded["chamfer"]:
        problems += checks.check_chamfer(pred, target, region, value)
    return sorted(set(problems))


# -- entry point -----------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("prep", "probe", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(pcda.__file__).startswith(src + os.sep):
        print(f"pcda was imported from {pcda.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.role == "prep":
        prep(args)
        return 0
    tracer = Tracer() if args.role == "run" and args.trace else None
    if tracer:
        tracer.install()
    data = setup(args)
    setup_done = time.monotonic()
    if args.role == "probe":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    out = {"setup_done": setup_done}
    ops = {"attempted": 0, "failed": 0, "problems": []}
    recorded = {"deform": [], "mixup": [], "chamfer": [], "chamfer_calls": 0}
    if tracer:
        observe_for_checks(tracer, recorded)
        tracer.phase = "main"
    runner = run_gen_score if args.workload == "gen_score" else run_adapt
    runner(args, data, tracer, out, ops)
    if tracer:
        ops["problems"] += traced_checks(recorded)
        out["per_layer"] = tracer.per_round({"main": out["main_rounds"], "eval": out["eval_passes"]})
        out["spans"] = tracer.spans
    out.update(ops)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
