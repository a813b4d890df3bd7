#!/usr/bin/env python3
"""Benchmark of pcda: one workload per call, run from the repository root.

    python3 pcdabench/run.py --workload {adapt_cls,adapt_seg,gen_score}
        --seed N --seconds S --trace {0,1}

Each call generates the workload's inputs from the seed in one process,
then (untraced) starts four set-up probes and the timed workload process,
one at a time, all with BLAS pinned to one thread. It prints every metric
by name with its unit and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1 (the
traced run also writes its spans to .pcdabench_out/). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adapt_cls", "adapt_seg", "gen_score")
SET_UP_PROBES = 4
DEADLINE_S = 170.0
# BLAS and OpenMP pools all pinned to one thread
ONE_THREAD = {
    k: "1"
    for k in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def child(role, args, work, env, deadline):
    """Run workload.py in a fresh process; returns (start time, parsed last
    stdout line). Its stderr passes through."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", work,
    ] + (["--tiny"] if args.tiny else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {role} process")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return start, (json.loads(lines[-1]) if lines else None)


def result_line(args, spec, res, setup_samples) -> dict:
    if args.trace:
        layer = res["per_layer"]
        total = layer.get("training.train.total_s", 0.0)
        layer["training.train.coverage"] = 1.0 - layer["training.train.s"] / total if total else 0.0
        layer["trace.clouds_per_s"] = res["clouds_per_s"]
        layer["trace.eval_clouds_per_s"] = res["eval_clouds_per_s"]
        wanted, values = spec["per_layer"], layer
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "clouds_per_s": res["clouds_per_s"],
            "eval_clouds_per_s": res["eval_clouds_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the quick tests")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pcda", "__init__.py")):
        print(f"no pcda sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out_dir = os.path.join(root, ".pcdabench_out")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        child("prep", args, work, env, deadline)
        setup_samples = []
        if not args.trace:
            for _ in range(SET_UP_PROBES):
                start, probe = child("probe", args, work, env, deadline)
                setup_samples.append(probe["setup_done"] - start)
        start, res = child("run", args, work, env, deadline)
        setup_samples.append(res["setup_done"] - start)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line = result_line(args, spec, res, setup_samples)
    if args.trace:
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": line["metrics"], "spans": res["spans"]}, fh)
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in line["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} scores: {json.dumps(res['quality'], sort_keys=True)}")
    print(f"{args.workload} operations: {line['attempted']} attempted, {line['failed']} failed")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
