"""Importing pcda loads numpy and the standard library only; each scipy
submodule is imported by the first call that needs it. Every case runs in a
fresh interpreter, because other tests load scipy into this one."""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import pcda

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pcda.__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(pcda.__path__))

# a tiny classification benchmark plus a fresh checkpoint for it
PREPARE = """
import numpy as np
from pcda import cli, network, training
assert cli.main(["gen-bench", "--out", "bench", "--n-points", "48", "--classes", "3",
                 "--source-train", "9", "--source-test", "6", "--target-train", "9",
                 "--target-test", "6", "--seed", "1"]) == 0
params = network.init_params(3, seed=0, dtype=np.float32)
meta = {"task": "classification", "num_classes": 3}
training.save_checkpoint("c.ckpt", params, params, training.init_adam(params), meta)
"""
SCORE = '"--bench", "bench", "--ckpt", "c.ckpt", "--split", "target_test"'


def scipy_loaded(code, cwd) -> set:
    """The scipy modules in sys.modules after running `code` in a new
    interpreter with pcda's sources on PYTHONPATH."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_importing_every_module_loads_no_scipy(tmp_path):
    code = "".join(f"import pcda.{name}\n" for name in MODULES)
    assert scipy_loaded(code, tmp_path) == set()


def test_gen_bench_then_eval_loads_no_scipy(tmp_path):
    code = PREPARE + f"assert cli.main(['eval', {SCORE}]) == 0\n"
    assert scipy_loaded(code, tmp_path) == set()


def test_perplexity_loads_no_scipy(tmp_path):
    code = PREPARE + f"assert cli.main(['perplexity', {SCORE}]) == 0\n"
    assert scipy_loaded(code, tmp_path) == set()


def test_selftest_loads_only_what_scipy_sparse_and_spatial_bring(tmp_path):
    code = (
        "import contextlib, io\nfrom pcda import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['selftest']) == 0\n"
    )
    loaded = scipy_loaded(code, tmp_path)
    assert {"scipy.sparse", "scipy.spatial"} <= loaded
    assert loaded == scipy_loaded("import scipy.sparse, scipy.spatial", tmp_path)


@pytest.mark.parametrize("kind, spatial", [("voxel", False), ("lambertian", True)])
def test_training_loads_scipy_sparse_and_spatial_only_for_lambertian(tmp_path, kind, spatial):
    code = PREPARE + (
        "assert cli.main(['train', '--bench', 'bench', '--out', 'run', '--epochs', '1',"
        f" '--batch-size', '6', '--dtype', 'float32', '--kind', '{kind}']) == 0\n"
    )
    loaded = scipy_loaded(code, tmp_path)
    assert "scipy.sparse" in loaded
    assert ("scipy.spatial" in loaded) == spatial
