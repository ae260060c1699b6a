"""Outputs must not depend on how many threads BLAS uses.

``numpy.linalg.norm`` of a whole array sums with BLAS ``dot``, whose last
bits change with the thread count, so every whole-array norm in the package
goes through ``grid.array_norm``.  One test guards the source against a new
such call; the other runs the command line under one and two OpenBLAS
threads and compares every file it writes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrikacz as mk

PACKAGE = Path(mk.__file__).parent

# generate, then the shortest lsdk and joint runs that wrote different files
# under one and two threads while norms were summed by BLAS (1 and 2 cycles).
RUN = """
import json
from pathlib import Path
from mrikacz.cli import main

spec = {"p_hor": 128, "p_ver": 128, "r_num": 4, "b_num": 4, "mask_family": "random",
        "mask_fraction": 0.5, "deltas": 0.01, "seed": 1}
Path("spec.json").write_text(json.dumps(spec))
Path("run.json").write_text(json.dumps({"instance": "instance"}))
for argv in (
    ["generate", "--config", "spec.json", "--out", "instance"],
    ["reconstruct", "--config", "run.json", "--max-cycles", "1", "--out", "lsdk"],
    ["reconstruct", "--config", "run.json", "--joint", "--max-cycles", "2", "--out", "joint"],
):
    assert main(argv) == 0, argv
"""


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_whole_array_norms_are_summed_without_blas():
    """Every ``linalg.norm`` call in the package passes ``axis``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            owner = node.func.value
            is_linalg_norm = (
                node.func.attr == "norm"
                and isinstance(owner, ast.Attribute)
                and owner.attr == "linalg"
            )
            if is_linalg_norm and not any(k.arg == "axis" for k in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.skipif(
    usable_cpus() < 2, reason="fewer than 2 usable CPUs: OpenBLAS cannot run a second thread"
)
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    outputs = {}
    for threads in (1, 2):
        work = tmp_path / f"threads_{threads}"
        work.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", RUN], cwd=work, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs[threads] = {
            str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()
        }
    one, two = outputs[1], outputs[2]
    assert sorted(one) == sorted(two)
    assert len(one) == 2 + 8 + 4 + 5  # spec and run config, instance, lsdk and joint outputs
    assert json.loads(one["joint/summary.json"])["n_cycles"] == 2
    assert [name for name in one if one[name] != two[name]] == []
