"""The benchmark tracer's patch points exist where it patches them.

``perfbench/tracer.py`` wraps functions by (owner, attribute) and restores
each owner's own ``__dict__`` entry on exit.  A refactor that moves, renames
or inherits one of them would break ``--trace 1`` benchmark runs without
failing any other test; one that calls around a patched name would make the
traced counts silently incomparable between versions.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mrikacz as mk
from mrikacz.transform import DftPlan

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_points(tracer):
    return [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.COUNTS]


def test_every_patch_point_is_in_its_owner_dict(tracer):
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in patch_points(tracer) if attr not in owner.__dict__
    ]
    assert not missing


def test_tracer_patches_and_restores_every_attribute(tracer):
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in patch_points(tracer)}
    with tracer.Tracer() as active:
        patched = [key for key, original in before.items() if key[0].__dict__[key[1]] is not original]
        DftPlan(4).forward_values(np.ones(4))
    assert len(patched) == len(before)
    assert [active.names[i] for i in active.name] == ["transform.plan", "transform.forward"]
    assert all(owner.__dict__[attr] is original for (owner, attr), original in before.items())


@pytest.fixture(scope="module")
def small_instance():
    return mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, b_num=2, seed=21))


@pytest.mark.parametrize(
    "method, joint", [("lsdk", False), ("lsdk", True), ("llk", False)], ids=["linear", "joint", "llk"]
)
def test_traced_counts_follow_the_step_formulas(tracer, small_instance, method, joint):
    """Every transform of a solve goes through a traced name, and nothing else the tracer wraps.

    Per step: one residual (one forward transform).  Per active step: one
    direction (one adjoint transform) and, for lsdk, the step-size map
    applied to it (one forward transform).  Before the first step: one
    residual per receiver, and after the last one, unless the run stopped by
    the rule (whose final residuals are its last cycle's), one more: the joint
    run stops at its cycle cap.  The loop checks the start point once and then
    calls the operators' private kernels and sums its norms with
    ``grid.array_norm``, so no public operator method, ``grid.norm`` or mask
    check runs inside a solve: a traced run counts the operator layer's time
    in ``solvers.self_s``.  The llk run is rescaled before tracing starts.
    """
    config = mk.SolverConfig(method=method, max_cycles=20)
    if joint:
        problem = small_instance.joint_problem()
    else:
        problem = small_instance.linear_problem()
        if method == "llk":
            problem, _ = mk.rescale_problem(problem)
    with tracer.Tracer() as active:
        result = (mk.run_joint if joint else mk.run_linear)(problem, config)
    spans = Counter(active.names[i] for i in active.name)
    counts = {name: c for (_, name), c in active.counts.items()}
    r_num, n_steps = result.trace.r_num, result.trace.n_steps
    n_active = int(result.trace.omegas.sum())
    n_maps = n_active if method == "lsdk" else 0
    assert 0 < n_active < n_steps
    assert (result.reason == mk.CYCLE_CAP) == joint
    n_final = 0 if result.reason == mk.STOPPING_RULE else r_num
    assert spans["transform.forward"] == r_num + n_steps + n_maps + n_final
    assert spans["transform.adjoint"] == n_active
    assert counts.get("grid.norm", 0) == 0
    assert spans["grid.mask_matches"] == 0
    for name in (
        "operators.apply",
        "operators.adjoint",
        "operators.joint_derivative",
        "operators.joint_adjoint_derivative",
    ):
        assert spans[name] == 0
