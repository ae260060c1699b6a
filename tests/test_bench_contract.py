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


@pytest.mark.parametrize("joint", [False, True], ids=["linear", "joint"])
def test_traced_counts_follow_the_step_formulas(tracer, small_instance, joint):
    """Every transform, operator call and norm of an lsdk solve goes through a traced name.

    Per step: one residual (``apply``, one forward transform, one norm, one
    mask check).  Per active step: one direction (one adjoint transform, one
    mask check), its norm, and the step-size map applied to it (one forward
    transform, one norm).  Before the first step: one residual per receiver.
    """
    config = mk.SolverConfig(method="lsdk", max_cycles=20)
    problem = small_instance.joint_problem() if joint else small_instance.linear_problem()
    with tracer.Tracer() as active:
        result = (mk.run_joint if joint else mk.run_linear)(problem, config)
    spans = Counter(active.names[i] for i in active.name)
    counts = {name: c for (_, name), c in active.counts.items()}
    r_num, n_steps = result.trace.r_num, result.trace.n_steps
    n_active = int(result.trace.omegas.sum())
    assert 0 < n_active < n_steps
    assert spans["transform.forward"] == r_num + n_steps + n_active
    assert spans["transform.adjoint"] == n_active
    assert counts["grid.norm"] == r_num + n_steps + 2 * n_active
    assert spans["grid.mask_matches"] == r_num + n_steps + n_active
    if joint:
        assert spans["operators.apply"] == r_num + n_steps
        assert spans["operators.joint_derivative"] == n_active
        assert spans["operators.joint_adjoint_derivative"] == n_active
        assert spans["operators.adjoint"] == 0
    else:
        # The linear step-size map is the operator itself.
        assert spans["operators.apply"] == r_num + n_steps + n_active
        assert spans["operators.adjoint"] == n_active
        assert spans["operators.joint_derivative"] == 0
