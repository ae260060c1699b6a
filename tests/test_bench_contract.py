"""The benchmark tracer's patch points exist where it patches them.

``perfbench/tracer.py`` wraps functions by (owner, attribute) and restores
each owner's own ``__dict__`` entry on exit.  A refactor that moves, renames
or inherits one of them would break ``--trace 1`` benchmark runs without
failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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
