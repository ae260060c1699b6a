"""The value types' sharing contract.

Public constructors copy what the caller passes, so changing the caller's
array later leaves the value as it was.  Every value the library computes
holds a read-only array that shares memory with none of its inputs.
"""

import numpy as np
import pytest

import mrikacz as mk
from mrikacz.transform import embed

from conftest import random_image, random_joint, random_measurement

SHAPE = mk.GridShape(4, 2)
MASK = mk.KSpaceMask(SHAPE, [0, 2, 3, 6])
BASIS = (mk.ComplexImage.constant(SHAPE, 1.0), mk.ComplexImage(SHAPE, np.arange(SHAPE.p_num)))
MODEL = mk.SensitivityModel(BASIS, [[1.0, 0.5j], [0.25, -1.0]])


def arrays(value):
    if isinstance(value, mk.JointParameter):
        return [value.image.values, value.coefficients]
    return [value.values]


def constructed(kind):
    """(value, the caller's array it holds a copy of)."""
    vals = np.arange(SHAPE.p_num, dtype=np.complex128)
    coeff = np.ones((2, 2), dtype=np.complex128)
    if kind == "image":
        return mk.ComplexImage(SHAPE, vals), vals, lambda v: v.values
    if kind == "image-from-int":
        ints = np.arange(SHAPE.p_num)
        return mk.ComplexImage(SHAPE, ints), ints, lambda v: v.values
    if kind == "measurement":
        vals = vals[: MASK.p_proj].copy()
        return mk.MeasurementVector(MASK, vals), vals, lambda v: v.values
    if kind == "joint":
        return mk.JointParameter(mk.ComplexImage(SHAPE, vals), coeff), coeff, lambda v: v.coefficients
    if kind == "mask":
        idx = np.array([1, 3, 5])
        return mk.KSpaceMask(SHAPE, idx), idx, lambda v: v.indices
    if kind == "sensitivity-model":
        return mk.SensitivityModel(BASIS, coeff), coeff, lambda v: v.coefficients
    deltas = np.array([0.5])
    vectors = (mk.MeasurementVector(MASK, np.ones(MASK.p_proj)),)
    return mk.MeasurementSet(vectors, deltas), deltas, lambda v: v.deltas


@pytest.mark.parametrize(
    "kind",
    ["image", "image-from-int", "measurement", "joint", "mask", "sensitivity-model", "measurement-set"],
)
def test_public_constructor_copies(kind):
    value, source, field = constructed(kind)
    original = source.copy()
    source[...] = 7
    np.testing.assert_array_equal(field(value), original)
    assert not field(value).flags.writeable


def library_results():
    """pytest params (result, inputs), one per kind of value the library computes."""
    rng = np.random.default_rng(5)
    f, g = random_image(rng, SHAPE), random_image(rng, SHAPE)
    u, v = random_measurement(rng, MASK), random_measurement(rng, MASK)
    x, dx = random_joint(rng, SHAPE, 2, 2), random_joint(rng, SHAPE, 2, 2)
    linear = mk.LinearForward(MODEL, MASK, 1, scale=0.5)
    joint = mk.JointForward(MODEL, MASK, 1, scale=0.5)
    cases = [
        ("image+", f + g, [f, g]),
        ("image-", f - g, [f, g]),
        ("image*scalar", f * 2.0, [f]),
        ("scalar*image", (1 - 2j) * f, [f]),
        ("image*clongdouble", f * np.clongdouble(2), [f]),
        ("-image", -f, [f]),
        ("measurement+", u + v, [u, v]),
        ("measurement-", u - v, [u, v]),
        ("measurement*scalar", u * 3, [u]),
        ("-measurement", -u, [u]),
        ("joint+", x + dx, [x, dx]),
        ("joint-", x - dx, [x, dx]),
        ("joint*scalar", 0.5 * x, [x]),
        ("-joint", -x, [x]),
        ("embed", embed(MASK, u), [u]),
        ("LinearForward.apply", linear.apply(f), [f]),
        ("LinearForward.adjoint", linear.adjoint(u), [u]),
        ("JointForward.apply", joint.apply(x), [x]),
        ("JointForward.derivative", joint.derivative(x, dx), [x, dx]),
        ("JointForward.adjoint_derivative", joint.adjoint_derivative(x, u), [x, u]),
    ]
    return [pytest.param(result, inputs, id=label) for label, result, inputs in cases]


@pytest.mark.parametrize("result,inputs", library_results())
def test_library_result_is_fresh_and_read_only(result, inputs):
    operand_arrays = [a for value in inputs for a in arrays(value)]
    operand_arrays += [MODEL.basis_matrix, MODEL.coefficients, MASK.indices]
    operand_arrays += [b.values for b in BASIS]
    for out in arrays(result):
        assert out.dtype == np.complex128
        assert not out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in operand_arrays)
