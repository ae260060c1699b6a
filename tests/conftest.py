"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's own evaluation paths:
inner products are summed in a Python loop, transforms via the O(n^2)
definition, and operator matrices are built from the dense DFT matrix or
column by column, so adjoints can be checked against an explicit conjugate
transpose.
"""

import numpy as np
import pytest

import mrikacz as mk
from mrikacz import io


def brute_inner(a, b):
    """sum_k a_k * conj(b_k), plain Python loop."""
    total = 0j
    for x, y in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        total += complex(x) * complex(y).conjugate()
    return total


def dft_loop(x):
    """O(n^2) transform straight from the defining sum."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for k in range(n):
            out[m] += x[k] * np.exp(-2j * np.pi * k * m / n)
    return out


def dft_matrix(n, rows=None):
    """Rows (all by default) of the dense forward DFT matrix of length ``n``.

    exp(-2*pi*i * k / n) is looked up at k = (row * col) mod n; the modular
    reduction keeps every twiddle angle in [0, 2*pi) at full precision.  The
    adjoint's rows are the complex conjugates.
    """
    table = np.exp(-2j * np.pi * np.arange(n) / n)
    cols = np.arange(n, dtype=np.int64)
    rows = cols if rows is None else np.asarray(rows, dtype=np.int64)
    return table[np.outer(rows, cols) % n]


def op_matrix(op):
    """Dense matrix of a ``LinearForward``: scale * DFT rows at the mask * diag(S_i).

    The sensitivity S_i is summed here from the model's basis images and
    coefficients, so neither the operator nor the transform is evaluated.
    """
    model = op.model
    sensitivity = sum(c * b.values for c, b in zip(model.coefficients[op.receiver], model.basis))
    return op.scale * dft_matrix(model.grid.p_num, op.mask.indices) * sensitivity


def deriv_matrix(op, x):
    """Dense Jacobian of a ``JointForward`` at ``x``, column by column over the packed space."""
    r_num, b_num = x.coefficients.shape
    dim = x.image.shape.p_num + r_num * b_num

    def apply_packed(vec):
        return op.derivative(x, joint_unpack(vec, x.image.shape, r_num, b_num)).values

    return linear_matrix(apply_packed, dim)


def linear_matrix(apply_fn, dim):
    """Dense matrix of a linear map given column by column."""
    cols = []
    for k in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[k] = 1.0
        cols.append(np.asarray(apply_fn(e)))
    return np.stack(cols, axis=1)


def joint_pack(x: mk.JointParameter) -> np.ndarray:
    return np.concatenate([x.image.values, x.coefficients.ravel()])


def joint_unpack(vec, shape, r_num, b_num) -> mk.JointParameter:
    p = shape.p_num
    return mk.JointParameter(
        mk.ComplexImage(shape, vec[:p]), np.asarray(vec[p:]).reshape(r_num, b_num)
    )


def random_image(rng, shape) -> mk.ComplexImage:
    vals = rng.standard_normal(shape.p_num) + 1j * rng.standard_normal(shape.p_num)
    return mk.ComplexImage(shape, vals)


def random_measurement(rng, mask) -> mk.MeasurementVector:
    vals = rng.standard_normal(mask.p_proj) + 1j * rng.standard_normal(mask.p_proj)
    return mk.MeasurementVector(mask, vals)


def random_joint(rng, shape, r_num, b_num) -> mk.JointParameter:
    coeff = rng.standard_normal((r_num, b_num)) + 1j * rng.standard_normal((r_num, b_num))
    return mk.JointParameter(random_image(rng, shape), coeff)


@pytest.fixture(scope="session")
def default_instance():
    """The 32x32, 4-receiver, 50%-mask instance used across suites."""
    return mk.synthesize(mk.InstanceSpec(seed=2024))


@pytest.fixture(scope="session")
def tiny_unit_op():
    """2x2 grid, constant unit basis, full mask: the operator equals the DFT."""
    shape = mk.GridShape(2, 2)
    model = mk.SensitivityModel((mk.ComplexImage.constant(shape, 1.0),), [[1.0]])
    mask = mk.KSpaceMask(shape, np.arange(4))
    return mk.LinearForward(model, mask, 0)


@pytest.fixture()
def loadtxt_only(monkeypatch):
    """Make the CSV reader's per-row path raise, so a table loadtxt declines fails to read."""

    def refuse(path, table, body):
        raise AssertionError(f"{path} left the loadtxt path")

    monkeypatch.setattr(io, "_per_row_columns", refuse)
