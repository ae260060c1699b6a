"""Value types for images, masks, measurements and the inner-product algebra.

Images are complex-valued functions on a rectangular pixel grid, stored
flattened in row-major order: the pixel in (1-based) row ``r`` and column
``c`` sits at flat index ``(r - 1) * p_hor + (c - 1)``.  This flattening is
fixed package-wide; the Fourier transform, masks and all file formats refer
to it.  Every type here is an immutable value (the backing arrays are marked
read-only), so instances can be shared freely across threads.

The public constructors validate their input and copy it, so a caller's
array can change afterwards without changing the value.  Results the
library computes itself (arithmetic, transforms, restrictions and operator
outputs) wrap a freshly allocated array, marked read-only, that shares
memory with none of the operands.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

try:  # the C function behind np.einsum, without its Python wrapper's dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2.0
    _einsum = np.einsum

_COMPLEX = np.dtype(np.complex128)


def _frozen_complex(values, length, what):
    vals = np.array(values, dtype=np.complex128, order="C").reshape(-1)
    if length is not None and vals.size != length:
        raise DimensionMismatch(f"{what}: expected length {length}, got {vals.size}")
    vals.flags.writeable = False
    return vals


def _fresh(cls, first, values):
    """``cls(first, values)`` for an array that nothing can write to once adopted.

    ``values`` must have the right shape and be either a new array the
    library allocated one line earlier, or a view into a read-only array the
    library owns; it is marked read-only and adopted without the public
    constructor's copy and checks.  A scalar factor of another kind (a
    ``longdouble``, say) can give another dtype; such a result is converted
    as the public constructor would convert it.
    """
    if values.dtype is not _COMPLEX:
        values = values.astype(np.complex128)
    values.setflags(write=False)
    first_name, values_name = cls.__dataclass_fields__  # exactly two fields
    obj = object.__new__(cls)
    obj.__dict__[first_name] = first
    obj.__dict__[values_name] = values
    return obj


class _Vector:
    """Vector-space arithmetic of the value types below, written once.

    A subclass supplies ``_check_layout(other)``, which raises
    :class:`DimensionMismatch` unless ``other``, a value of its own type,
    lies in the same space, and ``_map(op, other=None)``, which applies the
    element-wise ``op`` to its arrays (paired with the matching arrays of
    ``other``, if given) and adopts the results with :func:`_fresh`.  An
    operand of another type gives ``NotImplemented``.
    """

    def _binary(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_layout(other)
        return self._map(op, other)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self._map(lambda values: values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        # Not a product with -1, which turns -0.0 into +0.0 and a complex inf into nan.
        return self._map(np.negative)


@dataclass(frozen=True)
class GridShape:
    """Rectangular pixel grid with ``p_hor`` columns and ``p_ver`` rows."""

    p_hor: int
    p_ver: int

    def __post_init__(self):
        if self.p_hor < 1 or self.p_ver < 1:
            raise ValueError(f"grid sides must be >= 1, got {self.p_hor} x {self.p_ver}")

    @property
    def p_num(self) -> int:
        """Total number of pixels (flattened length of every image)."""
        return self.p_hor * self.p_ver

    def flat_index(self, row: int, col: int) -> int:
        """Flat index of the pixel in 1-based (row, col) coordinates."""
        if not (1 <= row <= self.p_ver and 1 <= col <= self.p_hor):
            raise IndexError(f"pixel ({row}, {col}) outside {self.p_ver} x {self.p_hor} grid")
        return (row - 1) * self.p_hor + (col - 1)


@dataclass(frozen=True, eq=False)
class ComplexImage(_Vector):
    """Complex-valued function on a :class:`GridShape`, flattened row-major."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_complex(self.values, self.shape.p_num, "image values")
        )

    @classmethod
    def zero(cls, shape: GridShape) -> "ComplexImage":
        return cls(shape, np.zeros(shape.p_num))

    @classmethod
    def constant(cls, shape: GridShape, value: complex = 1.0) -> "ComplexImage":
        return cls(shape, np.full(shape.p_num, value))

    @classmethod
    def from_grid(cls, array2d) -> "ComplexImage":
        """Build from a (p_ver, p_hor) array; rows flatten in row-major order."""
        arr = np.asarray(array2d)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        return cls(GridShape(p_hor=arr.shape[1], p_ver=arr.shape[0]), arr.reshape(-1))

    def as_grid(self) -> np.ndarray:
        """View the values as a (p_ver, p_hor) array."""
        return self.values.reshape(self.shape.p_ver, self.shape.p_hor)

    def _check_layout(self, other):
        if other.shape != self.shape:
            raise DimensionMismatch(f"grid mismatch: {self.shape} vs {other.shape}")

    def _map(self, op, other=None):
        values = op(self.values) if other is None else op(self.values, other.values)
        return _fresh(ComplexImage, self.shape, values)


@dataclass(frozen=True, eq=False)
class KSpaceMask:
    """The measured k-space subset: strictly increasing flat indices."""

    shape: GridShape
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size < 1:
            raise ValueError("mask must contain at least one index")
        if not np.issubdtype(idx.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError(f"mask indices must be integers, got dtype {idx.dtype}")
        idx = idx.reshape(-1).astype(np.int64)
        if idx[0] < 0 or idx[-1] >= self.shape.p_num or np.any(np.diff(idx) <= 0):
            raise ValueError(
                "mask indices must be strictly increasing within "
                f"[0, {self.shape.p_num - 1}]"
            )
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def p_proj(self) -> int:
        """Number of measured k-space samples."""
        return int(self.indices.size)

    def matches(self, other: "KSpaceMask") -> bool:
        return self is other or (
            self.shape == other.shape and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True, eq=False)
class MeasurementVector(_Vector):
    """Per-receiver k-space data, ordered like ``mask.indices``."""

    mask: KSpaceMask
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_complex(self.values, self.mask.p_proj, "measurement values")
        )

    def _check_layout(self, other):
        if not self.mask.matches(other.mask):
            raise DimensionMismatch("measurement vectors live on different masks")

    def _map(self, op, other=None):
        values = op(self.values) if other is None else op(self.values, other.values)
        return _fresh(MeasurementVector, self.mask, values)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """All receivers' data plus the per-receiver noise levels delta_i."""

    vectors: tuple[MeasurementVector, ...]
    deltas: np.ndarray

    def __post_init__(self):
        vecs = tuple(self.vectors)
        if not vecs:
            raise ValueError("a measurement set needs at least one receiver")
        for v in vecs[1:]:
            if not v.mask.matches(vecs[0].mask):
                raise DimensionMismatch("all receivers must share one mask")
        deltas = np.asarray(self.deltas, dtype=np.float64).reshape(-1).copy()
        if deltas.size != len(vecs):
            raise DimensionMismatch(
                f"got {deltas.size} noise levels for {len(vecs)} receivers"
            )
        if not np.all(np.isfinite(deltas) & (deltas >= 0)):
            raise ValueError(f"noise levels must be finite and >= 0, got {deltas.tolist()}")
        deltas.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "deltas", deltas)

    @property
    def r_num(self) -> int:
        return len(self.vectors)

    @property
    def mask(self) -> KSpaceMask:
        return self.vectors[0].mask

    def scaled(self, factors) -> "MeasurementSet":
        """Scale receiver i's data and noise level by ``factors[i]``."""
        factors = np.asarray(factors, dtype=np.float64).reshape(-1)
        if factors.size != self.r_num:
            raise DimensionMismatch("one scale factor per receiver required")
        vecs = tuple(v * float(c) for v, c in zip(self.vectors, factors))
        return MeasurementSet(vecs, self.deltas * factors)


@dataclass(frozen=True, eq=False)
class SensitivityModel:
    """Receiver sensitivities expanded in a shared basis.

    ``basis`` holds the ``b_num`` basis images; ``coefficients`` is the
    (r_num, b_num) complex array whose row j gives receiver j's expansion.
    The basis is held once: ``basis_matrix`` is the read-only (b_num, p_num)
    stack of the images, copied from those passed in, and each image of
    ``basis`` is a read-only view of one of its rows.
    """

    basis: tuple[ComplexImage, ...]
    coefficients: np.ndarray
    basis_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("at least one basis image required")
        for b in basis[1:]:
            if b.shape != basis[0].shape:
                raise DimensionMismatch("all basis images must share one grid")
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        if coeff.ndim != 2 or coeff.shape[1] != len(basis):
            raise DimensionMismatch(
                f"coefficients must be (r_num, {len(basis)}), got {coeff.shape}"
            )
        coeff = coeff.copy()
        coeff.flags.writeable = False
        mat = np.stack([b.values for b in basis])
        mat.flags.writeable = False
        object.__setattr__(self, "basis_matrix", mat)
        rows = tuple(_fresh(ComplexImage, basis[0].shape, row) for row in mat)
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def grid(self) -> GridShape:
        return self.basis[0].shape

    @property
    def b_num(self) -> int:
        return len(self.basis)

    @property
    def r_num(self) -> int:
        return int(self.coefficients.shape[0])

    def materialize(self, receiver: int) -> ComplexImage:
        """Sum the basis with receiver ``receiver``'s coefficients."""
        if not (0 <= receiver < self.r_num):
            raise IndexError(f"receiver {receiver} out of range [0, {self.r_num - 1}]")
        return ComplexImage(self.grid, combine_basis(self.basis_matrix, self.coefficients[receiver]))


def combine_basis(basis_matrix: np.ndarray, coefficients: np.ndarray, out=None) -> np.ndarray:
    """Linear combination ``sum_n coefficients[n] * basis_matrix[n]``, into ``out`` if given.

    Single shared implementation so that materializing a sensitivity through
    any code path produces bit-identical values.
    """
    return np.matmul(np.asarray(coefficients, dtype=np.complex128), basis_matrix, out=out)


@dataclass(frozen=True, eq=False)
class JointParameter(_Vector):
    """A point (image, coefficients) of the joint identification space.

    The coefficient block is an (r_num, b_num) complex array.  Vector-space
    arithmetic and the norm treat the two blocks as an unweighted direct sum.
    """

    image: ComplexImage
    coefficients: np.ndarray

    def __post_init__(self):
        if not isinstance(self.image, ComplexImage):
            raise DimensionMismatch(f"image must be a ComplexImage, got {type(self.image).__name__}")
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        if coeff.ndim != 2:
            raise DimensionMismatch(f"coefficients must be 2-D, got ndim={coeff.ndim}")
        coeff = coeff.copy()
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)

    @classmethod
    def zero(cls, shape: GridShape, r_num: int, b_num: int) -> "JointParameter":
        return cls(ComplexImage.zero(shape), np.zeros((r_num, b_num)))

    def _check_layout(self, other):
        if self.coefficients.shape != other.coefficients.shape:
            raise DimensionMismatch("coefficient blocks differ in shape")
        self.image._check_layout(other.image)

    def _map(self, op, other=None):
        if other is None:
            return _fresh(JointParameter, self.image._map(op), op(self.coefficients))
        image = self.image._map(op, other.image)
        return _fresh(JointParameter, image, op(self.coefficients, other.coefficients))


def inner_product(a, b) -> complex:
    """Unweighted complex Euclidean inner product sum_k a_k * conj(b_k).

    Conjugate-linear in the second argument.  Accepts two images, two
    measurement vectors on the same mask, or two joint parameters (direct
    sum of the image and coefficient inner products).
    """
    if not isinstance(a, _Vector) or type(a) is not type(b):
        raise DimensionMismatch(f"incompatible operands: {type(a).__name__} vs {type(b).__name__}")
    a._check_layout(b)
    if isinstance(a, JointParameter):
        return complex(
            np.vdot(b.image.values, a.image.values) + np.vdot(b.coefficients, a.coefficients)
        )
    return complex(np.vdot(b.values, a.values))


def array_norm(*arrays) -> float:
    """Euclidean norm of all entries of complex128 or float64 ``arrays``, summed without BLAS.

    Every whole-array norm in the package is summed here: ``einsum`` over the
    float64 view gives the same bits under any BLAS thread count, while
    ``numpy.linalg.norm`` sums with BLAS ``dot``, whose last bits change with it.
    The sum calls einsum's C function directly where numpy exposes it.
    """
    return _view_norm(*(values.reshape(-1).view(np.float64) for values in arrays))


def _view_norm(*views) -> float:
    """:func:`array_norm` of the arrays whose flat float64 views are ``views``, bit for bit."""
    total = 0.0
    for flat in views:
        total += _einsum("i,i->", flat, flat)
    return math.sqrt(total)


def norm(a) -> float:
    """Euclidean norm sqrt(Re inner_product(a, a)); a joint parameter's is its blocks' direct sum."""
    if isinstance(a, JointParameter):
        return array_norm(a.image.values, a.coefficients)
    return array_norm(a.values)

