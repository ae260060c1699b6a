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

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


_COMPLEX = np.dtype(np.complex128)


def _frozen_complex(values, length, what):
    vals = np.array(values, dtype=np.complex128, order="C").reshape(-1)
    if length is not None and vals.size != length:
        raise DimensionMismatch(f"{what}: expected length {length}, got {vals.size}")
    vals.flags.writeable = False
    return vals


def _fresh(cls, first, values):
    """``cls(first, values)`` for an array the library allocated one line earlier.

    ``values`` must be a new array of the right shape that nothing else
    references; it is marked read-only and adopted without the public
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
class ComplexImage:
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

    def _binary(self, other, op):
        if not isinstance(other, ComplexImage):
            return NotImplemented
        if other.shape != self.shape:
            raise DimensionMismatch(f"grid mismatch: {self.shape} vs {other.shape}")
        return _fresh(ComplexImage, self.shape, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return _fresh(ComplexImage, self.shape, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return _fresh(ComplexImage, self.shape, -self.values)


@dataclass(frozen=True, eq=False)
class KSpaceMask:
    """The measured k-space subset: strictly increasing flat indices."""

    shape: GridShape
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1).copy()
        if idx.size < 1:
            raise ValueError("mask must contain at least one index")
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
class MeasurementVector:
    """Per-receiver k-space data, ordered like ``mask.indices``."""

    mask: KSpaceMask
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_complex(self.values, self.mask.p_proj, "measurement values")
        )

    def _binary(self, other, op):
        if not isinstance(other, MeasurementVector):
            return NotImplemented
        if not self.mask.matches(other.mask):
            raise DimensionMismatch("measurement vectors live on different masks")
        return _fresh(MeasurementVector, self.mask, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return _fresh(MeasurementVector, self.mask, self.values * scalar)

    __rmul__ = __mul__


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
        if np.any(deltas < 0):
            raise ValueError("noise levels must be >= 0")
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
    """

    basis: tuple[ComplexImage, ...]
    coefficients: np.ndarray

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
        object.__setattr__(self, "basis", basis)
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

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """(b_num, p_num) stack of the basis images."""
        mat = np.stack([b.values for b in self.basis])
        mat.flags.writeable = False
        return mat

    def materialize(self, receiver: int) -> ComplexImage:
        """Sum the basis with receiver ``receiver``'s coefficients."""
        if not (0 <= receiver < self.r_num):
            raise IndexError(f"receiver {receiver} out of range [0, {self.r_num - 1}]")
        return ComplexImage(self.grid, combine_basis(self.basis_matrix, self.coefficients[receiver]))


def combine_basis(basis_matrix: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Linear combination ``sum_n coefficients[n] * basis_matrix[n]``.

    Single shared implementation so that materializing a sensitivity through
    any code path produces bit-identical values.
    """
    return np.asarray(coefficients, dtype=np.complex128) @ basis_matrix


@dataclass(frozen=True, eq=False)
class JointParameter:
    """A point (image, coefficients) of the joint identification space.

    The coefficient block is an (r_num, b_num) complex array.  Vector-space
    arithmetic and the norm treat the two blocks as an unweighted direct sum.
    """

    image: ComplexImage
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        if coeff.ndim != 2:
            raise DimensionMismatch(f"coefficients must be 2-D, got ndim={coeff.ndim}")
        coeff = coeff.copy()
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)

    @classmethod
    def zero(cls, shape: GridShape, r_num: int, b_num: int) -> "JointParameter":
        return cls(ComplexImage.zero(shape), np.zeros((r_num, b_num)))

    def _binary(self, other, op):
        if not isinstance(other, JointParameter):
            return NotImplemented
        if self.coefficients.shape != other.coefficients.shape:
            raise DimensionMismatch("coefficient blocks differ in shape")
        return _fresh(
            JointParameter,
            self.image._binary(other.image, op),
            op(self.coefficients, other.coefficients),
        )

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return _fresh(JointParameter, self.image * scalar, self.coefficients * scalar)

    __rmul__ = __mul__


def _check_same_kind(a, b):
    if isinstance(a, ComplexImage) and isinstance(b, ComplexImage):
        if a.shape != b.shape:
            raise DimensionMismatch(f"grid mismatch: {a.shape} vs {b.shape}")
        return
    if isinstance(a, MeasurementVector) and isinstance(b, MeasurementVector):
        if not a.mask.matches(b.mask):
            raise DimensionMismatch("measurement vectors live on different masks")
        return
    if isinstance(a, JointParameter) and isinstance(b, JointParameter):
        if a.image.shape != b.image.shape or a.coefficients.shape != b.coefficients.shape:
            raise DimensionMismatch("joint parameters differ in layout")
        return
    raise DimensionMismatch(f"incompatible operands: {type(a).__name__} vs {type(b).__name__}")


def inner_product(a, b) -> complex:
    """Unweighted complex Euclidean inner product sum_k a_k * conj(b_k).

    Conjugate-linear in the second argument.  Accepts two images, two
    measurement vectors on the same mask, or two joint parameters (direct
    sum of the image and coefficient inner products).
    """
    _check_same_kind(a, b)
    if isinstance(a, JointParameter):
        return complex(
            np.vdot(b.image.values, a.image.values) + np.vdot(b.coefficients, a.coefficients)
        )
    return complex(np.vdot(b.values, a.values))


def norm(a) -> float:
    """Euclidean norm sqrt(Re inner_product(a, a))."""
    if isinstance(a, JointParameter):
        return float(np.sqrt(np.linalg.norm(a.image.values) ** 2 + np.linalg.norm(a.coefficients) ** 2))
    return float(np.linalg.norm(a.values))


def all_finite(a) -> bool:
    if isinstance(a, JointParameter):
        return bool(np.isfinite(a.image.values).all() and np.isfinite(a.coefficients).all())
    return bool(np.isfinite(a.values).all())
