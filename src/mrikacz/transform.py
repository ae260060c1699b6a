"""The flattened 1-D Fourier transform and the zero-fill of masked k-space data.

The transform acts on the row-major flattening of an image:

    forward:  out[m] = sum_n f[n] * exp(-2*pi*i * n*m / p_num)
    adjoint:  out[n] = sum_m g[m] * exp(+2*pi*i * n*m / p_num)

There is no forward normalization; adjoint(forward(f)) == p_num * f, and the
inverse is adjoint / p_num.  Both directions are evaluated by ``numpy.fft``
at any length in O(p_num log p_num); the tests check them against the dense
O(p_num^2) matrix.  Where numpy exposes the unnormalized transform ufuncs
behind ``numpy.fft.fft`` and ``ifft``, the plan calls them directly and
skips the wrapper's per-call argument handling; the values are the same bit
for bit, and without them the plan calls ``numpy.fft``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .grid import ComplexImage, KSpaceMask, MeasurementVector, _fresh

try:  # numpy >= 2.0: the ufuncs that numpy.fft.fft and ifft call, with factor 1
    from numpy.fft._pocketfft_umath import fft as _fft_ufunc, ifft as _ifft_ufunc
except ImportError:  # pragma: no cover - older numpy
    _fft_ufunc = _ifft_ufunc = None


@dataclass(frozen=True, eq=False)
class DftPlan:
    """Transforms of one fixed length; immutable and shareable across threads."""

    p_num: int

    def __post_init__(self):
        if self.p_num < 1:
            raise ValueError("transform length must be >= 1")

    def _checked(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128).reshape(-1)
        if values.size != self.p_num:
            raise DimensionMismatch(
                f"plan length {self.p_num} does not match input length {values.size}"
            )
        return values

    def forward_values(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward transform on a flat complex array, into ``out`` (another array) if given."""
        values = self._checked(values)
        if _fft_ufunc is None:
            return _into(np.fft.fft(values), out)
        return _fft_ufunc(values, 1, out=np.empty_like(values) if out is None else out)

    def adjoint_values(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Adjoint transform (conjugate kernel, unnormalized), into ``out`` if given."""
        values = self._checked(values)
        if _ifft_ufunc is None:
            return _into(np.fft.ifft(values, norm="forward"), out)
        return _ifft_ufunc(values, 1, out=np.empty_like(values) if out is None else out)


def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return result
    out[...] = result
    return out


def _zero_filled(mask: KSpaceMask, g: MeasurementVector) -> np.ndarray:
    """The values of :func:`embed` as a new writable flat array."""
    if not g.mask.matches(mask):
        raise DimensionMismatch("measurement vector does not live on this mask")
    out = np.zeros(mask.shape.p_num, dtype=np.complex128)
    out[mask.indices] = g.values
    return out


def embed(mask: KSpaceMask, g: MeasurementVector) -> ComplexImage:
    """Zero-fill adjoint of the restriction ``values[mask.indices]``."""
    return _fresh(ComplexImage, mask.shape, _zero_filled(mask, g))
