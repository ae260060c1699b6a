"""Receiver forward operators, their adjoints, norm scaling and the cone probe.

The linear operator of receiver i maps an image P to

    c * restrict(F(P x S_i)),    S_i = sum_n coeff[i, n] * basis_n,

where F is the flattened Fourier transform of the model's grid (each
operator builds its own ``DftPlan``), restrict keeps the masked k-space
positions and c is a scale factor.  The joint operator takes
(P, coefficients) and is bilinear in (P, coeff[i]).  All adjoint formulas
follow the package inner product (conjugate-linear in the second slot) and
are pinned by dot-product tests rather than trusted symbolically.

The joint derivative's adjoint maps data r to the image block
c * conj(S_i) * back and, in receiver i's row of the coefficient block,

    c * conj(B @ (P * conj(back))),    back = F* embed(r),

where B is the (b_num, p_num) basis matrix: one pixel-wise product and one
b_num-row matrix-vector product.  The operators evaluate through private
kernels on flat arrays that write into arrays the caller passes: forward
(pixels to masked values), back (masked values to pixels) and, for the
joint operator, the coefficient parts.  The public methods check their
arguments, allocate and call them (a public adjoint transforms a new
zero-filled array); the Kaczmarz loop checks once and passes one run's
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import grid
from .errors import ConfigurationError, DimensionMismatch
from .grid import (
    ComplexImage,
    JointParameter,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
    _fresh,
    array_norm,
    combine_basis,
)
from .transform import DftPlan, _zero_filled

# Defaults for the seeded power iteration of the ``estimate_norm`` diagnostic.
NORM_SEED = 1905
NORM_MAX_ITER = 1000
NORM_RTOL = 1e-6

_DENOM_FLOOR = 1e-14


def _scale(values: np.ndarray, scale: float) -> np.ndarray:
    """Multiply ``values`` by ``scale`` in place; a unit scale costs no pass.

    Multiplying by 1+0j could change only a zero component's sign or turn a
    component of an infinite entry into nan; skipping it keeps them as computed.
    """
    if scale != 1.0:
        np.multiply(values, scale, out=values)
    return values


@dataclass(frozen=True, eq=False)
class _ReceiverOperator:
    """Receiver ``receiver`` of a sensitivity model, seen through a mask.

    ``LinearForward`` holds the model's coefficients fixed; ``JointForward``
    takes them as part of its argument and reads ``model.coefficients`` only
    for the shape of the coefficient block.  Each builds its own ``plan``.
    """

    model: SensitivityModel
    mask: KSpaceMask
    receiver: int
    scale: float = 1.0
    plan: DftPlan = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 <= self.receiver < self.model.r_num):
            raise IndexError(f"receiver {self.receiver} out of range")
        if self.mask.shape != self.model.grid:
            raise DimensionMismatch("mask and sensitivity basis live on different grids")
        object.__setattr__(self, "plan", DftPlan(self.model.grid.p_num))

    def with_scale(self, scale: float):
        return replace(self, scale=float(scale))

    @property
    def _transform_bound(self) -> float:
        """|scale| * ||F||: the unnormalised DFT has norm sqrt(p_num), restriction <= 1."""
        return abs(self.scale) * math.sqrt(self.plan.p_num)

    # Kernels on flat complex arrays; ``out`` and scratch arrays overlap no input unless stated.

    def _forward(self, pixels: np.ndarray, spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = scale * restrict(F pixels); ``spectrum`` is a scratch pixel array."""
        self.plan.forward_values(pixels, out=spectrum)
        # The mask's indices are checked in range, so "clip" never clips; it
        # writes straight into ``out``, where the default mode would buffer it.
        spectrum.take(self.mask.indices, out=out, mode="clip")
        return _scale(out, self.scale)

    def _back(self, values: np.ndarray, filled: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = F* embed(values); ``filled`` is a pixel array that is zero off the mask."""
        filled[self.mask.indices] = values
        return self.plan.adjoint_values(filled, out=out)

    def _image_back(self, conj_sensitivity, back, out) -> np.ndarray:
        """``out`` = scale * conj(S) * back, given conj(S); ``out`` may be either input."""
        np.multiply(conj_sensitivity, back, out=out)
        return _scale(out, self.scale)

    def _measured(self, pixels: np.ndarray) -> MeasurementVector:
        """scale * restrict(F pixels) as a new measurement vector."""
        out = np.empty(self.mask.p_proj, dtype=np.complex128)
        return _fresh(MeasurementVector, self.mask, self._forward(pixels, np.empty_like(pixels), out))


class LinearForward(_ReceiverOperator):
    """Known-sensitivity forward operator of one receiver."""

    @cached_property
    def sensitivity(self) -> ComplexImage:
        return self.model.materialize(self.receiver)

    def _check_point(self, image: ComplexImage):
        if image.shape != self.model.grid:
            raise DimensionMismatch("image grid does not match the operator")

    def apply(self, image: ComplexImage) -> MeasurementVector:
        self._check_point(image)
        return self._measured(image.values * self.sensitivity.values)

    def adjoint(self, data: MeasurementVector) -> ComplexImage:
        back = self.plan.adjoint_values(_zero_filled(self.mask, data))  # F* embed(data)
        image = self._image_back(np.conj(self.sensitivity.values), back, back)
        return _fresh(ComplexImage, self.model.grid, image)

    @cached_property
    def norm_bound(self) -> float:
        """Closed-form upper bound |scale| * sqrt(p_num) * max|S_i| on the spectral norm."""
        return self._transform_bound * float(np.abs(self.sensitivity.values).max())

    # A linear map is its own derivative at every point, so the cone probe
    # calls this exactly as it calls ``JointForward.derivative``.

    def derivative(self, x: ComplexImage, dx: ComplexImage) -> MeasurementVector:
        return self.apply(dx)


class JointForward(_ReceiverOperator):
    """Parameter-to-data operator of one receiver on (image, coefficients)."""

    def _check_point(self, x: JointParameter):
        if x.image.shape != self.model.grid:
            raise DimensionMismatch("parameter image grid does not match the operator")
        if x.coefficients.shape != self.model.coefficients.shape:
            raise DimensionMismatch(
                f"coefficient block {x.coefficients.shape} does not match "
                f"the model's {self.model.coefficients.shape}"
            )

    def _sensitivity(self, coefficients: np.ndarray) -> np.ndarray:
        """This receiver's sensitivity for a coefficient block, as a flat pixel array."""
        return combine_basis(self.model.basis_matrix, coefficients[self.receiver])

    def _coefficient_forward(self, image, row, scratch, pixels) -> np.ndarray:
        """``pixels`` += image * (row @ B): the derivative's term in the receiver's coefficients."""
        combine_basis(self.model.basis_matrix, row, out=scratch)
        np.multiply(image, scratch, out=scratch)
        return np.add(pixels, scratch, out=pixels)

    def _coefficient_back(self, image, back, scratch, out) -> np.ndarray:
        """``out`` = scale * conj(B @ (image * conj(back))), receiver's row of the adjoint's
        coefficient block; ``scratch`` may be ``back``, which it then overwrites."""
        # <data, P F (image * basis_n)> = <back, image * basis_n>, the conjugate of
        # basis_n @ (image * conj(back)): one pixel-wise product and a b_num-row matvec.
        np.conjugate(back, out=scratch)
        np.multiply(image, scratch, out=scratch)
        np.matmul(self.model.basis_matrix, scratch, out=out)
        np.conjugate(out, out=out)
        return _scale(out, self.scale)

    def apply(self, x: JointParameter) -> MeasurementVector:
        self._check_point(x)
        return self._measured(x.image.values * self._sensitivity(x.coefficients))

    def derivative(self, x: JointParameter, dx: JointParameter) -> MeasurementVector:
        """Directional derivative at ``x``; bilinear product rule."""
        self._check_point(x)
        self._check_point(dx)
        pixels = dx.image.values * self._sensitivity(x.coefficients)
        row = dx.coefficients[self.receiver]
        self._coefficient_forward(x.image.values, row, np.empty_like(pixels), pixels)
        return self._measured(pixels)

    def adjoint_derivative(self, x: JointParameter, data: MeasurementVector) -> JointParameter:
        """Adjoint of :meth:`derivative` at ``x`` under the direct-sum inner product."""
        self._check_point(x)
        back = self.plan.adjoint_values(_zero_filled(self.mask, data))
        conj = np.conj(self._sensitivity(x.coefficients))
        image_part = self._image_back(conj, back, conj)
        coeff_part = np.zeros(x.coefficients.shape, dtype=np.complex128)
        self._coefficient_back(x.image.values, back, back, coeff_part[self.receiver])
        return _fresh(JointParameter, _fresh(ComplexImage, self.model.grid, image_part), coeff_part)

    def derivative_norm_bound(self, x: JointParameter) -> float:
        """Upper bound |scale| * sqrt(p_num) * hypot(max|S_i(x)|, b) on ||F_i'(x)||.

        The product rule splits the derivative into dP * S_i(x) and
        P * (dc_i @ B); by Cauchy-Schwarz the second has norm at most
        b * ||dc_i|| with b = ||P * colnorm(B)||_2, where P is x's image and
        colnorm(B)_k the norm of the basis values at pixel k.  At a zero
        image b = 0, and the bound is the linear operator's
        :attr:`~LinearForward.norm_bound`.
        """
        self._check_point(x)
        s_max = float(np.abs(self._sensitivity(x.coefficients)).max())
        b = array_norm(x.image.values * np.linalg.norm(self.model.basis_matrix, axis=0))
        return self._transform_bound * math.hypot(s_max, b)


def joint_from_linear(op: LinearForward) -> JointForward:
    """Joint-space view of a linear operator (same model, mask, receiver and scale)."""
    return JointForward(op.model, op.mask, op.receiver, op.scale)


def estimate_norm(
    op: LinearForward,
    max_iter: int = NORM_MAX_ITER,
    rtol: float = NORM_RTOL,
    seed: int = NORM_SEED,
) -> float:
    """Spectral norm of a linear operator by power iteration on A* A.

    A diagnostic: power iteration approaches the norm from below, so no
    reconstruct path uses it; they read :attr:`LinearForward.norm_bound`.
    Deterministic for a given seed.  Returns 0.0 for the zero operator.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.model.grid.p_num
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= array_norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = op.adjoint(op.apply(ComplexImage(op.model.grid, v))).values
        lam_new = array_norm(w)
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= rtol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Before/after record of the norm rescaling pass."""

    pre_norms: np.ndarray
    scales: np.ndarray
    post_norms: np.ndarray
    zero_norm_receivers: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {
            "pre_norms": [float(x) for x in self.pre_norms],
            "scales": [float(x) for x in self.scales],
            "post_norms": [float(x) for x in self.post_norms],
            "zero_norm_receivers": list(self.zero_norm_receivers),
        }


def _check_family(ops, family: type, user: str):
    """Every operator in ``ops`` is a ``family`` operator, or ``user`` cannot take them."""
    for i, op in enumerate(ops):
        if not isinstance(op, family):
            raise ConfigurationError(
                f"{user} needs {family.__name__} operators; receiver {i} has {type(op).__name__}"
            )


def rescale_to_unit(ops) -> tuple[tuple[LinearForward, ...], ScalingReport]:
    """Scale every operator so its norm bound, and hence its norm, is below 1.

    Returns the rescaled operators and a report.  Callers must apply the
    same factors to the matching data and noise levels; use
    :func:`rescale_problem` to do the whole instance atomically.  Both
    norms are each operator's own :attr:`LinearForward.norm_bound`, the
    value the llk check reads; the (1 + 1e-9) margin keeps rounding from
    pushing a rescaled bound above 1.  Operators other than
    :class:`LinearForward` are a :class:`ConfigurationError`.
    """
    ops = tuple(ops)
    _check_family(ops, LinearForward, "rescaling")
    pre = np.array([op.norm_bound for op in ops])
    scales = np.ones(len(ops))
    zero = []
    for i, nrm in enumerate(pre):
        if nrm == 0.0:
            zero.append(i)
        else:
            scales[i] = 1.0 / (nrm * (1.0 + 1e-9))
    new_ops = tuple(op.with_scale(op.scale * c) for op, c in zip(ops, scales))
    post = np.array([op.norm_bound for op in new_ops])
    return new_ops, ScalingReport(pre, scales, post, tuple(zero))


@dataclass(frozen=True, eq=False)
class Problem:
    """One reconstruction instance: one operator per receiver plus measured data.

    The operators are all :class:`LinearForward` (for ``run_linear``) or all
    :class:`JointForward` (for ``run_joint``).
    """

    operators: tuple
    measurements: MeasurementSet

    def __post_init__(self):
        ops = tuple(self.operators)
        if len(ops) != self.measurements.r_num:
            raise DimensionMismatch(
                f"{len(ops)} operators for {self.measurements.r_num} receivers"
            )
        for op in ops:
            if not op.mask.matches(self.measurements.mask):
                raise DimensionMismatch("operator and data masks differ")
        object.__setattr__(self, "operators", ops)

    @property
    def r_num(self) -> int:
        return len(self.operators)


def rescale_problem(problem: Problem) -> tuple[Problem, ScalingReport]:
    """Rescale operators, data and noise levels by one factor per receiver.

    Scaling both sides of every equation leaves the solution set unchanged
    while making the unit-norm hypothesis of the Landweber-type step hold.
    """
    new_ops, report = rescale_to_unit(problem.operators)
    new_measurements = problem.measurements.scaled(report.scales)
    return Problem(new_ops, new_measurements), report


@dataclass(frozen=True)
class ScalarProductModel:
    """The 2-variable model f(x, y) = x * y with its exact gradient.

    The smallest operator with the same bilinear structure as the joint
    forward map; the canonical witness that the tangential-cone bound fails
    for such maps near a point where f vanishes.
    """

    def apply(self, point: np.ndarray) -> float:
        x, y = point
        return float(x) * float(y)

    def derivative(self, point: np.ndarray, direction: np.ndarray) -> float:
        x, y = point
        dx, dy = direction
        return float(y) * float(dx) + float(x) * float(dy)


@dataclass(frozen=True, eq=False)
class ConeProbeReport:
    """Sampled tangential-cone ratios ||F(a) - F(b) - F'(a)(a-b)|| / ||F(a) - F(b)||.

    ``samples`` counts the sampled pairs, which are not kept; ``pairs`` holds
    the coordinates of each pair for the scalar model and is empty otherwise.
    """

    samples: int
    pairs: tuple
    ratios: np.ndarray
    excluded: int

    @property
    def degenerate(self) -> bool:
        return self.ratios.size == 0

    @property
    def max_ratio(self) -> float:
        return float("nan") if self.degenerate else float(self.ratios.max())

    @property
    def exceeds_half(self) -> bool:
        return not self.degenerate and self.max_ratio >= 0.5

    def as_dict(self) -> dict:
        out = {
            "samples": self.samples,
            "ratios": [float(r) for r in self.ratios],
            "max_ratio": self.max_ratio if np.isfinite(self.max_ratio) else None,
            "exceeds_half": self.exceeds_half,
            "excluded": int(self.excluded),
            "degenerate": self.degenerate,
        }
        if self.pairs:
            out["pairs"] = list(self.pairs)
        return out


def _random_like(rng: np.random.Generator, like):
    """A point with standard complex normal entries in the space of ``like``.

    Draws the image before the coefficient block, real parts before imaginary.
    """
    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if isinstance(like, JointParameter):
        return JointParameter(_random_like(rng, like.image), gaussian(like.coefficients.shape))
    return ComplexImage(like.shape, gaussian(like.shape.p_num))


def _ball_offset(rng: np.random.Generator, like):
    """A uniformly directed point of norm <= 1 in the space of ``like``.

    The direction is drawn before the length.
    """
    if isinstance(like, np.ndarray):
        g = rng.standard_normal(like.shape)
        g /= array_norm(g)
        return g * rng.uniform(0.0, 1.0)
    g = _random_like(rng, like)
    return g * (rng.uniform(0.0, 1.0) / grid.norm(g))


def _origin(target, center):
    """``center`` as a point of ``target``'s domain; the domain's zero when omitted."""
    if isinstance(target, ScalarProductModel):
        return np.zeros(2) if center is None else np.asarray(center, dtype=float)
    if center is not None:
        return center
    if isinstance(target, JointForward):
        return JointParameter.zero(target.model.grid, *target.model.coefficients.shape)
    return ComplexImage.zero(target.model.grid)


def _probe_eval(target, x, x_bar):
    size = abs if isinstance(target, ScalarProductModel) else grid.norm
    diff = target.apply(x) - target.apply(x_bar)
    lin = target.derivative(x, x - x_bar)
    return size(diff - lin), size(diff)


def cone_probe(
    target,
    center=None,
    radius: float = 1.0,
    samples: int = 200,
    seed: int = 0,
) -> ConeProbeReport:
    """Sample the tangential-cone ratio of an operator (or family) in a ball.

    ``target`` is a :class:`ScalarProductModel`, a single operator, or a
    sequence of operators sharing one domain.  Each point is ``center +
    offset * radius`` with ``offset`` uniformly directed and of norm <= 1;
    ``center`` defaults to the zero of the domain (``np.zeros(2)``, the zero
    image, or a zero :class:`JointParameter` of the model's coefficient
    shape).  The points are not kept; only the scalar model's coordinates
    are recorded (see :class:`ConeProbeReport`).  Pairs whose denominator
    falls below 1e-14 are excluded from the statistic and counted
    separately; if every pair is excluded the report is flagged degenerate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    targets = list(target) if isinstance(target, (list, tuple)) else [target]
    if not targets:
        raise ValueError("no operators to probe")
    rng = np.random.default_rng(seed)
    center = _origin(targets[0], center)
    keep_pairs = isinstance(targets[0], ScalarProductModel)
    pairs = []
    ratios = []
    excluded = 0
    for _ in range(samples):
        x = center + _ball_offset(rng, center) * radius
        x_bar = center + _ball_offset(rng, center) * radius
        if keep_pairs:
            pairs.append({"x": [float(v) for v in x], "x_bar": [float(v) for v in x_bar]})
        for op in targets:
            num, den = _probe_eval(op, x, x_bar)
            if den < _DENOM_FLOOR:
                excluded += 1
            else:
                ratios.append(num / den)
    return ConeProbeReport(samples, tuple(pairs), np.asarray(ratios, dtype=float), excluded)
