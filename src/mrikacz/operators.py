"""Receiver forward operators, their adjoints, norm scaling and the cone probe.

The linear operator of receiver i maps an image P to

    c * restrict(F(P x S_i)),    S_i = sum_n coeff[i, n] * basis_n,

where F is the flattened Fourier transform, restrict keeps the masked
k-space positions and c is a scale factor.  The joint operator takes
(P, coefficients) and is bilinear in (P, coeff[i]).  All adjoint formulas
follow the package inner product (conjugate-linear in the second slot) and
are pinned by dot-product tests rather than trusted symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import grid
from .errors import DimensionMismatch
from .grid import (
    ComplexImage,
    JointParameter,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
    _fresh,
    combine_basis,
)
from .transform import DftPlan, embed

# Defaults for the seeded power iteration (deterministic norm estimates).
NORM_SEED = 1905
NORM_MAX_ITER = 1000
NORM_RTOL = 1e-6

_DENOM_FLOOR = 1e-14


def _measure(
    plan: DftPlan, mask: KSpaceMask, scale: float, weighted: np.ndarray
) -> MeasurementVector:
    """scale * restrict(F weighted) for a flat pixel array ``weighted``."""
    spectrum = plan.forward_values(weighted)
    return _fresh(MeasurementVector, mask, spectrum[mask.indices] * scale)


def _back(plan: DftPlan, mask: KSpaceMask, data: MeasurementVector) -> np.ndarray:
    """F* embed(data) as a flat pixel array; ``embed`` checks the mask."""
    return plan.adjoint_values(embed(mask, data).values)


@dataclass(frozen=True, eq=False)
class _ReceiverOperator:
    """Receiver ``receiver`` of a sensitivity model, seen through a mask and a plan.

    ``LinearForward`` holds the model's coefficients fixed; ``JointForward``
    takes them as part of its argument and reads ``model.coefficients`` only
    for the shape of the coefficient block.
    """

    model: SensitivityModel
    mask: KSpaceMask
    plan: DftPlan
    receiver: int
    scale: float = 1.0

    def __post_init__(self):
        if not (0 <= self.receiver < self.model.r_num):
            raise IndexError(f"receiver {self.receiver} out of range")
        if self.mask.shape != self.model.grid:
            raise DimensionMismatch("mask and sensitivity basis live on different grids")
        if self.plan.p_num != self.model.grid.p_num:
            raise DimensionMismatch("transform plan length does not match the grid")

    def with_scale(self, scale: float):
        return replace(self, scale=float(scale))


class LinearForward(_ReceiverOperator):
    """Known-sensitivity forward operator of one receiver."""

    @cached_property
    def sensitivity(self) -> ComplexImage:
        return self.model.materialize(self.receiver)

    @cached_property
    def _conj_sensitivity(self) -> np.ndarray:
        return np.conj(self.sensitivity.values)

    def apply(self, image: ComplexImage) -> MeasurementVector:
        if image.shape != self.model.grid:
            raise DimensionMismatch("image grid does not match the operator")
        return _measure(self.plan, self.mask, self.scale, image.values * self.sensitivity.values)

    __call__ = apply

    def adjoint(self, data: MeasurementVector) -> ComplexImage:
        back = _back(self.plan, self.mask, data)
        return _fresh(ComplexImage, self.model.grid, self._conj_sensitivity * back * self.scale)

    @cached_property
    def estimated_norm(self) -> float:
        """Deterministic power-iteration estimate of the spectral norm."""
        return estimate_norm(self)


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

    def _sensitivity(self, x: JointParameter) -> np.ndarray:
        """This receiver's sensitivity at ``x`` as a flat pixel array."""
        return combine_basis(self.model.basis_matrix, x.coefficients[self.receiver])

    def apply(self, x: JointParameter) -> MeasurementVector:
        self._check_point(x)
        return _measure(self.plan, self.mask, self.scale, x.image.values * self._sensitivity(x))

    __call__ = apply

    def derivative(self, x: JointParameter, dx: JointParameter) -> MeasurementVector:
        """Directional derivative at ``x``; bilinear product rule."""
        self._check_point(x)
        self._check_point(dx)
        term_image = dx.image.values * self._sensitivity(x)
        term_coeff = x.image.values * self._sensitivity(dx)
        return _measure(self.plan, self.mask, self.scale, term_image + term_coeff)

    def adjoint_derivative(self, x: JointParameter, data: MeasurementVector) -> JointParameter:
        """Adjoint of :meth:`derivative` at ``x`` under the direct-sum inner product."""
        self._check_point(x)
        back = _back(self.plan, self.mask, data)
        image_part = np.conj(self._sensitivity(x)) * back * self.scale
        # <data, P F (x * basis_n)> = <F* P* data, x * basis_n>: reuse ``back``.
        coeff_part = np.zeros_like(x.coefficients)
        coeff_part[self.receiver] = self.scale * (
            np.conj(self.model.basis_matrix * x.image.values) @ back
        )
        return _fresh(JointParameter, _fresh(ComplexImage, self.model.grid, image_part), coeff_part)


def joint_from_linear(op: LinearForward) -> JointForward:
    """Joint-space view of a linear operator (same model, mask, plan and scale)."""
    return JointForward(op.model, op.mask, op.plan, op.receiver, op.scale)


def estimate_norm(
    op: LinearForward,
    max_iter: int = NORM_MAX_ITER,
    rtol: float = NORM_RTOL,
    seed: int = NORM_SEED,
) -> float:
    """Spectral norm of a linear operator by power iteration on A* A.

    Deterministic for a given seed.  Returns 0.0 for the zero operator.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.model.grid.p_num
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = op.adjoint(op.apply(ComplexImage(op.model.grid, v))).values
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= rtol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))


def estimate_derivative_norm(
    op: JointForward,
    x: JointParameter,
    max_iter: int = NORM_MAX_ITER,
    rtol: float = NORM_RTOL,
    seed: int = NORM_SEED,
) -> float:
    """Norm of the joint operator's derivative at ``x`` (local bound probe)."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    v = _random_joint(rng, x)
    v = v * (1.0 / grid.norm(v))
    lam = 0.0
    for _ in range(max_iter):
        w = op.adjoint_derivative(x, op.derivative(x, v))
        lam_new = grid.norm(w)
        if lam_new == 0.0:
            return 0.0
        v = w * (1.0 / lam_new)
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


def rescale_to_unit(ops) -> tuple[tuple[LinearForward, ...], ScalingReport]:
    """Scale every operator so its estimated norm is <= 1.

    Returns the rescaled operators and a report.  Callers must apply the
    same factors to the matching data and noise levels; use
    :func:`rescale_problem` to do the whole instance atomically.  Both
    norms are each operator's own :attr:`LinearForward.estimated_norm`, so
    the rescaled operators carry the norm that the llk check reads.
    """
    ops = tuple(ops)
    pre = np.array([op.estimated_norm for op in ops])
    scales = np.ones(len(ops))
    zero = []
    for i, nrm in enumerate(pre):
        if nrm == 0.0:
            zero.append(i)
        else:
            scales[i] = 1.0 / (nrm * (1.0 + 1e-9))
    new_ops = tuple(op.with_scale(op.scale * c) for op, c in zip(ops, scales))
    post = np.array([op.estimated_norm for op in new_ops])
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

    __call__ = apply

    def derivative(self, point: np.ndarray, direction: np.ndarray) -> float:
        x, y = point
        dx, dy = direction
        return float(y) * float(dx) + float(x) * float(dy)


@dataclass(frozen=True, eq=False)
class ConeProbeReport:
    """Sampled tangential-cone ratios ||F(a) - F(b) - F'(a)(a-b)|| / ||F(a) - F(b)||."""

    pairs: tuple
    ratios: np.ndarray
    max_ratio: float
    exceeds_half: bool
    excluded: int
    degenerate: bool

    def as_dict(self, include_pairs: bool = False) -> dict:
        out = {
            "samples": len(self.pairs),
            "ratios": [float(r) for r in self.ratios],
            "max_ratio": float(self.max_ratio) if np.isfinite(self.max_ratio) else None,
            "exceeds_half": bool(self.exceeds_half),
            "excluded": int(self.excluded),
            "degenerate": bool(self.degenerate),
        }
        if include_pairs:
            out["pairs"] = [_pair_summary(a, b) for a, b in self.pairs]
        return out


def _pair_summary(a, b):
    if isinstance(a, np.ndarray):
        return {"x": [float(v) for v in a], "x_bar": [float(v) for v in b]}
    return {"x_norm": grid.norm(a), "x_bar_norm": grid.norm(b)}


def _random_joint(rng: np.random.Generator, like: JointParameter) -> JointParameter:
    img = rng.standard_normal(like.image.values.size) + 1j * rng.standard_normal(
        like.image.values.size
    )
    coeff = rng.standard_normal(like.coefficients.shape) + 1j * rng.standard_normal(
        like.coefficients.shape
    )
    return JointParameter(ComplexImage(like.image.shape, img), coeff)


def _random_image(rng: np.random.Generator, shape) -> ComplexImage:
    vals = rng.standard_normal(shape.p_num) + 1j * rng.standard_normal(shape.p_num)
    return ComplexImage(shape, vals)


def _ball_sampler(target, center, rng):
    """Returns (center, draw) where draw() samples uniformly-directed points
    with radius-1 scale; callers multiply by the radius."""
    if isinstance(target, ScalarProductModel):
        center = np.zeros(2) if center is None else np.asarray(center, dtype=float)

        def draw():
            g = rng.standard_normal(2)
            g /= np.linalg.norm(g)
            return center + g * rng.uniform(0.0, 1.0)

        return center, draw
    if isinstance(target, LinearForward):
        center = ComplexImage.zero(target.model.grid) if center is None else center

        def draw():
            g = _random_image(rng, center.shape)
            return center + g * (rng.uniform(0.0, 1.0) / grid.norm(g))

        return center, draw
    if isinstance(target, JointForward):
        if center is None:
            raise ValueError("a joint cone probe needs an explicit center parameter")

        def draw():
            g = _random_joint(rng, center)
            return center + g * (rng.uniform(0.0, 1.0) / grid.norm(g))

        return center, draw
    raise TypeError(f"cannot probe objects of type {type(target).__name__}")


def _probe_eval(target, x, x_bar):
    if isinstance(target, ScalarProductModel):
        diff = target.apply(x) - target.apply(x_bar)
        lin = target.derivative(x, x - x_bar)
        return abs(diff - lin), abs(diff)
    if isinstance(target, LinearForward):
        diff = target.apply(x) - target.apply(x_bar)
        lin = target.apply(x - x_bar)
        return grid.norm(diff - lin), grid.norm(diff)
    diff = target.apply(x) - target.apply(x_bar)
    lin = target.derivative(x, x - x_bar)
    return grid.norm(diff - lin), grid.norm(diff)


def cone_probe(
    target,
    center=None,
    radius: float = 1.0,
    samples: int = 200,
    seed: int = 0,
) -> ConeProbeReport:
    """Sample the tangential-cone ratio of an operator (or family) in a ball.

    ``target`` is a :class:`ScalarProductModel`, a single operator, or a
    sequence of operators sharing one domain.  Pairs whose denominator falls
    below 1e-14 are excluded from the statistic and counted separately; if
    every pair is excluded the report is flagged degenerate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    targets = list(target) if isinstance(target, (list, tuple)) else [target]
    if not targets:
        raise ValueError("no operators to probe")
    rng = np.random.default_rng(seed)
    center, draw = _ball_sampler(targets[0], center, rng)

    def scaled_draw():
        return center + (draw() - center) * radius

    pairs = []
    ratios = []
    excluded = 0
    for _ in range(samples):
        x, x_bar = scaled_draw(), scaled_draw()
        pairs.append((x, x_bar))
        for op in targets:
            num, den = _probe_eval(op, x, x_bar)
            if den < _DENOM_FLOOR:
                excluded += 1
            else:
                ratios.append(num / den)
    ratios = np.asarray(ratios, dtype=float)
    degenerate = ratios.size == 0
    max_ratio = float(ratios.max()) if not degenerate else float("nan")
    return ConeProbeReport(
        pairs=tuple(pairs),
        ratios=ratios,
        max_ratio=max_ratio,
        exceeds_half=(not degenerate) and max_ratio >= 0.5,
        excluded=excluded,
        degenerate=degenerate,
    )
