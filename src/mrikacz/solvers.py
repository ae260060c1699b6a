"""Loping Kaczmarz-type iterations with the cycle-based stopping rule.

One step works on one receiver's equation ([k] = k mod r_num).  The update

    x_{k+1} = x_k - omega_k * alpha_k * s_k

uses the adjoint residual direction s_k; omega_k lopes (skips) the step
whenever the residual is already within tau * delta of the noise level.
``method="llk"`` fixes alpha_k = 1 (Landweber-Kaczmarz); ``method="lsdk"``
uses the steepest-descent step ||s_k||^2 / ||A s_k||^2.  The run stops at
the first cycle whose steps all loped, at a cycle cap, or (for exact data,
where loping never triggers) once the residual has dropped by a configured
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .errors import ConfigurationError, NumericalFailure, SingularStepError
from .grid import ComplexImage, JointParameter
from .operators import JointForward, LinearForward, Problem, estimate_derivative_norm

METHOD_LLK = "llk"
METHOD_LSDK = "lsdk"

STOPPING_RULE = "stopping-rule"
CYCLE_CAP = "cycle-cap"
EXACT_DATA_TOLERANCE = "exact-data-tolerance"

# Estimated norms may exceed the unit bound by at most this much before an
# unscaled Landweber-type run is rejected.
UNIT_NORM_SLACK = 1e-6

_CURVATURE_FLOOR = 1e-300


def loping_weight(residual_norm: float, tau: float, delta_i: float) -> int:
    """1 if the residual strictly exceeds tau * delta_i, else 0."""
    return 1 if residual_norm > tau * delta_i else 0


def sdk_step_size(apply, s, s_norm: float) -> float:
    """Steepest-descent step ||s||^2 / ||apply(s)||^2, given ``s_norm`` = ||s||.

    ``apply`` maps the parameter space into data space (the operator itself
    in the linear case, the derivative at the current iterate in the joint
    case).
    """
    denom = grid.norm(apply(s))
    if denom < _CURVATURE_FLOOR:
        raise SingularStepError(
            "steepest-descent step hit a numerically zero curvature term"
        )
    ratio = s_norm / denom
    return float(ratio * ratio)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters shared by the linear and joint runs.

    ``eps_stop`` = 0 detects the stopping cycle through the loping weights
    (every step skipped); a positive value instead compares successive
    iterates and stops once every update in a cycle moved the iterate by at
    most ``eps_stop``.  ``exact_data_rtol`` is the extra halt used when all
    noise levels are zero and loping can never trigger.
    """

    method: str = METHOD_LSDK
    tau: float = 2.1
    max_cycles: int = 10000
    initial_image: ComplexImage | None = None
    initial_coefficients: np.ndarray | None = None
    eps_stop: float = 0.0
    exact_data_rtol: float = 1e-10
    step_size_override: float | None = None

    def __post_init__(self):
        if self.method not in (METHOD_LLK, METHOD_LSDK):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if not self.tau > 2:
            raise ConfigurationError(f"tau must be > 2, got {self.tau}")
        if self.max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        if self.eps_stop < 0:
            raise ConfigurationError("eps_stop must be >= 0")
        if self.exact_data_rtol < 0:
            raise ConfigurationError("exact_data_rtol must be >= 0")
        if self.step_size_override is not None and self.method != METHOD_LSDK:
            raise ConfigurationError("step_size_override only applies to lsdk")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Column-wise record of every step of a run.

    ``errors`` is present only when a reference solution was supplied.
    ``k_star`` is the stopping index (a multiple of r_num) when the run
    terminated through the stopping rule, else None.
    """

    steps: np.ndarray
    receivers: np.ndarray
    omegas: np.ndarray
    alphas: np.ndarray
    residuals: np.ndarray
    errors: np.ndarray | None
    k_star: int | None
    r_num: int

    @property
    def n_steps(self) -> int:
        return int(self.steps.size)

    @property
    def n_cycles(self) -> int:
        return self.n_steps // self.r_num


@dataclass(frozen=True, eq=False)
class SolveResult:
    final: ComplexImage | JointParameter
    trace: IterationTrace
    reason: str
    metadata: dict = field(default_factory=dict)


class _Recorder:
    def __init__(self, r_num, track_errors):
        self.r_num = r_num
        self.steps, self.receivers, self.omegas = [], [], []
        self.alphas, self.residuals = [], []
        self.errors = [] if track_errors else None

    def add(self, k, i, omega, alpha, residual, error):
        self.steps.append(k)
        self.receivers.append(i)
        self.omegas.append(omega)
        self.alphas.append(alpha)
        self.residuals.append(residual)
        if self.errors is not None:
            self.errors.append(error)

    def build(self, k_star):
        return IterationTrace(
            steps=np.asarray(self.steps, dtype=np.int64),
            receivers=np.asarray(self.receivers, dtype=np.int64),
            omegas=np.asarray(self.omegas, dtype=np.int64),
            alphas=np.asarray(self.alphas, dtype=np.float64),
            residuals=np.asarray(self.residuals, dtype=np.float64),
            errors=None if self.errors is None else np.asarray(self.errors, dtype=np.float64),
            k_star=k_star,
            r_num=self.r_num,
        )


def _iterate(x, measurements, config, reference, apply_fn, direction_fn, stepmap_fn, metadata):
    r_num = measurements.r_num
    deltas = measurements.deltas
    all_exact = bool(np.all(deltas == 0.0))
    rec = _Recorder(r_num, reference is not None)

    initial_max_residual = max(
        grid.norm(apply_fn(x, i) - measurements.vectors[i]) for i in range(r_num)
    )
    metadata = dict(metadata, initial_max_residual=initial_max_residual)

    k = 0
    k_star = None
    reason = CYCLE_CAP
    for cycle in range(config.max_cycles):
        cycle_max_residual = 0.0
        cycle_max_update = 0.0
        cycle_any_active = False
        for i in range(r_num):
            residual = apply_fn(x, i) - measurements.vectors[i]
            rnorm = grid.norm(residual)
            if not math.isfinite(rnorm):
                # loping_weight(nan, ...) is 0: the step would lope and the run "stop".
                raise NumericalFailure(
                    f"non-finite residual at step {k} (receiver {i})",
                    trace=rec.build(None),
                )
            omega = loping_weight(rnorm, config.tau, deltas[i])
            error = grid.norm(x - reference) if reference is not None else None
            alpha = 1.0
            if omega:
                cycle_any_active = True
                s = direction_fn(x, i, residual)
                s_norm = grid.norm(s)
                if config.method == METHOD_LSDK:
                    if config.step_size_override is not None:
                        alpha = config.step_size_override
                    else:
                        try:
                            alpha = sdk_step_size(stepmap_fn(x, i), s, s_norm)
                        except SingularStepError as exc:
                            raise SingularStepError(
                                f"{exc} at step {k} (receiver {i})", trace=rec.build(None)
                            ) from None
                x = x - alpha * s
                cycle_max_update = max(cycle_max_update, alpha * s_norm)
            rec.add(k, i, omega, alpha, rnorm, error)
            if omega and not grid.all_finite(x):
                raise NumericalFailure(
                    f"non-finite iterate at step {k} (receiver {i})",
                    trace=rec.build(None),
                )
            cycle_max_residual = max(cycle_max_residual, rnorm)
            k += 1
        if config.eps_stop == 0.0:
            stopped = not cycle_any_active
        else:
            stopped = cycle_max_update <= config.eps_stop
        if stopped:
            k_star = cycle * r_num
            reason = STOPPING_RULE
            break
        if all_exact and cycle_max_residual <= config.exact_data_rtol * initial_max_residual:
            reason = EXACT_DATA_TOLERANCE
            break
    return SolveResult(final=x, trace=rec.build(k_star), reason=reason, metadata=metadata)


def _check_family(problem: Problem, family: type, run: str):
    for i, op in enumerate(problem.operators):
        if not isinstance(op, family):
            raise ConfigurationError(
                f"{run} needs {family.__name__} operators; receiver {i} has {type(op).__name__}"
            )


def run_linear(problem: Problem, config: SolverConfig = SolverConfig(), reference=None) -> SolveResult:
    """Reconstruct the image with known sensitivities.

    For ``method="llk"`` every operator must have been rescaled to estimated
    norm <= 1 (see :func:`mrikacz.operators.rescale_problem`); unscaled
    operators are rejected.  ``reference`` optionally supplies a known
    solution whose distance to the iterate is recorded in the trace.
    """
    _check_family(problem, LinearForward, "run_linear")
    ops = problem.operators
    if config.method == METHOD_LLK:
        for i, op in enumerate(ops):
            if op.estimated_norm > 1.0 + UNIT_NORM_SLACK:
                raise ConfigurationError(
                    f"llk requires operators scaled to unit norm; receiver {i} "
                    f"has estimated norm {op.estimated_norm:.6g}"
                )
    x0 = config.initial_image
    if x0 is None:
        x0 = ComplexImage.zero(ops[0].model.grid)
    if reference is not None and not isinstance(reference, ComplexImage):
        raise ConfigurationError("reference for a linear run must be a ComplexImage")
    metadata = {"method": config.method, "tau": config.tau, "space": "image"}
    return _iterate(
        x0,
        problem.measurements,
        config,
        reference,
        apply_fn=lambda x, i: ops[i].apply(x),
        direction_fn=lambda x, i, res: ops[i].adjoint(res),
        stepmap_fn=lambda x, i: ops[i].apply,
        metadata=metadata,
    )


def run_joint(problem: Problem, config: SolverConfig = SolverConfig(), reference=None) -> SolveResult:
    """Jointly update image and sensitivity coefficients.

    Same loping and stopping mechanics as the linear run, with the adjoint
    of the derivative supplying the direction.  The bilinear forward map
    violates the tangential-cone bound, so no convergence guarantee is
    attached; the result metadata says so.  For ``method="llk"`` the
    derivative norm at the initial guess must not exceed 1 (the closest
    analog of the unit-norm hypothesis that is definable for a nonlinear
    map).
    """
    _check_family(problem, JointForward, "run_joint")
    ops = problem.operators
    model = ops[0].model
    image0 = config.initial_image
    if image0 is None:
        image0 = ComplexImage.zero(model.grid)
    coeff0 = config.initial_coefficients
    if coeff0 is None:
        coeff0 = np.zeros((problem.r_num, model.b_num), dtype=np.complex128)
        coeff0[:, 0] = 1.0
    x0 = JointParameter(image0, coeff0)
    if config.method == METHOD_LLK:
        for i, op in enumerate(ops):
            nrm = estimate_derivative_norm(op, x0)
            if nrm > 1.0 + UNIT_NORM_SLACK:
                raise ConfigurationError(
                    f"llk requires derivative norm <= 1 at the initial guess; "
                    f"receiver {i} has estimated norm {nrm:.6g}"
                )
    if reference is not None and not isinstance(reference, JointParameter):
        raise ConfigurationError("reference for a joint run must be a JointParameter")
    metadata = {
        "method": config.method,
        "tau": config.tau,
        "space": "image+coefficients",
        "guarantee": "experimental: no convergence guarantee",
        "joint_norm": "unweighted direct sum of image and coefficient norms",
    }
    return _iterate(
        x0,
        problem.measurements,
        config,
        reference,
        apply_fn=lambda x, i: ops[i].apply(x),
        direction_fn=lambda x, i, res: ops[i].adjoint_derivative(x, res),
        stepmap_fn=lambda x, i: (lambda v: ops[i].derivative(x, v)),
        metadata=metadata,
    )
