"""Loping Kaczmarz-type iterations with the cycle-based stopping rule.

One step works on one receiver's equation F_i(x) = y_i ([k] = k mod r_num).
The update

    x_{k+1} = x_k - omega_k * alpha_k * s_k,    s_k = F_i'(x_k)* (F_i(x_k) - y_i),

uses the adjoint residual direction s_k; omega_k lopes (skips) the step
whenever the residual is already within tau * delta of the noise level.
``method="llk"`` fixes alpha_k = 1 (Landweber-Kaczmarz) and is a linear
method: it needs every operator norm ||A_i|| <= 1, which ``run_linear``
checks on the closed-form norm bounds, and ``run_joint`` refuses it.
``method="lsdk"`` uses the steepest-descent step
||s_k||^2 / ||F_i'(x_k) s_k||^2.  The linear and joint runs share one loop;
a linear operator is its own derivative.  The runs check the start point,
the reference and the problem once; the loop then runs on bare arrays.  The
iterate, the direction and the scratch are each one flat array per run (the
image, then a joint run's coefficients), so an update is two ufunc calls and
the non-finite check one sum.  Each receiver's arguments (data, noise level,
sensitivity or coefficient rows) are bound once per run; a step calls the
operators' private kernels, evaluates a joint step's sensitivity S_i(x)
once, and the result's blocks are views of the final state.
The run stops at the first cycle whose steps all loped, at a cycle cap, or
(for exact data, where loping never triggers) once the residual has dropped
by the fixed factor ``EXACT_DATA_RTOL``.  The result carries the verdict: the
final residuals (a stop by the rule reads them from the trace, any other stop
makes one more sweep), their bounds tau * delta_i and ``discrepancy_ok``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import ConfigurationError, NumericalFailure, SingularStepError
from .grid import ComplexImage, JointParameter, _einsum, _fresh, _view_norm
from .operators import JointForward, LinearForward, Problem, _check_family

METHOD_LLK = "llk"
METHOD_LSDK = "lsdk"

STOPPING_RULE = "stopping-rule"
CYCLE_CAP = "cycle-cap"
EXACT_DATA_TOLERANCE = "exact-data-tolerance"

_CURVATURE_FLOOR = 1e-300

EXACT_DATA_RTOL = 1e-10  # exact data: stop once a cycle's largest residual <= this * the initial one


def loping_weight(residual_norm: float, tau: float, delta_i: float) -> int:
    """1 if the residual strictly exceeds tau * delta_i, else 0."""
    return 1 if residual_norm > tau * delta_i else 0


def sdk_step_size(s_norm: float, mapped_norm: float) -> float:
    """Steepest-descent step ||s||^2 / ||F_i'(x) s||^2, given ``s_norm`` = ||s||
    and ``mapped_norm`` = ||F_i'(x) s||, the norm of the derivative at the
    current iterate applied to s.
    """
    if mapped_norm < _CURVATURE_FLOOR:
        raise SingularStepError(
            "steepest-descent step hit a numerically zero curvature term"
        )
    ratio = s_norm / mapped_norm
    return float(ratio * ratio)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters shared by the linear and joint runs."""

    method: str = METHOD_LSDK
    tau: float = 2.1
    max_cycles: int = 10000
    initial_image: ComplexImage | None = None
    initial_coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in (METHOD_LLK, METHOD_LSDK):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise ConfigurationError(f"tau must be a real number, got {self.tau!r}")
        try:
            finite = math.isfinite(self.tau)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigurationError(f"tau must be finite, got {self.tau}")
        if not self.tau > 2:
            raise ConfigurationError(f"tau must be > 2, got {self.tau}")
        if isinstance(self.max_cycles, bool) or not isinstance(self.max_cycles, numbers.Integral):
            raise ConfigurationError(f"max_cycles must be an integer, got {self.max_cycles!r}")
        if self.max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Column-wise record of every step of a run.

    Step k works on receiver k mod r_num, so ``steps`` and ``receivers``
    are derived from the step count.  ``errors`` is present only when a
    reference solution was supplied.  ``k_star`` is the stopping index (a
    multiple of r_num) when the run terminated through the stopping rule,
    else None.
    """

    omegas: np.ndarray
    alphas: np.ndarray
    residuals: np.ndarray
    errors: np.ndarray | None
    k_star: int | None
    r_num: int

    @property
    def n_steps(self) -> int:
        return int(self.omegas.size)

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.n_steps, dtype=np.int64)

    @property
    def receivers(self) -> np.ndarray:
        return self.steps % self.r_num

    @property
    def n_cycles(self) -> int:
        return self.n_steps // self.r_num

    @property
    def last_residuals(self) -> list:
        """Each receiver's last residual, or None if it has none (a partial trace)."""
        last = [None] * self.r_num
        for k in range(max(self.n_steps - self.r_num, 0), self.n_steps):
            last[k % self.r_num] = float(self.residuals[k])
        return last


@dataclass(frozen=True, eq=False)
class SolveResult:
    """The final iterate, its trace and the run's verdict: each receiver's final residual
    ||F_i(x) - y_i||, its bound tau * delta_i, and whether every residual is within its bound."""

    final: ComplexImage | JointParameter
    trace: IterationTrace
    reason: str
    final_residuals: list
    tau_delta_bounds: list
    discrepancy_ok: bool
    metadata: dict


class _Recorder:
    def __init__(self, r_num, track_errors):
        self.r_num = r_num
        self.omegas, self.alphas, self.residuals = [], [], []
        self.errors = [] if track_errors else None

    def add(self, omega, alpha, residual, error):
        self.omegas.append(omega)
        self.alphas.append(alpha)
        self.residuals.append(residual)
        if self.errors is not None:
            self.errors.append(error)

    def build(self, k_star):
        return IterationTrace(
            omegas=np.asarray(self.omegas, dtype=np.int64),
            alphas=np.asarray(self.alphas, dtype=np.float64),
            residuals=np.asarray(self.residuals, dtype=np.float64),
            errors=None if self.errors is None else np.asarray(self.errors, dtype=np.float64),
            k_star=k_star,
            r_num=self.r_num,
        )


def _check_start(problem: Problem, x, reference):
    """The start point and the reference must lie in the operators' domain."""
    for op in problem.operators:
        op._check_point(x)
    if reference is not None:
        x._check_layout(reference)


def _update(state, direction, scratch, alpha):
    """x -= alpha * s in place on flat arrays: the value algebra's ``x - alpha * s`` bit for bit."""
    np.subtract(state, np.multiply(direction, alpha, out=scratch), out=state)


def _iterate(x, problem, config, reference, metadata):
    ops, measurements = problem.operators, problem.measurements
    r_num = measurements.r_num
    deltas = measurements.deltas.tolist()
    all_exact = all(d == 0.0 for d in deltas)
    tau, lsdk = config.tau, config.method == METHOD_LSDK
    rec = _Recorder(r_num, reference is not None)

    # The run's own arrays, written with ``out=``.  The iterate (which becomes the result),
    # the direction and the scratch are each one flat array: the image block, then a joint
    # run's coefficient block, both views.  An update is two ufunc calls over the whole
    # state; a joint direction is zero outside the step's coefficient row.  Norms sum the
    # float64 views of the blocks one after the other, as ``array_norm`` sums them.
    joint = isinstance(x, JointParameter)
    starts = [x.image.values, x.coefficients] if joint else [x.values]
    state = np.concatenate([b.reshape(-1) for b in starts])
    direction, scratch = np.zeros_like(state), np.empty_like(state)
    p_num = starts[0].size
    blocks = [slice(0, p_num), slice(p_num, None)] if joint else [slice(None)]
    image, d_image = state[:p_num], direction[:p_num]
    d_views = [direction[b].view(np.float64) for b in blocks]
    if reference is not None:
        references = [reference.image.values, reference.coefficients] if joint else [reference.values]
        differences = [(state[b], ref.reshape(-1), scratch[b]) for b, ref in zip(blocks, references)]
        difference_views = [scratch[b].view(np.float64) for b in blocks]
    state_f64 = state.view(np.float64)
    zero = np.broadcast_to(0.0, state_f64.shape)  # 0 * v is nan exactly where v is inf or nan
    pixels, spectrum, back = (np.empty_like(image) for _ in range(3))
    filled = np.zeros_like(image)  # only the masked entries are ever written
    residual = np.empty(measurements.mask.p_proj, dtype=np.complex128)
    residual_f64 = residual.view(np.float64)

    # Each receiver's arguments, bound once: its operator, data and noise level, and its
    # sensitivity (linear), or the run's S_i(x) array, the basis and its rows of the
    # iterate's and the direction's coefficients (joint).
    if joint:
        sensitivity = np.empty_like(image)
        rows = state[p_num:].reshape(starts[1].shape)
        d_rows = direction[p_num:].reshape(starts[1].shape)
        receivers = [
            (op, v.values, d, sensitivity, op.model.basis_matrix, rows[i], d_rows[i])
            for i, (op, v, d) in enumerate(zip(ops, measurements.vectors, deltas))
        ]
    else:
        receivers = [
            (op, v.values, d, op.sensitivity.values, None, None, None)
            for op, v, d in zip(ops, measurements.vectors, deltas)
        ]

    def residual_norm(op, y, sens, basis, row):
        """||F_i(x) - y||, leaving F_i(x) - y in ``residual`` and a joint S_i(x) in ``sens``."""
        if joint:
            operators.combine_basis(basis, row, out=sens)
        op._forward(np.multiply(image, sens, out=pixels), spectrum, residual)
        np.subtract(residual, y, out=residual)
        return _view_norm(residual_f64)

    def sweep():
        """Each receiver's residual norm at the current iterate."""
        return [residual_norm(op, y, s, b, r) for op, y, _, s, b, r, _ in receivers]

    initial_max_residual = max(sweep())
    metadata = dict(metadata, initial_max_residual=initial_max_residual)

    k = 0
    k_star = None
    reason = CYCLE_CAP
    for cycle in range(config.max_cycles):
        cycle_max_residual = 0.0
        cycle_any_active = False
        for i, (op, y, delta, sens, basis, row, d_row) in enumerate(receivers):
            rnorm = residual_norm(op, y, sens, basis, row)
            if not math.isfinite(rnorm):
                # loping_weight(nan, ...) is 0: the step would lope and the run "stop".
                raise NumericalFailure(
                    f"non-finite residual at step {k} (receiver {i})",
                    trace=rec.build(None),
                )
            omega = loping_weight(rnorm, tau, delta)
            error = None
            if reference is not None:
                for block, ref, tmp in differences:
                    np.subtract(block, ref, out=tmp)
                error = _view_norm(*difference_views)
            alpha = 1.0
            if omega:
                cycle_any_active = True
                op._back(residual, filled, back)
                op._image_back(np.conjugate(sens, out=d_image), back, d_image)
                if joint:
                    op._coefficient_back(image, back, back, d_row)
                if lsdk:
                    np.multiply(d_image, sens, out=pixels)
                    if joint:
                        op._coefficient_forward(image, d_row, back, pixels)
                    op._forward(pixels, spectrum, residual)
                    try:
                        alpha = sdk_step_size(_view_norm(*d_views), _view_norm(residual_f64))
                    except SingularStepError as exc:
                        raise SingularStepError(
                            f"{exc} at step {k} (receiver {i})", trace=rec.build(None)
                        ) from None
                _update(state, direction, scratch, alpha)
                if joint:
                    d_row.fill(0)
            rec.add(omega, alpha, rnorm, error)
            if omega and _einsum("i,i->", state_f64, zero) != 0.0:
                raise NumericalFailure(
                    f"non-finite iterate at step {k} (receiver {i})",
                    trace=rec.build(None),
                )
            cycle_max_residual = max(cycle_max_residual, rnorm)
            k += 1
        if not cycle_any_active:
            k_star = cycle * r_num
            reason = STOPPING_RULE
            break
        if all_exact and cycle_max_residual <= EXACT_DATA_RTOL * initial_max_residual:
            reason = EXACT_DATA_TOLERANCE
            break
    trace = rec.build(k_star)
    # A stop by the rule ends on a cycle whose steps all loped, which left the iterate
    # as it was: its trace residuals are the final ones.
    final_residuals = trace.last_residuals if reason == STOPPING_RULE else sweep()
    bounds = [tau * d for d in deltas]
    # Nothing writes to the state once the run is over: the result's blocks are views of it.
    state.flags.writeable = False
    final = _fresh(ComplexImage, x.image.shape if joint else x.shape, image)
    if joint:
        final = _fresh(JointParameter, final, rows)
    ok = all(r <= b for r, b in zip(final_residuals, bounds))
    return SolveResult(final, trace, reason, final_residuals, bounds, ok, metadata)


def run_linear(problem: Problem, config: SolverConfig = SolverConfig(), reference=None) -> SolveResult:
    """Reconstruct the image with known sensitivities.

    For ``method="llk"`` every operator's closed-form
    :attr:`~mrikacz.operators.LinearForward.norm_bound` must be <= 1, so the
    unit-norm hypothesis holds (see :func:`mrikacz.operators.rescale_problem`);
    unscaled operators are rejected.  ``reference`` optionally supplies a known
    solution whose distance to the iterate is recorded in the trace.
    """
    _check_family(problem.operators, LinearForward, "run_linear")
    if config.initial_coefficients is not None:
        raise ConfigurationError("a linear run takes no initial_coefficients")
    x0 = config.initial_image
    if x0 is None:
        x0 = ComplexImage.zero(problem.operators[0].model.grid)
    if not isinstance(x0, ComplexImage):
        raise ConfigurationError("initial_image for a linear run must be a ComplexImage")
    if reference is not None and not isinstance(reference, ComplexImage):
        raise ConfigurationError("reference for a linear run must be a ComplexImage")
    _check_start(problem, x0, reference)
    if config.method == METHOD_LLK:
        for i, op in enumerate(problem.operators):
            if op.norm_bound > 1.0:
                raise ConfigurationError(
                    f"llk requires every operator norm bound <= 1; "
                    f"receiver {i} has norm bound {op.norm_bound:.6g}"
                )
    metadata = {"method": config.method, "tau": config.tau, "space": "image"}
    return _iterate(x0, problem, config, reference, metadata)


def run_joint(problem: Problem, config: SolverConfig = SolverConfig(), reference=None) -> SolveResult:
    """Jointly update image and sensitivity coefficients with lsdk.

    Same loping and stopping mechanics as the linear run, with the adjoint
    of the derivative supplying the direction.  The bilinear forward map
    violates the tangential-cone bound, so no convergence guarantee is
    attached; the result metadata says so.  llk is a linear method and is
    refused with a :class:`~mrikacz.errors.ConfigurationError`.
    """
    if config.method == METHOD_LLK:
        raise ConfigurationError("llk is a linear method; run_joint takes method 'lsdk' only")
    _check_family(problem.operators, JointForward, "run_joint")
    model = problem.operators[0].model
    image0 = config.initial_image
    if image0 is None:
        image0 = ComplexImage.zero(model.grid)
    coeff0 = config.initial_coefficients
    if coeff0 is None:
        coeff0 = np.zeros((problem.r_num, model.b_num), dtype=np.complex128)
        coeff0[:, 0] = 1.0
    x0 = JointParameter(image0, coeff0)
    if reference is not None and not isinstance(reference, JointParameter):
        raise ConfigurationError("reference for a joint run must be a JointParameter")
    _check_start(problem, x0, reference)
    metadata = {
        "method": config.method,
        "tau": config.tau,
        "space": "image+coefficients",
        "guarantee": "experimental: no convergence guarantee",
        "joint_norm": "unweighted direct sum of image and coefficient norms",
    }
    return _iterate(x0, problem, config, reference, metadata)
