"""Synthetic ground-truth instances: phantoms, bases, masks, calibrated noise.

Everything is generated from explicit seeds and is bit-reproducible: the
same :class:`InstanceSpec` always yields the same instance.  Noise is drawn
complex-Gaussian per entry and then rescaled so that the distance from the
exact data equals the requested noise level exactly, which makes
discrepancy-threshold behaviour sharp in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import (
    ComplexImage,
    GridShape,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
)
from .operators import LinearForward, Problem, joint_from_linear
from .transform import DftPlan

PHANTOM_FAMILIES = ("constant", "checker", "blobs")
BASIS_FAMILIES = ("constant", "harmonics", "bumps")
MASK_FAMILIES = ("full", "rows", "random")

DELTA_ABSOLUTE = "absolute"
DELTA_RELATIVE = "relative"


def make_phantom(family: str, shape: GridShape, seed=0) -> ComplexImage:
    """Deterministic test image of the given family.

    ``blobs`` sums 3-6 complex-amplitude Gaussian bumps with total modulus
    bounded by 2; ``constant`` and ``checker`` ignore the seed.
    """
    if family == "constant":
        return ComplexImage.constant(shape, 1.0)
    if family == "checker":
        rows, cols = np.indices((shape.p_ver, shape.p_hor))
        return ComplexImage.from_grid((-1.0) ** (rows + cols))
    if family == "blobs":
        rng = np.random.default_rng(seed)
        n_blobs = int(rng.integers(3, 7))
        rows, cols = np.indices((shape.p_ver, shape.p_hor))
        img = np.zeros((shape.p_ver, shape.p_hor), dtype=np.complex128)
        for _ in range(n_blobs):
            c_col = rng.uniform(0, shape.p_hor)
            c_row = rng.uniform(0, shape.p_ver)
            sigma = rng.uniform(0.1, 0.25) * min(shape.p_hor, shape.p_ver)
            amp = rng.uniform(0.2, 1.0 / 3.0) * np.exp(2j * np.pi * rng.uniform())
            img += amp * np.exp(-((cols - c_col) ** 2 + (rows - c_row) ** 2) / (2 * sigma**2))
        return ComplexImage.from_grid(img)
    raise ConfigurationError(f"unknown phantom family {family!r}")


def _harmonic_order(p_hor: int, p_ver: int):
    # Signed frequencies aliased to the symmetric range, lowest first,
    # zero mode in front; the order is a fixed contract.
    modes = []
    for kx in range(p_hor):
        sx = kx if kx <= p_hor // 2 else kx - p_hor
        for ky in range(p_ver):
            sy = ky if ky <= p_ver // 2 else ky - p_ver
            modes.append((sx, sy))
    modes.sort(key=lambda m: (abs(m[0]) + abs(m[1]), max(abs(m[0]), abs(m[1])), m[0], m[1]))
    return modes


def make_basis(family: str, b_num: int, shape: GridShape) -> tuple[ComplexImage, ...]:
    """Deterministic sensitivity basis of the given family."""
    if b_num < 1:
        raise ConfigurationError("b_num must be >= 1")
    if family == "constant":
        if b_num != 1:
            raise ConfigurationError("the constant basis family only supports b_num = 1")
        return (ComplexImage.constant(shape, 1.0),)
    if family == "harmonics":
        if b_num > shape.p_num:
            raise ConfigurationError(
                f"cannot form {b_num} distinct harmonics on a {shape.p_num}-pixel grid"
            )
        rows, cols = np.indices((shape.p_ver, shape.p_hor))
        out = []
        for sx, sy in _harmonic_order(shape.p_hor, shape.p_ver)[:b_num]:
            phase = 2j * np.pi * (sx * cols / shape.p_hor + sy * rows / shape.p_ver)
            out.append(ComplexImage.from_grid(np.exp(phase)))
        return tuple(out)
    if family == "bumps":
        gx = math.ceil(math.sqrt(b_num))
        gy = math.ceil(b_num / gx)
        rows, cols = np.indices((shape.p_ver, shape.p_hor))
        sigma_x = shape.p_hor / (2 * gx)
        sigma_y = shape.p_ver / (2 * gy)
        out = []
        for v in range(gy):
            for u in range(gx):
                if len(out) == b_num:
                    break
                c_col = min(int((u + 0.5) * shape.p_hor / gx), shape.p_hor - 1)
                c_row = min(int((v + 0.5) * shape.p_ver / gy), shape.p_ver - 1)
                bump = np.exp(
                    -((cols - c_col) ** 2) / (2 * sigma_x**2)
                    - ((rows - c_row) ** 2) / (2 * sigma_y**2)
                )
                out.append(ComplexImage.from_grid(bump))
        return tuple(out)
    raise ConfigurationError(f"unknown basis family {family!r}")


def make_mask(
    family: str,
    shape: GridShape,
    p_proj: int | None = None,
    fraction: float | None = None,
    seed=0,
) -> KSpaceMask:
    """Measured k-space subset.

    ``full`` takes everything; ``rows`` keeps the first ceil(fraction *
    p_ver) whole grid rows of flat indices (a cartoon of phase-encode
    subsampling); ``random`` draws uniformly without replacement.  Exactly
    one of ``p_proj`` / ``fraction`` applies to the latter two families.
    """
    p_num = shape.p_num
    if family == "full":
        return KSpaceMask(shape, np.arange(p_num))
    if p_proj is None and fraction is None:
        raise ConfigurationError(f"mask family {family!r} needs p_proj or fraction")
    if family == "rows":
        if fraction is None:
            fraction = p_proj / p_num
        n_rows = min(math.ceil(fraction * shape.p_ver), shape.p_ver)
        if n_rows < 1:
            raise ConfigurationError("row mask must keep at least one row")
        return KSpaceMask(shape, np.arange(n_rows * shape.p_hor))
    if family == "random":
        if p_proj is None:
            p_proj = int(round(fraction * p_num))
        if not (1 <= p_proj <= p_num):
            raise ConfigurationError(f"p_proj must be in [1, {p_num}], got {p_proj}")
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(p_num, size=p_proj, replace=False))
        return KSpaceMask(shape, indices)
    raise ConfigurationError(f"unknown mask family {family!r}")


@dataclass(frozen=True)
class InstanceSpec:
    """Everything needed to regenerate a synthetic instance bit-for-bit.

    ``deltas`` may be a single float (shared by all receivers) or one value
    per receiver; ``delta_mode="relative"`` interprets them as fractions of
    each receiver's exact data norm.
    """

    p_hor: int = 32
    p_ver: int = 32
    r_num: int = 4
    basis_family: str = "harmonics"
    b_num: int = 4
    mask_family: str = "random"
    mask_fraction: float | None = 0.5
    p_proj: int | None = None
    phantom_family: str = "blobs"
    deltas: tuple = 0.05
    delta_mode: str = DELTA_RELATIVE
    seed: int = 0

    def __post_init__(self):
        if self.r_num < 1:
            raise ConfigurationError("r_num must be >= 1")
        if self.delta_mode not in (DELTA_ABSOLUTE, DELTA_RELATIVE):
            raise ConfigurationError(f"unknown delta_mode {self.delta_mode!r}")
        deltas = self.deltas
        if np.isscalar(deltas):
            deltas = (float(deltas),) * self.r_num
        else:
            deltas = tuple(float(d) for d in deltas)
        if len(deltas) != self.r_num:
            raise ConfigurationError(
                f"got {len(deltas)} noise levels for {self.r_num} receivers"
            )
        if any(d < 0 for d in deltas):
            raise ConfigurationError("noise levels must be >= 0")
        object.__setattr__(self, "deltas", deltas)

    @property
    def grid(self) -> GridShape:
        return GridShape(p_hor=self.p_hor, p_ver=self.p_ver)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact solution, exact data, and the ball the convergence tests use."""

    image: ComplexImage
    coefficients: np.ndarray
    exact: MeasurementSet
    rho: float
    initial_image: ComplexImage


@dataclass(frozen=True, eq=False)
class Instance:
    """A fully materialized synthetic reconstruction problem."""

    spec: InstanceSpec
    truth: GroundTruth
    model: SensitivityModel
    mask: KSpaceMask
    operators: tuple[LinearForward, ...]
    measurements: MeasurementSet

    @property
    def plan(self):
        return self.operators[0].plan

    def linear_problem(self) -> Problem:
        return Problem(self.operators, self.measurements)

    def joint_problem(self) -> Problem:
        return Problem(tuple(map(joint_from_linear, self.operators)), self.measurements)


def calibrated_noise(exact: MeasurementSet, deltas, seed=0) -> MeasurementSet:
    """Perturb exact data so each receiver's noise norm equals delta_i exactly.

    delta_i = 0 leaves that receiver's data bit-identical.
    """
    rng = np.random.default_rng(seed)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1)
    if deltas.size != exact.r_num:
        raise ConfigurationError("one noise level per receiver required")
    vectors = []
    for vec, delta in zip(exact.vectors, deltas):
        if delta == 0.0:
            vectors.append(vec)
            continue
        g = rng.standard_normal(vec.values.size) + 1j * rng.standard_normal(vec.values.size)
        g *= delta / np.linalg.norm(g)
        vectors.append(MeasurementVector(vec.mask, vec.values + g))
    return MeasurementSet(tuple(vectors), deltas)


def synthesize(spec: InstanceSpec) -> Instance:
    """Build ground truth, operators and noisy data from a spec.

    The exact data is produced by the same forward operators the solvers
    use, so the ground-truth image solves every receiver equation to
    machine precision by construction.
    """
    seed_phantom, seed_mask, seed_coeff, seed_noise = np.random.SeedSequence(spec.seed).spawn(4)
    shape = spec.grid
    image = make_phantom(spec.phantom_family, shape, seed_phantom)
    basis = make_basis(spec.basis_family, spec.b_num, shape)
    mask = make_mask(spec.mask_family, shape, p_proj=spec.p_proj, fraction=spec.mask_fraction, seed=seed_mask)
    plan = DftPlan(shape.p_num)

    rng = np.random.default_rng(seed_coeff)
    coeff = rng.standard_normal((spec.r_num, spec.b_num)) + 1j * rng.standard_normal(
        (spec.r_num, spec.b_num)
    )
    # Unit coefficient rows pin the bilinear scaling ambiguity
    # (c * image, coeff / c) of the joint problem.
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    model = SensitivityModel(basis, coeff)

    operators = tuple(LinearForward(model, mask, plan, i) for i in range(spec.r_num))
    exact_vectors = tuple(op.apply(image) for op in operators)
    exact = MeasurementSet(exact_vectors, np.zeros(spec.r_num))

    deltas = np.asarray(spec.deltas, dtype=np.float64)
    if spec.delta_mode == DELTA_RELATIVE:
        deltas = deltas * np.array([np.linalg.norm(v.values) for v in exact_vectors])
    noisy = calibrated_noise(exact, deltas, seed_noise)

    initial = ComplexImage.zero(shape)
    distance = float(np.linalg.norm(image.values - initial.values))
    rho = 2.0 * distance if distance > 0 else 1.0
    truth = GroundTruth(image=image, coefficients=model.coefficients, exact=exact, rho=rho, initial_image=initial)
    return Instance(spec=spec, truth=truth, model=model, mask=mask, operators=operators, measurements=noisy)


def noise_sequence(instance: Instance, base_fraction: float = 0.1, count: int = 5, seed=0):
    """Measurement sets with per-receiver noise base * 2^-m, m = 0..count-1.

    All sets share the instance's ground truth; noise levels are fractions
    of each receiver's exact data norm and are hit exactly.
    """
    exact = instance.truth.exact
    norms = np.array([np.linalg.norm(v.values) for v in exact.vectors])
    seeds = np.random.SeedSequence(seed).spawn(count)
    return [
        calibrated_noise(exact, base_fraction * 0.5**m * norms, seeds[m]) for m in range(count)
    ]
