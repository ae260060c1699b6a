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
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grid import (
    ComplexImage,
    GridShape,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
    array_norm,
)
from .operators import LinearForward, Problem, joint_from_linear

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


def _harmonic_order(p_hor: int, p_ver: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed frequencies ``(sx, sy)`` of every harmonic, in basis order.

    Frequencies are aliased to the symmetric range and ordered by
    ``(|sx|+|sy|, max(|sx|,|sy|), sx, sy)``, lowest first, so the zero mode
    leads; the order is a fixed contract.
    """
    kx, ky = np.arange(p_hor), np.arange(p_ver)
    sx = np.where(kx <= p_hor // 2, kx, kx - p_hor)
    sy = np.where(ky <= p_ver // 2, ky, ky - p_ver)
    sx, sy = (a.ravel() for a in np.meshgrid(sx, sy, indexing="ij"))
    ax, ay = np.abs(sx), np.abs(sy)
    order = np.lexsort((sy, sx, np.maximum(ax, ay), ax + ay))
    return sx[order], sy[order]


def make_basis(family: str, b_num: int, shape: GridShape) -> tuple[ComplexImage, ...]:
    """Deterministic sensitivity basis of the given family.

    The basis depends only on ``(family, b_num, shape)``: instance
    directories store those three in ``instance.json`` and rely on this
    function to rebuild the basis bit for bit on load.
    """
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
        sx, sy = _harmonic_order(shape.p_hor, shape.p_ver)
        out = []
        for fx, fy in zip(sx[:b_num].tolist(), sy[:b_num].tolist()):
            phase = 2j * np.pi * (fx * cols / shape.p_hor + fy * rows / shape.p_ver)
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


def _mask_size(family: str, shape: GridShape, p_proj: int | None, fraction: float | None) -> int:
    """The number of points :func:`make_mask` measures; ConfigurationError if none fits."""
    if family not in MASK_FAMILIES:
        raise ConfigurationError(f"unknown mask family {family!r}")
    if family == "full":
        return shape.p_num
    if p_proj is None and fraction is None:
        raise ConfigurationError(f"mask family {family!r} needs p_proj or fraction")
    if p_proj is None and not math.isfinite(fraction):
        raise ConfigurationError(f"mask fraction must be finite, got {fraction}")
    if family == "rows":
        n_rows = math.ceil(fraction * shape.p_ver) if p_proj is None else -(-p_proj // shape.p_hor)
        if n_rows < 1:
            raise ConfigurationError("row mask must keep at least one row")
        return min(n_rows, shape.p_ver) * shape.p_hor
    if p_proj is None:
        p_proj = int(round(fraction * shape.p_num))
    if not (1 <= p_proj <= shape.p_num):
        raise ConfigurationError(f"p_proj must be in [1, {shape.p_num}], got {p_proj}")
    return p_proj


def make_mask(
    family: str,
    shape: GridShape,
    p_proj: int | None = None,
    fraction: float | None = None,
    seed=0,
) -> KSpaceMask:
    """Measured k-space subset; :class:`InstanceSpec` checks its size by the same rule.

    ``full`` takes everything; ``rows`` keeps leading whole grid rows of
    flat indices (a cartoon of phase-encode subsampling); ``random`` draws
    uniformly without replacement.  The latter two need ``p_proj`` or
    ``fraction``, and ``p_proj`` wins when both are set: ``rows`` keeps
    ceil(p_proj / p_hor) rows, else ceil(fraction * p_ver), at least one and
    at most p_ver; ``random`` draws p_proj points, else round(fraction * p_num), 1 to p_num.
    """
    size = _mask_size(family, shape, p_proj, fraction)
    if family != "random":
        return KSpaceMask(shape, np.arange(size))
    rng = np.random.default_rng(seed)
    return KSpaceMask(shape, np.sort(rng.choice(shape.p_num, size=size, replace=False)))


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
        for name in ("p_hor", "p_ver", "r_num", "b_num"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for name, families in (
            ("phantom_family", PHANTOM_FAMILIES),
            ("basis_family", BASIS_FAMILIES),
        ):
            if getattr(self, name) not in families:
                raise ConfigurationError(f"unknown {name} {getattr(self, name)!r}")
        _mask_size(self.mask_family, self.grid, self.p_proj, self.mask_fraction)
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
        if not all(math.isfinite(d) and d >= 0 for d in deltas):
            raise ConfigurationError(f"noise levels must be finite and >= 0, got {list(deltas)}")
        object.__setattr__(self, "deltas", deltas)

    @property
    def grid(self) -> GridShape:
        return GridShape(p_hor=self.p_hor, p_ver=self.p_ver)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The exact image and the receiver operators that map it to its noise-free data.

    :attr:`exact` is derived on first use and kept.  The exact coefficients
    are the instance's ``model.coefficients``.
    """

    image: ComplexImage
    operators: tuple[LinearForward, ...]

    @cached_property
    def exact(self) -> MeasurementSet:
        """The noise-free data of every receiver (:func:`exact_data`)."""
        return exact_data(self.operators, self.image)


@dataclass(frozen=True, eq=False)
class Instance:
    """A fully materialized synthetic reconstruction problem."""

    spec: InstanceSpec
    truth: GroundTruth
    model: SensitivityModel
    mask: KSpaceMask
    operators: tuple[LinearForward, ...]
    measurements: MeasurementSet

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
        g *= delta / array_norm(g)
        vectors.append(MeasurementVector(vec.mask, vec.values + g))
    return MeasurementSet(tuple(vectors), deltas)


def exact_data(operators, image: ComplexImage) -> MeasurementSet:
    """Noise-free data of every receiver: each operator applied to ``image``.

    The one definition of exact data, read through :attr:`GroundTruth.exact`
    by instances that :func:`synthesize` makes and
    :func:`mrikacz.io.load_instance` loads.
    """
    return MeasurementSet(tuple(op.apply(image) for op in operators), np.zeros(len(operators)))


def synthesize(spec: InstanceSpec) -> Instance:
    """Build ground truth, operators and noisy data from a spec.

    The exact data is produced by the same forward operators the solvers
    use, so the ground-truth image solves every receiver equation to
    machine precision by construction.
    """
    seed_phantom, seed_mask, seed_coeff, seed_noise = np.random.SeedSequence(spec.seed).spawn(4)
    shape = spec.grid
    image = make_phantom(spec.phantom_family, shape, seed_phantom)
    mask = make_mask(spec.mask_family, shape, p_proj=spec.p_proj, fraction=spec.mask_fraction, seed=seed_mask)

    rng = np.random.default_rng(seed_coeff)
    coeff = rng.standard_normal((spec.r_num, spec.b_num)) + 1j * rng.standard_normal(
        (spec.r_num, spec.b_num)
    )
    # Unit coefficient rows normalise the true coefficients; a joint iterate still moves
    # freely along the orbit (t * image, coeff / t), which leaves every residual unchanged.
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    model = SensitivityModel(make_basis(spec.basis_family, spec.b_num, shape), coeff)

    operators = tuple(LinearForward(model, mask, i) for i in range(spec.r_num))
    truth = GroundTruth(image=image, operators=operators)
    exact = truth.exact

    deltas = np.asarray(spec.deltas, dtype=np.float64)
    if spec.delta_mode == DELTA_RELATIVE:
        deltas = deltas * np.array([array_norm(v.values) for v in exact.vectors])
    noisy = calibrated_noise(exact, deltas, seed_noise)
    return Instance(spec=spec, truth=truth, model=model, mask=mask, operators=operators, measurements=noisy)


def noise_sequence(instance: Instance, base_fraction: float = 0.1, count: int = 5, seed=0):
    """Measurement sets with per-receiver noise base * 2^-m, m = 0..count-1.

    All sets share the instance's ground truth; noise levels are fractions
    of each receiver's exact data norm and are hit exactly.
    """
    exact = instance.truth.exact
    norms = np.array([array_norm(v.values) for v in exact.vectors])
    seeds = np.random.SeedSequence(seed).spawn(count)
    return [
        calibrated_noise(exact, base_fraction * 0.5**m * norms, seeds[m]) for m in range(count)
    ]
