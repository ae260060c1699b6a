import math
import tracemalloc

import numpy as np
import pytest

import mrikacz as mk
from mrikacz import grid, operators
from mrikacz.errors import DimensionMismatch

from conftest import (
    deriv_matrix,
    dft_loop,
    joint_pack,
    op_matrix,
    random_image,
    random_joint,
    random_measurement,
)

SHAPE2 = mk.GridShape(2, 2)
FULL4 = mk.KSpaceMask(SHAPE2, np.arange(4))
UNIT_MODEL = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), [[1.0]])


def two_basis_op(coeff=(1.0, 1.0), scale=1.0):
    basis = (mk.ComplexImage.constant(SHAPE2, 1.0), mk.ComplexImage(SHAPE2, [1, 0, 0, 0]))
    model = mk.SensitivityModel(basis, [list(coeff)])
    return mk.LinearForward(model, FULL4, 0, scale)


def unit_joint_op():
    return mk.JointForward(UNIT_MODEL, FULL4, 0)


class TestApplyLinear:
    def test_constant_image_unit_basis(self, tiny_unit_op):
        out = tiny_unit_op.apply(mk.ComplexImage.constant(SHAPE2, 1.0))
        np.testing.assert_allclose(out.values, [4, 0, 0, 0], atol=1e-14)

    def test_zero_image(self, tiny_unit_op):
        out = tiny_unit_op.apply(mk.ComplexImage.zero(SHAPE2))
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_two_basis_sum_against_loop_oracle(self):
        # sum of the transforms of P*basis_n, P == 1: dft(1,1,1,1) + dft(1,0,0,0)
        expected = dft_loop([1, 1, 1, 1]) + dft_loop([1, 0, 0, 0])
        np.testing.assert_allclose(expected, [5, 1, 1, 1], atol=1e-12)
        out = two_basis_op().apply(mk.ComplexImage.constant(SHAPE2, 1.0))
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_linearity(self, default_instance):
        rng = np.random.default_rng(17)
        op = default_instance.operators[0]
        shape = op.model.grid
        for _ in range(5):
            p, q = random_image(rng, shape), random_image(rng, shape)
            a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            lhs = op.apply(a * p + b * q)
            rhs = a * op.apply(p) + b * op.apply(q)
            assert mk.norm(lhs - rhs) <= 1e-12 * mk.norm(lhs)

    def test_dimension_mismatch(self, tiny_unit_op):
        with pytest.raises(DimensionMismatch):
            tiny_unit_op.apply(mk.ComplexImage(mk.GridShape(2, 1), [1, 2]))


class TestAdjointLinear:
    def test_zero(self, tiny_unit_op):
        out = tiny_unit_op.adjoint(mk.MeasurementVector(FULL4, np.zeros(4)))
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_constant_spectrum(self, tiny_unit_op):
        out = tiny_unit_op.adjoint(mk.MeasurementVector(FULL4, [4, 0, 0, 0]))
        np.testing.assert_allclose(out.values, [4, 4, 4, 4], atol=1e-14)

    def test_matches_conjugate_transpose_oracle(self):
        rng = np.random.default_rng(23)
        op = two_basis_op(coeff=(0.5 + 1j, -2.0), scale=0.7)
        matrix = op_matrix(op)
        g = random_measurement(rng, FULL4)
        expected = matrix.conj().T @ g.values
        np.testing.assert_allclose(op.adjoint(g).values, expected, atol=1e-12)

    def test_dot_product_identity(self, default_instance):
        rng = np.random.default_rng(29)
        for op in default_instance.operators:
            for _ in range(10):
                x = random_image(rng, op.model.grid)
                y = random_measurement(rng, op.mask)
                gap = abs(mk.inner_product(op.apply(x), y) - mk.inner_product(x, op.adjoint(y)))
                assert gap <= 1e-10 * (mk.norm(x) * mk.norm(y) + 1)


@pytest.mark.parametrize("family", [mk.LinearForward, mk.JointForward], ids=["linear", "joint"])
@pytest.mark.parametrize(
    "change,error,message",
    [
        ({"receiver": 1}, IndexError, "out of range"),
        ({"receiver": -1}, IndexError, "out of range"),
        ({"mask": mk.KSpaceMask(mk.GridShape(4, 1), np.arange(4))}, DimensionMismatch, "grids"),
    ],
    ids=["receiver-past-r_num", "negative-receiver", "mask-on-another-grid"],
)
def test_constructor_checks(family, change, error, message):
    fields = {"model": UNIT_MODEL, "mask": FULL4, "receiver": 0, **change}
    with pytest.raises(error, match=message):
        family(**fields)


@pytest.mark.parametrize("joint", [False, True], ids=["linear", "joint"])
def test_adjoint_rejects_data_on_another_mask(tiny_unit_op, joint):
    data = mk.MeasurementVector(mk.KSpaceMask(SHAPE2, [0, 1]), [1, 2])
    x = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[1.0]])
    jop = mk.joint_from_linear(tiny_unit_op)
    with pytest.raises(DimensionMismatch):
        jop.adjoint_derivative(x, data) if joint else tiny_unit_op.adjoint(data)


def test_linear_derivative_calls_are_the_operator_calls(default_instance):
    rng = np.random.default_rng(43)
    op = default_instance.operators[1]
    x, dx = random_image(rng, op.model.grid), random_image(rng, op.model.grid)
    np.testing.assert_array_equal(op.derivative(x, dx).values, op.apply(dx).values)


class TestJointForward:
    def test_scaled_constant(self):
        op = unit_joint_op()
        x = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[2.0]])
        np.testing.assert_allclose(op.apply(x).values, [8, 0, 0, 0], atol=1e-14)

    def test_zero_coefficients(self):
        op = unit_joint_op()
        x = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[0.0]])
        np.testing.assert_array_equal(op.apply(x).values, np.zeros(4))

    def test_agrees_with_frozen_linear_exactly(self, default_instance):
        rng = np.random.default_rng(31)
        shape = default_instance.spec.grid
        coeff = default_instance.model.coefficients
        for lin_op in default_instance.operators:
            jop = mk.joint_from_linear(lin_op)
            for _ in range(3):
                img = random_image(rng, shape)
                x = mk.JointParameter(img, coeff)
                np.testing.assert_array_equal(jop.apply(x).values, lin_op.apply(img).values)


def test_joint_lsdk_run_computes_one_sensitivity_per_step(monkeypatch):
    """r_num for the initial residuals, one S_i(x) per step, S_i(dx) per step size,
    and r_num for the final residuals of a run that did not stop by the rule."""
    problem = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, b_num=2, seed=21)).joint_problem()
    calls = []

    def combine_basis(basis_matrix, coefficients, out=None):
        calls.append(coefficients)
        return grid.combine_basis(basis_matrix, coefficients, out=out)

    monkeypatch.setattr(operators, "combine_basis", combine_basis)
    result = mk.run_joint(problem, mk.SolverConfig(max_cycles=20))
    r_num, n_steps = result.trace.r_num, result.trace.n_steps
    n_active = int(result.trace.omegas.sum())
    assert 0 < n_active < n_steps
    assert result.reason == mk.CYCLE_CAP
    assert len(calls) == r_num + n_steps + n_active + r_num


class TestDerivativeJoint:
    def setup_method(self):
        self.op = unit_joint_op()
        self.x = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[1.0]])

    def test_coefficient_direction(self):
        dx = mk.JointParameter(mk.ComplexImage.zero(SHAPE2), [[1.0]])
        expected = dft_loop([1, 1, 1, 1])
        np.testing.assert_allclose(self.op.derivative(self.x, dx).values, expected, atol=1e-12)

    def test_zero_direction(self):
        dx = mk.JointParameter(mk.ComplexImage.zero(SHAPE2), [[0.0]])
        np.testing.assert_array_equal(self.op.derivative(self.x, dx).values, np.zeros(4))

    def test_central_difference_match(self, default_instance):
        rng = np.random.default_rng(37)
        jop = mk.joint_from_linear(default_instance.operators[1])
        shape = default_instance.spec.grid
        r_num, b_num = default_instance.model.coefficients.shape
        t = 1e-4
        for _ in range(3):
            x = random_joint(rng, shape, r_num, b_num)
            dx = random_joint(rng, shape, r_num, b_num)
            cd = (jop.apply(x + t * dx) - jop.apply(x - t * dx)) * (1.0 / (2 * t))
            assert mk.norm(cd - jop.derivative(x, dx)) <= 1e-6

    def test_taylor_remainder_is_second_order(self, default_instance):
        # The forward map is quadratic, so first-order Taylor remainders
        # shrink exactly 4x per step halving (the second-order diagnostic;
        # central differences are already exact here).
        rng = np.random.default_rng(41)
        jop = mk.joint_from_linear(default_instance.operators[2])
        shape = default_instance.spec.grid
        r_num, b_num = default_instance.model.coefficients.shape
        x = random_joint(rng, shape, r_num, b_num)
        dx = random_joint(rng, shape, r_num, b_num)
        errs = []
        for t in (0.1, 0.05, 0.025, 0.0125):
            rem = jop.apply(x + t * dx) - jop.apply(x) - t * jop.derivative(x, dx)
            errs.append(mk.norm(rem))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios


class TestAdjointDerivativeJoint:
    def setup_method(self):
        self.op = unit_joint_op()
        self.x = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[1.0]])

    def test_zero_data(self):
        out = self.op.adjoint_derivative(self.x, mk.MeasurementVector(FULL4, np.zeros(4)))
        np.testing.assert_array_equal(out.image.values, np.zeros(4))
        np.testing.assert_array_equal(out.coefficients, [[0]])

    def test_coefficient_entry_against_matrix_oracle(self):
        matrix = deriv_matrix(self.op, self.x)
        g = np.array([1, 0, 0, 0], dtype=complex)
        expected = matrix.conj().T @ g
        out = self.op.adjoint_derivative(self.x, mk.MeasurementVector(FULL4, g))
        np.testing.assert_allclose(joint_pack(out), expected, atol=1e-12)
        assert out.coefficients[0, 0] == pytest.approx(4.0)

    def test_dot_product_identity(self, default_instance):
        rng = np.random.default_rng(43)
        shape = default_instance.spec.grid
        r_num, b_num = default_instance.model.coefficients.shape
        for lin_op in default_instance.operators[:2]:
            jop = mk.joint_from_linear(lin_op)
            for _ in range(10):
                x = random_joint(rng, shape, r_num, b_num)
                dx = random_joint(rng, shape, r_num, b_num)
                y = random_measurement(rng, jop.mask)
                lhs = mk.inner_product(jop.derivative(x, dx), y)
                rhs = mk.inner_product(dx, jop.adjoint_derivative(x, y))
                assert abs(lhs - rhs) <= 1e-10 * (mk.norm(dx) * mk.norm(y) + 1)


def test_non_unit_scale_matches_the_dense_oracle():
    """A scale other than 1 multiplies ``apply``, ``adjoint`` and ``adjoint_derivative``."""
    rng = np.random.default_rng(53)
    op = two_basis_op(coeff=(0.5 + 1j, -2.0), scale=2.0)
    matrix = op_matrix(op)
    x, g = random_image(rng, SHAPE2), random_measurement(rng, FULL4)
    np.testing.assert_allclose(op.apply(x).values, matrix @ x.values, atol=1e-12)
    np.testing.assert_allclose(op.adjoint(g).values, matrix.conj().T @ g.values, atol=1e-12)
    # At (x, coefficients) the joint image block is the linear adjoint, and coefficient n
    # pairs g with the column of that coefficient: basis image n alone, applied to x.
    out = mk.joint_from_linear(op).adjoint_derivative(mk.JointParameter(x, op.model.coefficients), g)
    columns = [op_matrix(two_basis_op(coeff=e, scale=2.0)) @ x.values for e in np.eye(2)]
    np.testing.assert_allclose(out.image.values, matrix.conj().T @ g.values, atol=1e-12)
    np.testing.assert_allclose(out.coefficients, [[np.vdot(c, g.values) for c in columns]], atol=1e-12)


@pytest.mark.parametrize("joint", [False, True])
def test_unit_scale_skip_gives_the_run_of_an_explicit_product(monkeypatch, default_instance, joint):
    """Skipping ``* 1.0`` leaves every array a solve produces bit-identical to
    multiplying by it: iterate, residual norms and step sizes."""
    problem = default_instance.joint_problem() if joint else default_instance.linear_problem()
    run = mk.run_joint if joint else mk.run_linear
    config = mk.SolverConfig(max_cycles=4)
    skipped = run(problem, config)
    monkeypatch.setattr(operators, "_scale", lambda values, scale: np.multiply(values, scale, out=values))
    multiplied = run(problem, config)
    final = [skipped.final, multiplied.final]
    pairs = [(skipped.trace.residuals, multiplied.trace.residuals), (skipped.trace.alphas, multiplied.trace.alphas)]
    if joint:
        pairs += [(f.image.values for f in final), (f.coefficients for f in final)]
    else:
        pairs.append(tuple(f.values for f in final))
    for got, want in pairs:
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestEstimateNorm:
    def test_unit_basis_full_mask_is_sqrt_p(self, tiny_unit_op):
        # The operator matrix is the 4-point DFT matrix; its largest singular
        # value from a dense SVD pins the expected value.
        sigma = np.linalg.svd(op_matrix(tiny_unit_op), compute_uv=False)[0]
        assert sigma == pytest.approx(2.0, abs=1e-12)
        assert mk.estimate_norm(tiny_unit_op) == pytest.approx(2.0, rel=1e-6)

    def test_matches_svd_on_random_operator(self):
        op = two_basis_op(coeff=(0.3 - 0.8j, 1.1), scale=0.9)
        sigma = np.linalg.svd(op_matrix(op), compute_uv=False)[0]
        assert mk.estimate_norm(op) == pytest.approx(sigma, rel=1e-5)

    def test_zero_operator(self, tiny_unit_op):
        assert mk.estimate_norm(tiny_unit_op.with_scale(0.0)) == 0.0

    def test_deterministic(self, default_instance):
        op = default_instance.operators[0]
        assert mk.estimate_norm(op) == mk.estimate_norm(op)


class TestNormBound:
    def test_linear_bound_covers_svd(self, tiny_unit_op, default_instance):
        # On a full mask F / sqrt(p_num) is unitary, so the bound is the norm
        # and only the dense SVD's rounding separates them.
        for op in (tiny_unit_op, two_basis_op(coeff=(0.3 - 0.8j, 1.1), scale=0.9)):
            sigma = np.linalg.svd(op_matrix(op), compute_uv=False)[0]
            assert sigma == pytest.approx(op.norm_bound, rel=1e-12)
        assert tiny_unit_op.norm_bound == 2.0
        for op in default_instance.operators[:2]:
            sigma = np.linalg.svd(op_matrix(op), compute_uv=False)[0]
            assert sigma <= op.norm_bound

    def test_derivative_norm_zero_at_origin(self):
        op = unit_joint_op()
        x0 = mk.JointParameter.zero(SHAPE2, 1, 1)
        assert op.derivative_norm_bound(x0) == 0.0

    def test_derivative_norm_bound_covers_svd(self):
        op = unit_joint_op()
        x = mk.JointParameter(mk.ComplexImage(SHAPE2, [1, 1j, -1, 0.5]), [[0.4 + 0.2j]])
        # A full mask and one constant basis image make the bound tight here.
        sigma = np.linalg.svd(deriv_matrix(op, x), compute_uv=False)[0]
        assert sigma == pytest.approx(op.derivative_norm_bound(x), rel=1e-12)

    def test_derivative_norm_bounded_on_ball(self, default_instance):
        # At sampled points of a ball the bound stays finite and covers the
        # dense Jacobian's largest singular value.
        rng = np.random.default_rng(47)
        jop = mk.joint_from_linear(default_instance.operators[0])
        shape = default_instance.spec.grid
        r_num, b_num = default_instance.model.coefficients.shape
        center = random_joint(rng, shape, r_num, b_num)
        for _ in range(3):
            probe = random_joint(rng, shape, r_num, b_num)
            point = center + probe * (1.0 / mk.norm(probe))
            bound = jop.derivative_norm_bound(point)
            sigma = np.linalg.svd(deriv_matrix(jop, point), compute_uv=False)[0]
            assert np.isfinite(bound) and 0 < sigma <= bound

    def test_column_norms_are_computed_once_per_model_with_the_same_bound(self, default_instance):
        """The bound's bits are those of its formula with colnorm(B) = ``np.linalg.norm(B, axis=0)``."""
        rng = np.random.default_rng(53)
        model = default_instance.model
        ops = [mk.JointForward(model, default_instance.mask, i) for i in range(model.r_num)]
        points = [random_joint(rng, model.grid, *model.coefficients.shape) for _ in range(3)]
        colnorms = np.linalg.norm(model.basis_matrix, axis=0)
        want = [
            op._transform_bound
            * math.hypot(
                float(np.abs(op._sensitivity(x.coefficients)).max()),
                grid.array_norm(x.image.values * colnorms),
            )
            for op in ops
            for x in points
        ]
        got = [op.derivative_norm_bound(x) for op in ops for x in points]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRescale:
    def test_norm_two_operator(self, tiny_unit_op):
        ops, report = mk.rescale_to_unit([tiny_unit_op])
        assert report.pre_norms[0] == pytest.approx(2.0, rel=1e-6)
        assert report.scales[0] == pytest.approx(0.5, rel=1e-6)
        assert report.post_norms[0] == pytest.approx(1.0, rel=1e-6)
        assert report.post_norms[0] <= 1 + 1e-6

    def test_already_unit_operator(self, tiny_unit_op):
        ops, _ = mk.rescale_to_unit([tiny_unit_op])
        _, report = mk.rescale_to_unit(ops)
        assert report.scales[0] == pytest.approx(1.0, rel=1e-6)

    def test_zero_operator_flagged(self, tiny_unit_op):
        _, report = mk.rescale_to_unit([tiny_unit_op.with_scale(0.0)])
        assert report.zero_norm_receivers == (0,)
        assert report.scales[0] == 1.0

    def test_rescale_problem_preserves_solution(self, default_instance):
        problem = default_instance.linear_problem()
        scaled, report = mk.rescale_problem(problem)
        truth = default_instance.truth.image
        for i, op in enumerate(scaled.operators):
            exact_scaled = default_instance.truth.exact.vectors[i] * report.scales[i]
            assert mk.norm(op.apply(truth) - exact_scaled) <= 1e-10
            # noise levels scale with the data
            assert scaled.measurements.deltas[i] == pytest.approx(
                problem.measurements.deltas[i] * report.scales[i]
            )
        assert np.all(report.post_norms <= 1 + 1e-6)


class TestConeProbe:
    def test_scalar_hand_pair_has_ratio_one(self):
        model = mk.ScalarProductModel()
        for t in (0.3, -0.7, 1e-3):
            x = np.array([t, t])
            x_bar = np.zeros(2)
            num = abs(model.apply(x) - model.apply(x_bar) - model.derivative(x, x - x_bar))
            den = abs(model.apply(x) - model.apply(x_bar))
            assert num / den == pytest.approx(1.0, abs=1e-12)

    def test_scalar_model_violates_half_bound(self):
        report = mk.cone_probe(mk.ScalarProductModel(), radius=1.0, samples=200, seed=0)
        assert report.max_ratio >= 1 - 1e-9
        assert report.exceeds_half

    def test_linear_operators_have_zero_ratio(self, default_instance):
        report = mk.cone_probe(list(default_instance.operators), radius=1.0, samples=25, seed=1)
        assert report.max_ratio <= 1e-10
        assert not report.exceeds_half

    def test_joint_operator_flag_true_near_origin(self, default_instance):
        jprob = default_instance.joint_problem()
        center = mk.JointParameter.zero(
            default_instance.spec.grid, default_instance.spec.r_num, default_instance.spec.b_num
        )
        report = mk.cone_probe(list(jprob.operators), center=center, radius=1.0, samples=40, seed=2)
        assert report.exceeds_half

    def test_joint_center_defaults_to_zero_parameter(self, default_instance):
        ops = list(default_instance.joint_problem().operators)
        center = mk.JointParameter.zero(
            default_instance.spec.grid, default_instance.spec.r_num, default_instance.spec.b_num
        )
        explicit = mk.cone_probe(ops, center=center, samples=10, seed=4)
        default = mk.cone_probe(ops, samples=10, seed=4)
        np.testing.assert_array_equal(default.ratios, explicit.ratios)

    def test_sampled_points_are_not_kept(self, default_instance):
        ops = list(default_instance.operators)
        tracemalloc.start()
        try:
            report = mk.cone_probe(ops, radius=1.0, samples=200, seed=1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.samples == 200
        assert held < 2**20

    def test_degenerate_sampling_flag(self, tiny_unit_op):
        report = mk.cone_probe(tiny_unit_op.with_scale(0.0), radius=1.0, samples=5, seed=3)
        assert report.degenerate
        assert report.excluded == 5
        assert np.isnan(report.max_ratio)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            mk.cone_probe(mk.ScalarProductModel(), samples=0)

    def test_determinism(self):
        a = mk.cone_probe(mk.ScalarProductModel(), samples=50, seed=9)
        b = mk.cone_probe(mk.ScalarProductModel(), samples=50, seed=9)
        np.testing.assert_array_equal(a.ratios, b.ratios)
