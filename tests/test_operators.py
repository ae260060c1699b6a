import numpy as np
import pytest

import mrikacz as mk
from mrikacz.errors import DimensionMismatch

from conftest import (
    dft_loop,
    joint_pack,
    joint_unpack,
    linear_matrix,
    random_image,
    random_joint,
    random_measurement,
)

SHAPE2 = mk.GridShape(2, 2)
PLAN4 = mk.DftPlan(4)
FULL4 = mk.KSpaceMask(SHAPE2, np.arange(4))
UNIT_MODEL = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), [[1.0]])


def two_basis_op(coeff=(1.0, 1.0), scale=1.0):
    basis = (mk.ComplexImage.constant(SHAPE2, 1.0), mk.ComplexImage(SHAPE2, [1, 0, 0, 0]))
    model = mk.SensitivityModel(basis, [list(coeff)])
    return mk.LinearForward(model, FULL4, PLAN4, 0, scale)


def unit_joint_op():
    return mk.JointForward(UNIT_MODEL, FULL4, PLAN4, 0)


def op_matrix(op):
    return linear_matrix(
        lambda v: op.apply(mk.ComplexImage(op.model.grid, v)).values, op.model.grid.p_num
    )


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
        ({"plan": mk.DftPlan(8)}, DimensionMismatch, "plan length"),
    ],
    ids=["receiver-past-r_num", "negative-receiver", "mask-on-another-grid", "plan-of-another-length"],
)
def test_constructor_checks(family, change, error, message):
    fields = {"model": UNIT_MODEL, "mask": FULL4, "plan": PLAN4, "receiver": 0, **change}
    with pytest.raises(error, match=message):
        family(**fields)


@pytest.mark.parametrize("joint", [False, True], ids=["linear", "joint"])
def test_adjoint_rejects_data_on_another_mask(tiny_unit_op, joint):
    data = mk.MeasurementVector(mk.KSpaceMask(SHAPE2, [0, 1]), [1, 2])
    x = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[1.0]])
    jop = mk.joint_from_linear(tiny_unit_op)
    with pytest.raises(DimensionMismatch):
        jop.adjoint_derivative(x, data) if joint else tiny_unit_op.adjoint(data)


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

    def deriv_matrix(self, op, x, r_num, b_num):
        dim = x.image.shape.p_num + r_num * b_num

        def apply_packed(vec):
            dx = joint_unpack(vec, x.image.shape, r_num, b_num)
            return op.derivative(x, dx).values

        return linear_matrix(apply_packed, dim)

    def test_coefficient_entry_against_matrix_oracle(self):
        matrix = self.deriv_matrix(self.op, self.x, 1, 1)
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

    def test_derivative_norm_zero_at_origin(self):
        op = unit_joint_op()
        x0 = mk.JointParameter.zero(SHAPE2, 1, 1)
        assert mk.estimate_derivative_norm(op, x0) == 0.0

    def test_derivative_norm_matches_svd(self):
        op = unit_joint_op()
        x = mk.JointParameter(mk.ComplexImage(SHAPE2, [1, 1j, -1, 0.5]), [[0.4 + 0.2j]])
        helper = TestAdjointDerivativeJoint()
        sigma = np.linalg.svd(helper.deriv_matrix(op, x, 1, 1), compute_uv=False)[0]
        assert mk.estimate_derivative_norm(op, x) == pytest.approx(sigma, rel=1e-5)

    def test_derivative_norm_bounded_on_ball(self, default_instance):
        # Local boundedness probe: derivative norms at sampled points of a
        # ball stay finite and under a crude global bound for the ball.
        rng = np.random.default_rng(47)
        jop = mk.joint_from_linear(default_instance.operators[0])
        shape = default_instance.spec.grid
        r_num, b_num = default_instance.model.coefficients.shape
        center = random_joint(rng, shape, r_num, b_num)
        for _ in range(3):
            probe = random_joint(rng, shape, r_num, b_num)
            point = center + probe * (1.0 / mk.norm(probe))
            nrm = mk.estimate_derivative_norm(jop, point)
            assert np.isfinite(nrm) and nrm > 0


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
