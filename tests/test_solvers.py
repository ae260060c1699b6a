import numpy as np
import pytest

import mrikacz as mk
from mrikacz.errors import ConfigurationError, NumericalFailure, SingularStepError

from conftest import op_matrix, random_image

SHAPE2 = mk.GridShape(2, 2)
PLAN4 = mk.DftPlan(4)
FULL4 = mk.KSpaceMask(SHAPE2, np.arange(4))


def unit_problem(truth_values, deltas=(0.0,), noise_seed=None):
    """Single receiver, constant unit sensitivity, full 2x2 mask."""
    model = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), [[1.0]])
    op = mk.LinearForward(model, FULL4, PLAN4, 0)
    truth = mk.ComplexImage(SHAPE2, truth_values)
    exact = mk.MeasurementSet((op.apply(truth),), np.zeros(1))
    measurements = exact
    if any(d > 0 for d in deltas):
        measurements = mk.calibrated_noise(exact, deltas, seed=noise_seed or 0)
    else:
        measurements = mk.MeasurementSet(exact.vectors, np.asarray(deltas, dtype=float))
    return mk.Problem((op,), measurements), truth


class TestLopingWeight:
    def test_above_threshold(self):
        assert mk.loping_weight(3.0, 2.1, 1.0) == 1

    def test_equality_is_not_strict_excess(self):
        assert mk.loping_weight(2.1, 2.1, 1.0) == 0

    def test_exact_data_never_lopes(self):
        assert mk.loping_weight(1e-300, 2.1, 0.0) == 1


class TestSdkStepSize:
    def test_diagonal_operator_hand_example(self):
        # diag(2, 1), x = (1, 0), y = 0: residual (2, 0), s = A*(r) = (4, 0),
        # alpha = ||s||^2 / ||A s||^2 = 16 / 64.
        matrix = np.diag([2.0, 1.0])
        x = np.array([1.0, 0.0])
        residual = matrix @ x
        s_vals = matrix.conj().T @ residual
        np.testing.assert_array_equal(s_vals, [4, 0])
        shape = mk.GridShape(2, 1)
        s = mk.ComplexImage(shape, s_vals)
        apply = lambda v: mk.ComplexImage(shape, matrix @ v.values)
        assert mk.sdk_step_size(apply, s, mk.norm(s)) == pytest.approx(0.25)

    def test_orthonormal_operator_gives_unit_step(self):
        rng = np.random.default_rng(1)
        model = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), [[1.0]])
        isometry = mk.LinearForward(model, FULL4, PLAN4, 0, scale=0.5)
        for _ in range(5):
            s = random_image(rng, SHAPE2)
            assert mk.sdk_step_size(isometry.apply, s, mk.norm(s)) == pytest.approx(1.0)

    def test_singular_step_raises(self):
        s = mk.ComplexImage(SHAPE2, [1, 0, 0, 0])
        zero_map = lambda v: 0.0 * v
        with pytest.raises(SingularStepError):
            mk.sdk_step_size(zero_map, s, mk.norm(s))


class TestSolverConfig:
    def test_tau_must_exceed_two(self):
        with pytest.raises(ConfigurationError):
            mk.SolverConfig(tau=2.0)

    def test_method_checked(self):
        with pytest.raises(ConfigurationError):
            mk.SolverConfig(method="sirt")

    def test_max_cycles_positive(self):
        with pytest.raises(ConfigurationError):
            mk.SolverConfig(max_cycles=0)

    def test_override_only_for_lsdk(self):
        with pytest.raises(ConfigurationError):
            mk.SolverConfig(method="llk", step_size_override=1.0)


class TestRunLinear:
    def test_starting_at_solution_stops_in_cycle_zero(self):
        problem, truth = unit_problem([1, 1j, -1, -1j], deltas=(0.5,), noise_seed=4)
        config = mk.SolverConfig(method="lsdk", initial_image=truth)
        result = mk.run_linear(problem, config)
        assert result.reason == mk.STOPPING_RULE
        assert result.trace.k_star == 0
        assert np.all(result.trace.omegas == 0)
        np.testing.assert_array_equal(result.final.values, truth.values)

    def test_exact_data_geometric_convergence(self):
        problem, truth = unit_problem([1, 1j, -1, -1j])
        scaled, _ = mk.rescale_problem(problem)
        config = mk.SolverConfig(method="lsdk", max_cycles=200)
        result = mk.run_linear(scaled, config, reference=truth)
        assert mk.norm(result.final - truth) <= 1e-8
        # independent check: the full-mask unit-sensitivity equation is
        # solved by the inverse transform of the data
        direct = mk.dft_inverse(PLAN4, mk.embed(FULL4, problem.measurements.vectors[0]))
        assert mk.norm(result.final - direct) <= 1e-8

    def test_noisy_run_meets_discrepancy_bound(self):
        problem, truth = unit_problem([1, 1j, -1, -1j], deltas=(0.1,), noise_seed=7)
        scaled, report = mk.rescale_problem(problem)
        result = mk.run_linear(scaled, mk.SolverConfig(method="lsdk"))
        assert result.reason == mk.STOPPING_RULE
        delta = scaled.measurements.deltas[0]
        fresh = mk.norm(scaled.operators[0].apply(result.final) - scaled.measurements.vectors[0])
        assert fresh <= 2.1 * delta
        # trace omegas consistent with recorded residuals
        tr = result.trace
        np.testing.assert_array_equal(tr.omegas, (tr.residuals > 2.1 * delta).astype(int))

    def test_llk_check_reads_the_norms_rescaling_measured(self, monkeypatch):
        problem, _ = unit_problem([1, 1j, -1, -1j], deltas=(0.1,), noise_seed=7)
        scaled, report = mk.rescale_problem(problem)
        calls = []
        original = mk.operators.estimate_norm

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mk.operators, "estimate_norm", counted)
        result = mk.run_linear(scaled, mk.SolverConfig(method="llk"))
        assert calls == []
        assert result.reason == mk.STOPPING_RULE
        assert [op.estimated_norm for op in scaled.operators] == list(report.post_norms)

    def test_llk_rejects_unscaled_operators(self):
        problem, _ = unit_problem([1, 1j, -1, -1j], deltas=(0.1,), noise_seed=7)
        with pytest.raises(ConfigurationError):
            mk.run_linear(problem, mk.SolverConfig(method="llk"))

    def test_trace_receiver_pattern_and_kstar_alignment(self, default_instance):
        problem, _ = mk.rescale_problem(default_instance.linear_problem())
        result = mk.run_linear(problem, mk.SolverConfig(method="llk"))
        tr = result.trace
        r_num = problem.r_num
        np.testing.assert_array_equal(tr.receivers, tr.steps % r_num)
        assert result.reason == mk.STOPPING_RULE
        assert tr.k_star % r_num == 0
        # final cycle loped entirely
        assert np.all(tr.omegas[tr.k_star :] == 0)

    def test_stationarity_after_stop(self, default_instance):
        problem, _ = mk.rescale_problem(default_instance.linear_problem())
        result = mk.run_linear(problem, mk.SolverConfig(method="lsdk"))
        assert result.reason == mk.STOPPING_RULE
        restart = mk.run_linear(
            problem, mk.SolverConfig(method="lsdk", initial_image=result.final)
        )
        assert restart.trace.k_star == 0
        assert np.all(restart.trace.omegas == 0)
        np.testing.assert_array_equal(restart.final.values, result.final.values)

    def test_monotone_error_and_ball_confinement(self, default_instance):
        problem, _ = mk.rescale_problem(default_instance.linear_problem())
        truth = default_instance.truth.image
        for method in ("llk", "lsdk"):
            result = mk.run_linear(problem, mk.SolverConfig(method=method), reference=truth)
            errs = result.trace.errors
            assert np.all(np.diff(errs) <= 1e-12 * errs[0])
            assert np.all(errs <= errs[0] * (1 + 1e-12))

    def test_lsdk_step_sizes_have_positive_floor(self, default_instance):
        problem, report = mk.rescale_problem(default_instance.linear_problem())
        result = mk.run_linear(problem, mk.SolverConfig(method="lsdk"))
        tr = result.trace
        active = tr.omegas == 1
        floors = 1.0 / np.asarray(report.post_norms) ** 2 - 1e-9
        assert np.all(tr.alphas[active] >= floors[tr.receivers[active]])

    def test_lsdk_with_forced_unit_step_reproduces_llk(self, default_instance):
        problem, _ = mk.rescale_problem(default_instance.linear_problem())
        llk = mk.run_linear(problem, mk.SolverConfig(method="llk"))
        forced = mk.run_linear(
            problem, mk.SolverConfig(method="lsdk", step_size_override=1.0)
        )
        np.testing.assert_array_equal(llk.final.values, forced.final.values)
        np.testing.assert_array_equal(llk.trace.residuals, forced.trace.residuals)
        np.testing.assert_array_equal(llk.trace.omegas, forced.trace.omegas)
        np.testing.assert_array_equal(llk.trace.alphas, forced.trace.alphas)

    def test_cycle_cap(self):
        problem, _ = unit_problem([1, 1j, -1, -1j])
        scaled, _ = mk.rescale_problem(problem)
        result = mk.run_linear(scaled, mk.SolverConfig(max_cycles=1, exact_data_rtol=0.0))
        assert result.reason == mk.CYCLE_CAP
        assert result.trace.k_star is None
        assert result.trace.n_cycles == 1

    def test_exact_data_tolerance_reason(self):
        problem, _ = unit_problem([1, 1j, -1, -1j])
        scaled, _ = mk.rescale_problem(problem)
        result = mk.run_linear(scaled, mk.SolverConfig(method="llk", max_cycles=500))
        assert result.reason in (mk.EXACT_DATA_TOLERANCE, mk.STOPPING_RULE)
        final_res = mk.norm(
            scaled.operators[0].apply(result.final) - scaled.measurements.vectors[0]
        )
        assert final_res <= 1e-10 * result.metadata["initial_max_residual"]

    def test_eps_stop_compares_iterate_motion(self):
        problem, _ = unit_problem([1, 1j, -1, -1j])
        scaled, _ = mk.rescale_problem(problem)
        config = mk.SolverConfig(method="llk", eps_stop=1e-6, exact_data_rtol=0.0)
        result = mk.run_linear(scaled, config)
        assert result.reason == mk.STOPPING_RULE
        assert result.trace.k_star is not None

    def test_numerical_failure_carries_partial_trace(self):
        problem, _ = unit_problem([1, 1j, -1, -1j], deltas=(0.01,), noise_seed=3)
        config = mk.SolverConfig(method="lsdk", step_size_override=1e308, max_cycles=5)
        with pytest.raises(NumericalFailure) as exc_info, np.errstate(over="ignore"):
            mk.run_linear(problem, config)
        trace = exc_info.value.trace
        assert trace is not None and trace.n_steps >= 1


def frozen_image_joint_problem():
    """2x2 grid, 2 receivers, single constant basis, known image."""
    model = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), np.ones((2, 1)))
    ops = tuple(mk.JointForward(model, FULL4, PLAN4, i) for i in range(2))
    truth = mk.JointParameter(mk.ComplexImage.constant(SHAPE2, 1.0), [[1.0], [2.0]])
    data = mk.MeasurementSet(tuple(op.apply(truth) for op in ops), np.zeros(2))
    return mk.Problem(ops, data), truth


class TestRunJoint:
    def test_starting_at_solution_stops_in_cycle_zero(self):
        problem, truth = frozen_image_joint_problem()
        noisy = mk.calibrated_noise(problem.measurements, [0.3, 0.3], seed=5)
        problem = mk.Problem(problem.operators, noisy)
        config = mk.SolverConfig(
            initial_image=truth.image, initial_coefficients=truth.coefficients
        )
        result = mk.run_joint(problem, config)
        assert result.reason == mk.STOPPING_RULE
        assert result.trace.k_star == 0
        np.testing.assert_array_equal(result.final.image.values, truth.image.values)
        np.testing.assert_array_equal(result.final.coefficients, truth.coefficients)

    def test_frozen_image_instance_matches_least_squares_oracle(self):
        problem, truth = frozen_image_joint_problem()
        config = mk.SolverConfig(
            method="lsdk",
            max_cycles=50,
            exact_data_rtol=0.0,
            initial_image=truth.image,
            initial_coefficients=[[0.5], [0.5]],
        )
        result = mk.run_joint(problem, config)
        per_cycle = result.trace.residuals.reshape(-1, 2).max(axis=1)
        assert np.all(np.diff(per_cycle) <= 1e-12 * per_cycle[0])
        # with the image frozen at truth the problem is linear in the
        # coefficients; dense least squares gives the attainable residual
        column = problem.operators[0].apply(
            mk.JointParameter(truth.image, [[1.0], [1.0]])
        ).values.reshape(-1, 1)
        for i in (0, 1):
            data = problem.measurements.vectors[i].values
            _, lstsq_residual, *_ = np.linalg.lstsq(column, data, rcond=None)
            best = np.sqrt(lstsq_residual[0]) if lstsq_residual.size else 0.0
            fresh = mk.norm(
                problem.operators[i].apply(result.final) - problem.measurements.vectors[i]
            )
            assert fresh <= best + 1e-6

    def test_metadata_labels_experimental(self):
        problem, truth = frozen_image_joint_problem()
        config = mk.SolverConfig(max_cycles=1, initial_image=truth.image)
        result = mk.run_joint(problem, config)
        assert result.metadata["guarantee"] == "experimental: no convergence guarantee"
        assert "direct sum" in result.metadata["joint_norm"]

    def test_llk_rejects_large_initial_derivative_norm(self):
        problem, truth = frozen_image_joint_problem()
        config = mk.SolverConfig(
            method="llk", initial_image=truth.image, initial_coefficients=truth.coefficients
        )
        with pytest.raises(ConfigurationError):
            mk.run_joint(problem, config)

    def test_generic_instance_reduces_residual(self):
        spec = mk.InstanceSpec(
            p_hor=16, p_ver=16, r_num=4, b_num=4, deltas=0.01, seed=7
        )
        instance = mk.synthesize(spec)
        problem = instance.joint_problem()
        result = mk.run_joint(problem, mk.SolverConfig(method="lsdk", max_cycles=300))
        final = max(
            mk.norm(op.apply(result.final) - instance.measurements.vectors[i])
            for i, op in enumerate(problem.operators)
        )
        assert final <= 0.1 * result.metadata["initial_max_residual"]

    @pytest.mark.parametrize("lope_first", [False, True], ids=["step-0", "after-a-loped-step"])
    def test_singular_step_names_the_step_and_carries_the_trace(self, lope_first):
        # Zero image and zero coefficients: the joint derivative there is zero.
        problem = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, b_num=2, seed=21)).joint_problem()
        if lope_first:
            data = problem.measurements
            zero = mk.MeasurementVector(data.mask, np.zeros(data.mask.p_proj))
            problem = mk.Problem(
                problem.operators, mk.MeasurementSet((zero,) + data.vectors[1:], data.deltas)
            )
        config = mk.SolverConfig(initial_coefficients=np.zeros((4, 2)))
        with pytest.raises(SingularStepError) as exc_info:
            mk.run_joint(problem, config)
        step = int(lope_first)
        assert str(exc_info.value) == (
            "steepest-descent step hit a numerically zero curvature term "
            f"at step {step} (receiver {step})"
        )
        trace = exc_info.value.trace
        assert trace is not None and trace.n_steps == step and trace.k_star is None
        np.testing.assert_array_equal(trace.omegas, [0] * step)
        np.testing.assert_array_equal(trace.residuals, [0.0] * step)


@pytest.mark.parametrize(
    "run, build, expected",
    [(mk.run_linear, "joint_problem", "LinearForward"), (mk.run_joint, "linear_problem", "JointForward")],
    ids=["linear-run-given-joint-operators", "joint-run-given-linear-operators"],
)
def test_run_rejects_the_other_operator_family(default_instance, run, build, expected):
    with pytest.raises(ConfigurationError, match=f"needs {expected} operators; receiver 0"):
        run(getattr(default_instance, build)())


def dense_replay(problem, config):
    """The loping Kaczmarz iteration on dense matrices, written from its definition.

    Returns the loping decisions, step sizes and residual norms of every step,
    and the final iterate, for ``eps_stop`` = 0 and noisy data.
    """
    matrices = [op_matrix(op) for op in problem.operators]
    data = [v.values for v in problem.measurements.vectors]
    deltas = problem.measurements.deltas
    x = np.zeros(matrices[0].shape[1], dtype=complex)
    omegas, alphas, residuals = [], [], []
    for _ in range(config.max_cycles):
        any_active = False
        for a, y, delta in zip(matrices, data, deltas):
            r = a @ x - y
            r_norm = np.linalg.norm(r)
            omega = int(r_norm > config.tau * delta)
            alpha = 1.0
            if omega:
                any_active = True
                s = a.conj().T @ r
                if config.method == "lsdk":
                    alpha = np.linalg.norm(s) ** 2 / np.linalg.norm(a @ s) ** 2
                x = x - alpha * s
            omegas.append(omega)
            alphas.append(alpha)
            residuals.append(r_norm)
        if not any_active:
            break
    return np.array(omegas), np.array(alphas), np.array(residuals), x


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mask_family", ["random", "rows"])
@pytest.mark.parametrize("method", ["llk", "lsdk"])
def test_linear_run_matches_dense_replay(method, mask_family, seed):
    spec = mk.InstanceSpec(p_hor=16, p_ver=16, mask_family=mask_family, seed=seed)
    problem = mk.synthesize(spec).linear_problem()
    if method == "llk":
        problem, _ = mk.rescale_problem(problem)
    config = mk.SolverConfig(method=method)
    result = mk.run_linear(problem, config)
    assert result.reason == mk.STOPPING_RULE
    omegas, alphas, residuals, final = dense_replay(problem, config)
    np.testing.assert_array_equal(result.trace.omegas, omegas)
    np.testing.assert_allclose(result.trace.alphas, alphas, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.trace.residuals, residuals, rtol=1e-12, atol=0)
    assert np.linalg.norm(result.final.values - final) <= 1e-12 * np.linalg.norm(final)
