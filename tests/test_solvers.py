import warnings

import numpy as np
import pytest

import mrikacz as mk
from mrikacz.errors import ConfigurationError, DimensionMismatch, NumericalFailure, SingularStepError

from conftest import dft_matrix, joint_pack, op_matrix, random_image

SHAPE2 = mk.GridShape(2, 2)
PLAN4 = mk.DftPlan(4)
FULL4 = mk.KSpaceMask(SHAPE2, np.arange(4))


def unit_problem(truth_values, deltas=(0.0,), noise_seed=None):
    """Single receiver, constant unit sensitivity, full 2x2 mask."""
    model = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), [[1.0]])
    op = mk.LinearForward(model, FULL4, 0)
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
        assert mk.sdk_step_size(np.linalg.norm(s_vals), np.linalg.norm(matrix @ s_vals)) == 0.25

    def test_orthonormal_operator_gives_unit_step(self):
        rng = np.random.default_rng(1)
        model = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), [[1.0]])
        isometry = mk.LinearForward(model, FULL4, 0, scale=0.5)
        for _ in range(5):
            s = random_image(rng, SHAPE2)
            assert mk.sdk_step_size(mk.norm(s), mk.norm(isometry.apply(s))) == pytest.approx(1.0)

    def test_singular_step_raises(self):
        with pytest.raises(SingularStepError):
            mk.sdk_step_size(1.0, 0.0)


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

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None])
    def test_max_cycles_must_be_an_integer(self, value):
        with pytest.raises(ConfigurationError, match="max_cycles must be an integer"):
            mk.SolverConfig(max_cycles=value)

    @pytest.mark.parametrize("value", ["2.5", None, 3 + 0j, True, np.bool_(True)])
    def test_tau_must_be_a_real_number(self, value):
        with pytest.raises(ConfigurationError, match="^tau must be a real number, got "):
            mk.SolverConfig(tau=value)

    def test_max_cycles_accepts_numpy_integers(self):
        assert mk.SolverConfig(max_cycles=np.int64(3)).max_cycles == 3

    @pytest.mark.parametrize("name", ["tau"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400])
    def test_thresholds_must_be_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            mk.SolverConfig(**{name: value})


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
        data = mk.embed(FULL4, problem.measurements.vectors[0]).values
        direct = PLAN4.adjoint_values(data) / PLAN4.p_num
        assert np.linalg.norm(result.final.values - direct) <= 1e-8

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
        assert [op.norm_bound for op in scaled.operators] == list(report.post_norms)

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

    def test_lsdk_with_forced_unit_step_reproduces_llk(self, default_instance, monkeypatch):
        problem, _ = mk.rescale_problem(default_instance.linear_problem())
        llk = mk.run_linear(problem, mk.SolverConfig(method="llk"))
        monkeypatch.setattr(mk.solvers, "sdk_step_size", lambda s_norm, mapped_norm: 1.0)
        forced = mk.run_linear(problem, mk.SolverConfig(method="lsdk"))
        np.testing.assert_array_equal(llk.final.values, forced.final.values)
        np.testing.assert_array_equal(llk.trace.residuals, forced.trace.residuals)
        np.testing.assert_array_equal(llk.trace.omegas, forced.trace.omegas)
        np.testing.assert_array_equal(llk.trace.alphas, forced.trace.alphas)

    def test_cycle_cap(self):
        problem, _ = unit_problem([1, 1j, -1, -1j])
        scaled, _ = mk.rescale_problem(problem)
        result = mk.run_linear(scaled, mk.SolverConfig(max_cycles=1))
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

    def test_numerical_failure_carries_partial_trace(self, monkeypatch):
        problem, _ = unit_problem([1, 1j, -1, -1j], deltas=(0.01,), noise_seed=3)
        monkeypatch.setattr(mk.solvers, "sdk_step_size", lambda s_norm, mapped_norm: 1e308)
        config = mk.SolverConfig(method="lsdk", max_cycles=5)
        with pytest.raises(NumericalFailure) as exc_info, np.errstate(over="ignore"):
            mk.run_linear(problem, config)
        trace = exc_info.value.trace
        assert trace is not None and trace.n_steps >= 1


def frozen_image_joint_problem():
    """2x2 grid, 2 receivers, single constant basis, known image."""
    model = mk.SensitivityModel((mk.ComplexImage.constant(SHAPE2, 1.0),), np.ones((2, 1)))
    ops = tuple(mk.JointForward(model, FULL4, i) for i in range(2))
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

    @pytest.mark.parametrize("prescaled", [False, True], ids=["default-start", "scaled-by-the-x0-bound"])
    def test_llk_is_refused(self, monkeypatch, prescaled):
        """llk is a linear method: run_joint refuses it before any transform, also on
        operators scaled by their derivative bound at the start, whose bound grows along a run."""
        instance = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, b_num=2, deltas=0.05, seed=21))
        problem = instance.joint_problem()
        if prescaled:
            coeff0 = np.zeros((problem.r_num, 2))
            coeff0[:, 0] = 1.0
            x0 = mk.JointParameter(mk.ComplexImage.zero(instance.spec.grid), coeff0)
            scales = [1.0 / (op.derivative_norm_bound(x0) * (1 + 1e-9)) for op in problem.operators]
            ops = tuple(op.with_scale(c) for op, c in zip(problem.operators, scales))
            problem = mk.Problem(ops, problem.measurements.scaled(scales))

        def no_transform(*args, **kwargs):
            raise AssertionError("a transform ran")

        for name in ("forward_values", "adjoint_values"):
            monkeypatch.setattr(mk.DftPlan, name, no_transform)
        message = "^llk is a linear method; run_joint takes method 'lsdk' only$"
        with pytest.raises(ConfigurationError, match=message):
            mk.run_joint(problem, mk.SolverConfig(method="llk"))

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


@pytest.fixture(scope="module")
def instance8():
    """8x8, 4 receivers, 2 basis images: a coefficient block of shape (4, 2)."""
    return mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, b_num=2, seed=21))


OTHER_GRID = mk.GridShape(4, 16)
GRID_MISMATCH = r"grid mismatch: GridShape\(p_hor=8, p_ver=8\) vs GridShape\(p_hor=4, p_ver=16\)"


class TestStartPointChecks:
    """The start point and the reference are checked once, before the first step."""

    @pytest.mark.parametrize("method", ["lsdk"])
    @pytest.mark.parametrize(
        "coefficients, message",
        [
            (np.ones((4, 3)), r"coefficient block \(4, 3\) does not match the model's \(4, 2\)"),
            (np.ones((3, 2)), r"coefficient block \(3, 2\) does not match the model's \(4, 2\)"),
            (np.ones(2), "coefficients must be 2-D, got ndim=1"),
        ],
        ids=["4x3", "3x2", "1-D"],
    )
    def test_joint_start_coefficients(self, instance8, method, coefficients, message):
        config = mk.SolverConfig(method=method, initial_coefficients=coefficients)
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            mk.run_joint(instance8.joint_problem(), config)

    def test_linear_run_takes_no_start_coefficients(self, instance8):
        config = mk.SolverConfig(initial_coefficients=np.ones((9, 9)))
        with pytest.raises(ConfigurationError, match="^a linear run takes no initial_coefficients$"):
            mk.run_linear(instance8.linear_problem(), config)

    @pytest.mark.parametrize(
        "initial",
        [mk.JointParameter.zero(mk.GridShape(8, 8), 4, 2), np.zeros(64, dtype=complex)],
        ids=["joint-parameter", "ndarray"],
    )
    def test_linear_start_must_be_an_image(self, instance8, initial):
        config = mk.SolverConfig(initial_image=initial)
        with pytest.raises(ConfigurationError, match="^initial_image for a linear run must be a ComplexImage$"):
            mk.run_linear(instance8.linear_problem(), config)

    def test_linear_start_image_on_another_grid(self, instance8):
        config = mk.SolverConfig(initial_image=mk.ComplexImage.zero(OTHER_GRID))
        with pytest.raises(DimensionMismatch, match="^image grid does not match the operator$"):
            mk.run_linear(instance8.linear_problem(), config)

    def test_joint_start_image_on_another_grid(self, instance8):
        config = mk.SolverConfig(initial_image=mk.ComplexImage.zero(OTHER_GRID))
        with pytest.raises(DimensionMismatch, match="^parameter image grid does not match the operator$"):
            mk.run_joint(instance8.joint_problem(), config)

    @pytest.mark.parametrize("joint", [False, True], ids=["linear", "joint"])
    def test_nan_start(self, instance8, joint):
        nan = mk.ComplexImage(instance8.spec.grid, np.full(instance8.spec.grid.p_num, np.nan))
        run, problem = (
            (mk.run_joint, instance8.joint_problem()) if joint else (mk.run_linear, instance8.linear_problem())
        )
        with pytest.raises(NumericalFailure) as exc_info:
            run(problem, mk.SolverConfig(initial_image=nan))
        assert str(exc_info.value) == "non-finite residual at step 0 (receiver 0)"
        assert exc_info.value.trace.n_steps == 0

    def test_linear_reference_on_another_grid(self, instance8):
        with pytest.raises(DimensionMismatch, match=f"^{GRID_MISMATCH}$"):
            mk.run_linear(instance8.linear_problem(), reference=mk.ComplexImage.zero(OTHER_GRID))

    @pytest.mark.parametrize(
        "reference, message",
        [
            (mk.JointParameter.zero(mk.GridShape(8, 8), 4, 3), "coefficient blocks differ in shape"),
            (mk.JointParameter.zero(OTHER_GRID, 4, 2), GRID_MISMATCH),
        ],
        ids=["coefficients", "image"],
    )
    def test_joint_reference_layout(self, instance8, reference, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            mk.run_joint(instance8.joint_problem(), reference=reference)


@pytest.fixture(scope="module")
def noisy8():
    """8x8, 5% noise: lsdk, rescaled llk and joint lsdk each stop by the rule within 25 cycles."""
    return mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, b_num=2, deltas=0.05, seed=21))


class TestVerdict:
    """A result carries its final residuals, their bounds tau * delta_i and ``discrepancy_ok``."""

    @pytest.mark.parametrize("kind", ["lsdk", "llk", "joint"])
    @pytest.mark.parametrize(
        "max_cycles, reason", [(10000, mk.STOPPING_RULE), (1, mk.CYCLE_CAP)], ids=["rule", "cap"]
    )
    def test_final_residuals_are_the_fresh_residuals(self, noisy8, kind, max_cycles, reason):
        config = mk.SolverConfig(method="llk" if kind == "llk" else "lsdk", max_cycles=max_cycles)
        if kind == "joint":
            problem = noisy8.joint_problem()
            result = mk.run_joint(problem, config)
        else:
            problem = noisy8.linear_problem()
            if kind == "llk":
                problem, _ = mk.rescale_problem(problem)
            result = mk.run_linear(problem, config)
        assert result.reason == reason
        fresh = [
            mk.norm(op.apply(result.final) - y)
            for op, y in zip(problem.operators, problem.measurements.vectors)
        ]
        assert result.final_residuals == fresh
        assert result.tau_delta_bounds == [config.tau * float(d) for d in problem.measurements.deltas]
        assert result.discrepancy_ok is (reason == mk.STOPPING_RULE)

    def test_exact_data_stop_sweeps_the_final_iterate(self):
        problem = mk.synthesize(mk.InstanceSpec(p_hor=4, p_ver=4, deltas=0.0, seed=21)).linear_problem()
        result = mk.run_linear(problem)
        assert result.reason == mk.EXACT_DATA_TOLERANCE
        fresh = [
            mk.norm(op.apply(result.final) - y)
            for op, y in zip(problem.operators, problem.measurements.vectors)
        ]
        assert result.final_residuals == fresh
        assert result.tau_delta_bounds == [0.0] * problem.r_num
        assert not result.discrepancy_ok  # a residual of 1e-11 is not within a zero bound

    def test_last_residuals_are_each_receivers_latest(self):
        def trace(n_steps):
            return mk.IterationTrace(
                omegas=np.ones(n_steps, dtype=np.int64),
                alphas=np.ones(n_steps),
                residuals=np.arange(n_steps, dtype=np.float64),
                errors=None,
                k_star=None,
                r_num=4,
            )

        assert trace(0).last_residuals == [None] * 4
        assert trace(2).last_residuals == [0.0, 1.0, None, None]
        assert trace(6).last_residuals == [4.0, 5.0, 2.0, 3.0]
        assert trace(8).last_residuals == [4.0, 5.0, 6.0, 7.0]


def value_arrays(value):
    if isinstance(value, mk.JointParameter):
        return [value.image.values, value.coefficients]
    return [value.values]


def problem_arrays(problem):
    data = problem.measurements
    out = [v.values for v in data.vectors] + [data.deltas]
    for op in problem.operators:
        out += [op.model.basis_matrix, op.model.coefficients, op.mask.indices]
        if isinstance(op, mk.LinearForward):
            out.append(op.sensitivity.values)
    return out


@pytest.mark.parametrize("kind", ["linear", "joint", "llk-scaled"])
def test_runs_share_no_memory_and_leave_the_problem_unchanged(instance8, kind):
    """No working array of a run escapes into its result, the start point or the problem,
    and a joint result's image and coefficients, cut from one state array, do not overlap."""
    grid = instance8.spec.grid
    rng = np.random.default_rng(8)
    x0 = random_image(rng, grid)
    coeff0 = np.asarray(instance8.model.coefficients) * 0.5
    config = mk.SolverConfig(
        method="llk" if kind == "llk-scaled" else "lsdk",
        max_cycles=5,
        initial_image=x0,
        initial_coefficients=coeff0 if kind == "joint" else None,
    )
    if kind == "joint":
        problem = instance8.joint_problem()
        run = mk.run_joint
    else:
        problem = instance8.linear_problem()
        if kind == "llk-scaled":
            problem, report = mk.rescale_problem(problem)
            assert np.all(report.scales != 1.0)
        run = mk.run_linear
    before = [a.copy() for a in problem_arrays(problem)]
    first, second = run(problem, config), run(problem, config)
    assert int(first.trace.omegas.sum()) > 0
    for a, b in zip(problem_arrays(problem), before):
        assert a.tobytes() == b.tobytes()
    inputs = problem_arrays(problem) + value_arrays(x0) + [coeff0]
    trace_arrays = [first.trace.omegas, first.trace.alphas, first.trace.residuals]
    outs = value_arrays(first.final)
    for j, out in enumerate(outs):
        assert not out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in inputs + trace_arrays)
        assert not any(np.shares_memory(out, a) for a in value_arrays(second.final))
        assert not any(np.shares_memory(out, a) for a in outs[j + 1:])
    np.testing.assert_array_equal(first.trace.residuals, second.trace.residuals)
    for a, b in zip(value_arrays(first.final), value_arrays(second.final)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "kind, entry, value",
    [("linear", 5, np.inf), ("joint", 5, np.nan), ("joint", 64 + 3, complex(-np.inf, 0.0))],
    ids=["linear-image-inf", "joint-image-nan", "joint-coefficient-inf"],
)
def test_non_finite_iterate_names_its_step_without_a_warning(monkeypatch, instance8, kind, entry, value):
    """An update that leaves a non-finite entry anywhere in the iterate, whose flat
    state holds the image and then the coefficients, ends the run with a named
    failure and the partial trace; the check itself raises no floating-point warning."""
    update, alphas = mk.solvers._update, []

    def poisoned(state, direction, scratch, alpha):
        update(state, direction, scratch, alpha)
        alphas.append(alpha)
        if len(alphas) == 3:
            state[entry] = value

    monkeypatch.setattr(mk.solvers, "_update", poisoned)
    run, problem = (
        (mk.run_joint, instance8.joint_problem()) if kind == "joint" else (mk.run_linear, instance8.linear_problem())
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as exc_info:
            run(problem, mk.SolverConfig(max_cycles=5))
    trace = exc_info.value.trace
    k = trace.n_steps - 1
    assert str(exc_info.value) == f"non-finite iterate at step {k} (receiver {k % trace.r_num})"
    assert trace.omegas[-1] == 1 and int(trace.omegas.sum()) == 3
    np.testing.assert_array_equal(trace.alphas[trace.omegas == 1], alphas)


@pytest.mark.parametrize(
    "run, build, expected",
    [
        (mk.run_linear, "joint_problem", "LinearForward"),
        (mk.run_joint, "linear_problem", "JointForward"),
        (mk.rescale_problem, "joint_problem", "LinearForward"),
    ],
    ids=["linear-run-given-joint-operators", "joint-run-given-linear-operators", "rescaling-joint-operators"],
)
def test_run_rejects_the_other_operator_family(default_instance, run, build, expected):
    with pytest.raises(ConfigurationError, match=f"needs {expected} operators; receiver 0"):
        run(getattr(default_instance, build)())


def dense_replay(problem, config, jacobian, x, degree=1):
    """The loping Kaczmarz iteration on dense matrices, written from its definition.

    ``jacobian(op, x)`` is receiver ``op``'s Jacobian matrix at ``x`` and
    F_i(x) = J_i(x) x / ``degree`` (Euler's identity: a linear map has degree
    1, a bilinear one degree 2).  Returns the loping decisions, step sizes and
    residual norms of every step, and the final iterate, for noisy data: the
    run stops at the first cycle whose steps all loped.
    """
    data = [v.values for v in problem.measurements.vectors]
    deltas = problem.measurements.deltas
    omegas, alphas, residuals = [], [], []
    for _ in range(config.max_cycles):
        any_active = False
        for op, y, delta in zip(problem.operators, data, deltas):
            a = jacobian(op, x)
            r = a @ x / degree - y
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
    matrices = {op.receiver: op_matrix(op) for op in problem.operators}
    x0 = np.zeros(spec.grid.p_num, dtype=complex)
    omegas, alphas, residuals, final = dense_replay(
        problem, config, lambda op, x: matrices[op.receiver], x0
    )
    np.testing.assert_array_equal(result.trace.omegas, omegas)
    np.testing.assert_allclose(result.trace.alphas, alphas, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.trace.residuals, residuals, rtol=1e-12, atol=0)
    assert np.linalg.norm(result.final.values - final) <= 1e-12 * np.linalg.norm(final)


def joint_jacobian(op, x):
    """Dense Jacobian of a ``JointForward`` at the packed point ``x`` = (P, c).

    Columns of the image block: scale * DFT rows at the mask * diag(S_i);
    columns of receiver i's coefficients: the same rows * diag(P) * B^T;
    every other receiver's columns are zero.  S_i is summed here from the
    basis images and the coefficients in ``x``, so neither the operator nor
    the transform is evaluated.
    """
    model = op.model
    p_num, (r_num, b_num) = model.grid.p_num, model.coefficients.shape
    basis = np.stack([b.values for b in model.basis])
    image, coefficients = x[:p_num], x[p_num:].reshape(r_num, b_num)
    sensitivity = sum(c * b for c, b in zip(coefficients[op.receiver], basis))
    rows = op.scale * dft_matrix(p_num, op.mask.indices)
    jac = np.zeros((op.mask.p_proj, p_num + r_num * b_num), dtype=complex)
    jac[:, :p_num] = rows * sensitivity
    start = p_num + op.receiver * b_num
    jac[:, start : start + b_num] = (rows * image) @ basis.T
    return jac


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_joint_run_matches_dense_replay(seed):
    spec = mk.InstanceSpec(
        p_hor=8, p_ver=8, r_num=2, b_num=2, mask_family="random", deltas=0.01, seed=seed
    )
    problem = mk.synthesize(spec).joint_problem()
    config = mk.SolverConfig(method="lsdk", max_cycles=30)
    result = mk.run_joint(problem, config)
    coefficients = np.zeros((spec.r_num, spec.b_num), dtype=complex)
    coefficients[:, 0] = 1.0
    x0 = np.concatenate([np.zeros(spec.grid.p_num, dtype=complex), coefficients.ravel()])
    omegas, alphas, residuals, final = dense_replay(problem, config, joint_jacobian, x0, degree=2)
    assert int(omegas.sum()) > 0
    np.testing.assert_array_equal(result.trace.omegas, omegas)
    np.testing.assert_allclose(result.trace.alphas, alphas, rtol=1e-10, atol=0)
    np.testing.assert_allclose(result.trace.residuals, residuals, rtol=1e-10, atol=0)
    packed = joint_pack(result.final)
    assert np.linalg.norm(packed - final) <= 1e-10 * np.linalg.norm(final)
