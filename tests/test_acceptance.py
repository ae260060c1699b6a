"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values come from independent oracles (dense matrix
transform, dense SVD/least-squares, brute-force inner products) or from the
construction of the synthetic instances; tolerances are fixed here and
never loosened at runtime.
"""

import json
import time

import numpy as np
import pytest

import mrikacz as mk
from mrikacz.cli import main
from mrikacz.errors import ConfigurationError

from conftest import dft_matrix, random_image, random_joint, random_measurement


def _verdict(num, name, ok, note=""):
    suffix = f" ({note})" if note else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


@pytest.fixture(scope="module")
def instance32():
    return mk.synthesize(mk.InstanceSpec(seed=2024))


@pytest.fixture(scope="module")
def noisy_runs():
    """Both methods on 20 seeded noisy 32x32 instances (criteria 4 and 5)."""
    records = []
    for seed in range(10):
        for level in (0.01, 0.05):
            spec = mk.InstanceSpec(
                p_hor=32, p_ver=32, r_num=4, b_num=4, deltas=level, seed=100 + seed
            )
            inst = mk.synthesize(spec)
            problem, _ = mk.rescale_problem(inst.linear_problem())
            for method in ("llk", "lsdk"):
                result = mk.run_linear(
                    problem, mk.SolverConfig(method=method), reference=inst.truth.image
                )
                records.append((spec, method, problem, result))
    return records


def test_c01_transform_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for p_num in (4, 6, 64, 251, 1024, 1296, 4096):
        rng = np.random.default_rng(p_num)
        plan = mk.DftPlan(p_num)
        mat = dft_matrix(p_num)
        for _ in range(50):
            x = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
            gap = np.abs(plan.forward_values(x) - mat @ x).max()
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "transform matches the dense matrix oracle",
        worst <= 1e-9 and elapsed < 10,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_adjoint_dot_product_suite(instance32):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    shape = instance32.spec.grid
    mask = instance32.mask
    plan = instance32.plan
    r_num, b_num = instance32.model.coefficients.shape
    worst = 0.0

    def check(lhs, rhs, xn, yn):
        nonlocal worst
        gap = abs(lhs - rhs) / (xn * yn + 1)
        worst = max(worst, gap)
        return gap <= 1e-10

    ok = True
    for _ in range(100):  # restriction and its zero-fill adjoint
        f = random_image(rng, shape)
        g = random_measurement(rng, mask)
        ok &= check(
            mk.inner_product(mk.project(mask, f), g),
            mk.inner_product(f, mk.embed(mask, g)),
            mk.norm(f),
            mk.norm(g),
        )
    for _ in range(100):  # transform and its adjoint
        f, g = random_image(rng, shape), random_image(rng, shape)
        ok &= check(
            mk.inner_product(mk.dft_forward(plan, f), g),
            mk.inner_product(f, mk.dft_adjoint(plan, g)),
            mk.norm(f),
            mk.norm(g),
        )
    for op in instance32.operators:  # 4 x 25 receiver operators
        for _ in range(25):
            x = random_image(rng, shape)
            y = random_measurement(rng, mask)
            ok &= check(
                mk.inner_product(op.apply(x), y),
                mk.inner_product(x, op.adjoint(y)),
                mk.norm(x),
                mk.norm(y),
            )
    for op in instance32.operators:  # 4 x 25 joint derivatives
        jop = mk.joint_from_linear(op)
        for _ in range(25):
            x = random_joint(rng, shape, r_num, b_num)
            dx = random_joint(rng, shape, r_num, b_num)
            y = random_measurement(rng, mask)
            ok &= check(
                mk.inner_product(jop.derivative(x, dx), y),
                mk.inner_product(dx, jop.adjoint_derivative(x, y)),
                mk.norm(dx),
                mk.norm(y),
            )
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "adjoint dot-product identities",
        ok and elapsed < 30,
        f"max normalized gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c03_derivative_second_order(instance32):
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    shape = instance32.spec.grid
    r_num, b_num = instance32.model.coefficients.shape
    jop = mk.joint_from_linear(instance32.operators[0])
    ok = True
    worst_cd = 0.0
    for _ in range(10):
        x = random_joint(rng, shape, r_num, b_num)
        dx = random_joint(rng, shape, r_num, b_num)
        # The forward map is quadratic, so central differences reproduce the
        # derivative exactly and carry no step-size signal; the second-order
        # convergence diagnostic therefore uses the first-order Taylor
        # remainder, which shrinks 4x per halving iff the derivative is right.
        errs = []
        for t in (0.1, 0.05, 0.025, 0.0125):
            rem = jop.apply(x + t * dx) - jop.apply(x) - t * jop.derivative(x, dx)
            errs.append(mk.norm(rem))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        ok &= all(3.5 <= r <= 4.5 for r in ratios)
        t = 1e-4
        cd = (jop.apply(x + t * dx) - jop.apply(x - t * dx)) * (1.0 / (2 * t))
        gap = mk.norm(cd - jop.derivative(x, dx))
        worst_cd = max(worst_cd, gap)
        ok &= gap <= 1e-6
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "derivative passes second-order finite-difference checks",
        ok and elapsed < 10,
        f"max central-difference gap {worst_cd:.2e}, {elapsed:.1f}s",
    )


def test_c04_monotone_error_decay(noisy_runs):
    ok = True
    for spec, method, problem, result in noisy_runs:
        errs = result.trace.errors
        ok &= bool(np.all(np.diff(errs) <= 1e-12 * errs[0]))
        ok &= bool(np.all(errs <= errs[0] * (1 + 1e-12)))  # ball confinement
    _verdict(4, "error to truth never increases before the stop", ok, f"{len(noisy_runs)} runs")


def test_c05_finite_stop_and_discrepancy_bound(noisy_runs):
    ok = True
    for spec, method, problem, result in noisy_runs:
        tr = result.trace
        ok &= result.reason == mk.STOPPING_RULE
        ok &= tr.n_cycles < 10000
        ok &= tr.k_star is not None and tr.k_star % spec.r_num == 0
        for i, op in enumerate(problem.operators):
            fresh = mk.norm(op.apply(result.final) - problem.measurements.vectors[i])
            ok &= fresh <= 2.1 * problem.measurements.deltas[i]
    _verdict(5, "finite stopping with residuals within tau*delta", ok)


def test_c06_exact_data_convergence():
    start = time.perf_counter()
    ok = True
    notes = []
    full = mk.synthesize(
        mk.InstanceSpec(
            p_hor=8, p_ver=8, r_num=4, b_num=2, mask_family="full", mask_fraction=None,
            deltas=0.0, seed=1,
        )
    )
    problem, _ = mk.rescale_problem(full.linear_problem())
    d0 = mk.norm(full.truth.image)  # initial guess is the zero image
    for method in ("llk", "lsdk"):
        result = mk.run_linear(problem, mk.SolverConfig(method=method))
        ratio = mk.norm(result.final - full.truth.image) / d0
        notes.append(f"{method} full-mask err ratio {ratio:.1e}")
        ok &= ratio <= 1e-6

    half = mk.synthesize(
        mk.InstanceSpec(p_hor=8, p_ver=8, r_num=4, b_num=2, mask_fraction=0.5, deltas=0.0, seed=1)
    )
    problem, _ = mk.rescale_problem(half.linear_problem())
    for method in ("llk", "lsdk"):
        result = mk.run_linear(problem, mk.SolverConfig(method=method))
        final = max(
            mk.norm(op.apply(result.final) - problem.measurements.vectors[i])
            for i, op in enumerate(problem.operators)
        )
        ratio = final / result.metadata["initial_max_residual"]
        notes.append(f"{method} half-mask residual ratio {ratio:.1e}")
        ok &= ratio <= 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    _verdict(6, "exact data drives error and residual down", ok, "; ".join(notes))


def test_c07_stability_under_vanishing_noise():
    start = time.perf_counter()
    inst = mk.synthesize(
        mk.InstanceSpec(
            p_hor=32, p_ver=32, r_num=4, b_num=4, mask_family="full", mask_fraction=None,
            deltas=0.0, seed=1,
        )
    )
    sets = mk.noise_sequence(inst, base_fraction=0.1, count=5, seed=17)
    ok = True
    notes = []
    for method in ("llk", "lsdk"):
        errs = []
        for noisy in sets:
            problem, _ = mk.rescale_problem(mk.Problem(inst.operators, noisy))
            result = mk.run_linear(problem, mk.SolverConfig(method=method))
            ok &= result.reason == mk.STOPPING_RULE
            errs.append(mk.norm(result.final - inst.truth.image))
        errs = np.asarray(errs)
        ok &= bool(np.all(errs[1:] <= 1.1 * errs[:-1]))
        ok &= errs[4] <= 0.3 * errs[0]
        notes.append(f"{method} errors {np.array2string(errs, precision=3)}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 180
    _verdict(7, "reconstruction error shrinks with the noise level", ok, "; ".join(notes))


def test_c08_unit_norm_scaling_hypothesis(instance32):
    ops, report = mk.rescale_to_unit(instance32.operators)
    ok = bool(np.all(report.post_norms <= 1 + 1e-6))

    shape = mk.GridShape(2, 2)
    model = mk.SensitivityModel((mk.ComplexImage.constant(shape, 1.0),), [[1.0]])
    op = mk.LinearForward(model, mk.KSpaceMask(shape, np.arange(4)), mk.DftPlan(4), 0)
    assert mk.estimate_norm(op) == pytest.approx(2.0, rel=1e-6)
    truth = mk.ComplexImage(shape, [1, 1j, -1, -1j])
    data = mk.calibrated_noise(
        mk.MeasurementSet((op.apply(truth),), np.zeros(1)), [0.1], seed=3
    )
    rejected = False
    try:
        mk.run_linear(mk.Problem((op,), data), mk.SolverConfig(method="llk"))
    except ConfigurationError:
        rejected = True
    _verdict(
        8,
        "unit-norm hypothesis enforced for the Landweber step",
        ok and rejected,
        f"max post norm {report.post_norms.max():.9f}; norm-2 operator rejected: {rejected}",
    )


def test_c09_cone_condition_dichotomy(instance32):
    linear_max = 0.0
    ok = True
    for op in instance32.operators:
        rep = mk.cone_probe(op, radius=1.0, samples=50, seed=5)
        ok &= not rep.degenerate
        linear_max = max(linear_max, rep.max_ratio)
    ok &= linear_max <= 1e-10
    scalar = mk.cone_probe(mk.ScalarProductModel(), radius=1.0, samples=200, seed=0)
    ok &= scalar.max_ratio >= 1 - 1e-9 and scalar.exceeds_half
    _verdict(
        9,
        "cone bound trivial for linear, violated for the product model",
        ok,
        f"linear max {linear_max:.2e}, scalar max {scalar.max_ratio:.2f}",
    )


def test_c10_joint_iteration_smoke():
    shape = mk.GridShape(2, 2)
    model = mk.SensitivityModel((mk.ComplexImage.constant(shape, 1.0),), np.ones((2, 1)))
    mask = mk.KSpaceMask(shape, np.arange(4))
    plan = mk.DftPlan(4)
    ops = tuple(mk.JointForward(model, mask, plan, i) for i in range(2))
    truth = mk.JointParameter(mk.ComplexImage.constant(shape, 1.0), [[1.0], [2.0]])
    data = mk.MeasurementSet(tuple(op.apply(truth) for op in ops), np.zeros(2))
    config = mk.SolverConfig(
        method="lsdk", max_cycles=50, exact_data_rtol=0.0,
        initial_image=truth.image, initial_coefficients=[[0.5], [0.5]],
    )
    result = mk.run_joint(mk.Problem(ops, data), config)
    per_cycle = result.trace.residuals.reshape(-1, 2).max(axis=1)
    ok = bool(np.all(np.diff(per_cycle) <= 1e-12 * per_cycle[0]))
    # exact data is attainable with the image frozen at truth, so the
    # least-squares oracle value is 0; solving it confirms that
    column = ops[0].apply(mk.JointParameter(truth.image, [[1.0], [1.0]])).values.reshape(-1, 1)
    oracle = max(
        float(np.linalg.lstsq(column, data.vectors[i].values, rcond=None)[1].sum()) ** 0.5
        if np.linalg.lstsq(column, data.vectors[i].values, rcond=None)[1].size
        else 0.0
        for i in range(2)
    )
    final_res = max(mk.norm(ops[i].apply(result.final) - data.vectors[i]) for i in range(2))
    ok &= final_res <= oracle + 1e-6

    generic = mk.synthesize(
        mk.InstanceSpec(p_hor=16, p_ver=16, r_num=4, b_num=4, deltas=0.01, seed=7)
    )
    problem = generic.joint_problem()
    res2 = mk.run_joint(problem, mk.SolverConfig(method="lsdk", max_cycles=300))
    final_max = max(
        mk.norm(op.apply(res2.final) - generic.measurements.vectors[i])
        for i, op in enumerate(problem.operators)
    )
    ratio = final_max / res2.metadata["initial_max_residual"]
    ok &= ratio <= 0.1
    ok &= res2.metadata["guarantee"].startswith("experimental")
    _verdict(
        10,
        "joint iteration reduces residuals without a convergence claim",
        ok,
        f"2x2 final residual {final_res:.2e}; 16x16 ratio {ratio:.3f}",
    )


def test_c11_determinism(tmp_path):
    ok = True
    # solver runs repeat bit-for-bit
    inst_a = mk.synthesize(mk.InstanceSpec(seed=31))
    inst_b = mk.synthesize(mk.InstanceSpec(seed=31))
    np.testing.assert_array_equal(inst_a.truth.image.values, inst_b.truth.image.values)
    prob_a, _ = mk.rescale_problem(inst_a.linear_problem())
    prob_b, _ = mk.rescale_problem(inst_b.linear_problem())
    run_a = mk.run_linear(prob_a, mk.SolverConfig(), reference=inst_a.truth.image)
    run_b = mk.run_linear(prob_b, mk.SolverConfig(), reference=inst_b.truth.image)
    ok &= bool(np.array_equal(run_a.trace.residuals, run_b.trace.residuals))
    ok &= bool(np.array_equal(run_a.trace.alphas, run_b.trace.alphas))
    ok &= bool(np.array_equal(run_a.trace.errors, run_b.trace.errors))
    ok &= bool(np.array_equal(run_a.final.values, run_b.final.values))
    # cone probe repeats bit-for-bit
    probe_a = mk.cone_probe(mk.ScalarProductModel(), samples=100, seed=3)
    probe_b = mk.cone_probe(mk.ScalarProductModel(), samples=100, seed=3)
    ok &= bool(np.array_equal(probe_a.ratios, probe_b.ratios))
    # the CLI pipeline repeats byte-for-byte
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "p_hor": 16, "p_ver": 16, "r_num": 4, "b_num": 2, "mask_fraction": 0.5,
                "deltas": 0.05, "seed": 8,
            }
        )
    )
    for tag in ("one", "two"):
        main(["generate", "--config", str(spec_path), "--out", str(tmp_path / f"inst_{tag}")])
        run_cfg = tmp_path / f"run_{tag}.json"
        run_cfg.write_text(
            json.dumps({"instance": str(tmp_path / f"inst_{tag}"), "out": str(tmp_path / f"rec_{tag}")})
        )
        main(["reconstruct", "--config", str(run_cfg)])
    for name in ("ground_truth.csv", "mask.csv", "measurements_0.csv"):
        ok &= (tmp_path / "inst_one" / name).read_bytes() == (tmp_path / "inst_two" / name).read_bytes()
    for name in ("trace.csv", "result.csv", "result_magnitude.pgm"):
        ok &= (tmp_path / "rec_one" / name).read_bytes() == (tmp_path / "rec_two" / name).read_bytes()
    _verdict(11, "identical seeds reproduce traces and files bit-for-bit", ok)
