import time

import numpy as np
import pytest

import mrikacz as mk
from mrikacz import transform
from mrikacz.errors import DimensionMismatch

from conftest import brute_inner, dft_loop, dft_matrix, random_image


class TestForward:
    def test_constant_input(self):
        out = mk.DftPlan(4).forward_values([1, 1, 1, 1])
        np.testing.assert_allclose(out, [4, 0, 0, 0], atol=1e-14)

    def test_impulse_maps_to_constant(self):
        out = mk.DftPlan(4).forward_values([1, 0, 0, 0])
        np.testing.assert_allclose(out, [1, 1, 1, 1], atol=1e-14)

    def test_single_tone_against_loop_oracle(self):
        x = np.array([1, 1j, -1, -1j])
        expected = dft_loop(x)
        np.testing.assert_allclose(expected, [0, 4, 0, 0], atol=1e-12)
        out = mk.DftPlan(4).forward_values(x)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_non_power_of_two_naive_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = mk.DftPlan(6).forward_values(x)
        np.testing.assert_allclose(out, dft_loop(x), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mk.DftPlan(4).forward_values([1, 2])

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            mk.DftPlan(0)


class TestAdjoint:
    def test_adjoint_of_constant_spectrum(self):
        out = mk.DftPlan(4).adjoint_values([4, 0, 0, 0])
        np.testing.assert_allclose(out, [4, 4, 4, 4], atol=1e-14)

    def test_zero(self):
        out = mk.DftPlan(4).adjoint_values([0, 0, 0, 0])
        np.testing.assert_array_equal(out, np.zeros(4))

    @pytest.mark.parametrize("forward", ["fast", "naive"])
    def test_dot_product_identity_length_8(self, forward):
        """<Af, g> = <f, A^H g> with A the plan's transform ("fast") or the
        defining loop sum ("naive"), so the adjoint is checked against both."""
        rng = np.random.default_rng(8)
        plan = mk.DftPlan(8)
        apply = plan.forward_values if forward == "fast" else dft_loop
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lhs = brute_inner(apply(f), g)
        rhs = brute_inner(f, plan.adjoint_values(g))
        assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(f) * np.linalg.norm(g) + 1)

    @pytest.mark.parametrize("p_num", [6, 251])
    def test_dot_product_identity(self, p_num):
        rng = np.random.default_rng(p_num)
        plan = mk.DftPlan(p_num)
        f = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
        g = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
        lhs = brute_inner(plan.forward_values(f), g)
        rhs = brute_inner(f, plan.adjoint_values(g))
        assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(f) * np.linalg.norm(g) + 1)

    @pytest.mark.parametrize("p_num", [4, 6, 16, 256, 1296, 4096])
    def test_adjoint_forward_is_p_num_identity(self, p_num):
        rng = np.random.default_rng(p_num)
        plan = mk.DftPlan(p_num)
        f = random_image(rng, mk.GridShape(p_num, 1)).values
        back = plan.adjoint_values(plan.forward_values(f))
        assert np.linalg.norm(back - p_num * f) <= 1e-10 * p_num * np.linalg.norm(f)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        plan = mk.DftPlan(64)
        f = random_image(rng, mk.GridShape(8, 8)).values
        inverse = plan.adjoint_values(plan.forward_values(f)) / plan.p_num
        assert np.linalg.norm(inverse - f) <= 1e-10 * np.linalg.norm(f)


class TestFastNaiveAgreement:
    """``DftPlan`` against the dense matrix oracle of conftest, any length."""

    def check_against_matrix(self, p_num):
        rng = np.random.default_rng(p_num)
        plan = mk.DftPlan(p_num)
        mat = dft_matrix(p_num)
        for _ in range(3):
            x = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
            np.testing.assert_allclose(plan.forward_values(x), mat @ x, atol=1e-9)
            np.testing.assert_allclose(plan.adjoint_values(x), np.conj(mat) @ x, atol=1e-9)

    @pytest.mark.parametrize("p_num", [2**k for k in range(13)])
    def test_power_of_two_sizes(self, p_num):
        self.check_against_matrix(p_num)

    @pytest.mark.parametrize("p_num", [6, 251, 1296])
    def test_non_power_of_two_sizes(self, p_num):
        self.check_against_matrix(p_num)

    @pytest.mark.parametrize("p_num", [8192, 9216])
    def test_bins_against_defining_sum_at_large_lengths(self, p_num):
        rng = np.random.default_rng(p_num)
        plan = mk.DftPlan(p_num)
        bins = np.sort(rng.choice(p_num, size=64, replace=False))
        rows = dft_matrix(p_num, bins)
        x = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
        np.testing.assert_allclose(plan.forward_values(x)[bins], rows @ x, atol=1e-9)
        np.testing.assert_allclose(plan.adjoint_values(x)[bins], np.conj(rows) @ x, atol=1e-9)

    @pytest.mark.parametrize("p_num", [1, 6, 1024, 1296])
    def test_equals_numpy_fft_bit_for_bit(self, p_num):
        """The plan's direct ufunc calls give what numpy.fft gives, so outputs do not
        depend on which of the two paths ran."""
        rng = np.random.default_rng(p_num + 1)
        plan = mk.DftPlan(p_num)
        x = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
        np.testing.assert_array_equal(plan.forward_values(x), np.fft.fft(x))
        np.testing.assert_array_equal(plan.adjoint_values(x), np.fft.ifft(x, norm="forward"))

    @pytest.mark.parametrize("p_num", [6, 1296])
    def test_numpy_fft_fallback_equals_the_ufunc_path(self, monkeypatch, p_num):
        """The ``numpy.fft`` path taken where numpy lacks the transform ufuncs
        (numpy < 2.0) gives the ufunc path's values bit for bit."""
        rng = np.random.default_rng(p_num + 2)
        plan = mk.DftPlan(p_num)
        x = rng.standard_normal(p_num) + 1j * rng.standard_normal(p_num)
        direct = plan.forward_values(x), plan.adjoint_values(x)
        monkeypatch.setattr(transform, "_fft_ufunc", None)
        monkeypatch.setattr(transform, "_ifft_ufunc", None)
        fallback = plan.forward_values(x), plan.adjoint_values(x)
        for got, want in zip(fallback, direct):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_other_input_layouts_give_numpy_fft_values(self):
        """Input that is not a flat native complex128 array is converted first:
        float64, 2-D, list, strided-view and big-endian input give numpy.fft's values."""
        rng = np.random.default_rng(3)
        z = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        real = rng.standard_normal(12)
        inputs = {
            "float64": real,
            "2-D": z[:12].reshape(3, 4),
            "list": list(z[:12]),
            "strided view": z[::2],
            "big-endian": z[:12].astype(">c16"),
        }
        plan = mk.DftPlan(12)
        for name, values in inputs.items():
            flat = np.asarray(values, dtype=complex).reshape(-1)
            np.testing.assert_array_equal(plan.forward_values(values), np.fft.fft(flat), err_msg=name)
            np.testing.assert_array_equal(
                plan.adjoint_values(values), np.fft.ifft(flat, norm="forward"), err_msg=name
            )


class TestOperatorNorm:
    @pytest.mark.parametrize("p_num", [4, 64])
    def test_norm_is_sqrt_p_num(self, p_num):
        shape = mk.GridShape(p_num, 1)
        model = mk.SensitivityModel((mk.ComplexImage.constant(shape, 1.0),), [[1.0]])
        mask = mk.KSpaceMask(shape, np.arange(p_num))
        op = mk.LinearForward(model, mask, 0)
        assert mk.estimate_norm(op) == pytest.approx(np.sqrt(p_num), rel=1e-6)


def restrict(mask, f):
    """The k-space restriction as the operators take it: ``values[mask.indices]``."""
    return mk.MeasurementVector(mask, f.values[mask.indices])


class TestProjection:
    def test_full_mask_keeps_everything(self):
        shape = mk.GridShape(2, 2)
        mask = mk.KSpaceMask(shape, np.arange(4))
        g = mk.MeasurementVector(mask, [1, 2j, 3, 4])
        np.testing.assert_array_equal(mk.embed(mask, g).values, g.values)

    def test_single_entry(self):
        shape = mk.GridShape(2, 2)
        mask = mk.KSpaceMask(shape, [3])
        g = mk.MeasurementVector(mask, [-1j])
        np.testing.assert_array_equal(mk.embed(mask, g).values, [0, 0, 0, -1j])

    def test_embed_zero_fill_and_round_trip(self):
        shape = mk.GridShape(2, 2)
        mask = mk.KSpaceMask(shape, [0, 2])
        g = mk.MeasurementVector(mask, [5, 7j])
        np.testing.assert_array_equal(mk.embed(mask, g).values, [5, 0, 7j, 0])
        np.testing.assert_array_equal(restrict(mask, mk.embed(mask, g)).values, g.values)

    def test_projection_embed_adjoint(self):
        rng = np.random.default_rng(11)
        shape = mk.GridShape(4, 4)
        mask = mk.KSpaceMask(shape, np.sort(rng.choice(16, size=7, replace=False)))
        f = random_image(rng, shape)
        g = mk.MeasurementVector(mask, rng.standard_normal(7) + 1j * rng.standard_normal(7))
        # Termwise the two sums are identical; the fixed-order loop oracle
        # shows exact equality, the library inner product only reorders.
        assert brute_inner(restrict(mask, f).values, g.values) == brute_inner(
            f.values, mk.embed(mask, g).values
        )
        lhs = mk.inner_product(restrict(mask, f), g)
        rhs = mk.inner_product(f, mk.embed(mask, g))
        assert abs(lhs - rhs) <= 1e-14 * (mk.norm(f) * mk.norm(g) + 1)

    def test_projection_contracts_norm(self):
        rng = np.random.default_rng(13)
        shape = mk.GridShape(4, 4)
        mask = mk.KSpaceMask(shape, np.arange(0, 16, 2))
        f = random_image(rng, shape)
        assert mk.norm(restrict(mask, f)) < mk.norm(f)
        supported = mk.embed(mask, restrict(mask, f))
        assert mk.norm(restrict(mask, supported)) == pytest.approx(mk.norm(supported))

    def test_shape_and_mask_mismatch(self):
        mask = mk.KSpaceMask(mk.GridShape(2, 2), [0, 2])
        other = mk.KSpaceMask(mk.GridShape(2, 2), [0, 1])
        other_grid = mk.KSpaceMask(mk.GridShape(4, 1), [0, 2])
        for wrong in (other, other_grid):
            with pytest.raises(DimensionMismatch):
                mk.embed(mask, mk.MeasurementVector(wrong, [1, 2]))


def _median_seconds(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


class TestFastCostScaling:
    def test_doubling_cost_ratio(self):
        # Qualitative n log n check; timing noise gets one retry with more reps.
        sizes = [1024, 2048, 4096, 8192]
        for reps in (7, 21):
            plans = {n: mk.DftPlan(n) for n in sizes}
            inputs = {
                n: np.random.default_rng(n).standard_normal(n) * (1 + 0j) for n in sizes
            }
            for n in sizes:
                plans[n].forward_values(inputs[n])
            med = {n: _median_seconds(lambda n=n: plans[n].forward_values(inputs[n]), reps) for n in sizes}
            ratios = [med[b] / med[a] for a, b in zip(sizes, sizes[1:])]
            if max(ratios) <= 2.6:
                return
        pytest.fail(f"transform cost ratios exceeded 2.6 per doubling: {ratios}")
