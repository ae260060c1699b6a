import numpy as np
import pytest

import mrikacz as mk
from mrikacz.errors import ConfigurationError
from mrikacz.phantoms import _harmonic_order


TWO_RECEIVERS = (mk.MeasurementVector(mk.KSpaceMask(mk.GridShape(2, 1), [0, 1]), [1, 2]),) * 2


class TestMakePhantom:
    def test_constant(self):
        img = mk.make_phantom("constant", mk.GridShape(3, 2))
        np.testing.assert_array_equal(img.values, np.ones(6))

    def test_checker_pattern_on_2x2(self):
        img = mk.make_phantom("checker", mk.GridShape(2, 2))
        np.testing.assert_array_equal(img.values, [1, -1, -1, 1])

    def test_blobs_deterministic_and_bounded(self):
        shape = mk.GridShape(16, 16)
        a = mk.make_phantom("blobs", shape, seed=11)
        b = mk.make_phantom("blobs", shape, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.abs(a.values).max() <= 2.0
        c = mk.make_phantom("blobs", shape, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            mk.make_phantom("shepp", mk.GridShape(2, 2))


def harmonic_order_oracle(p_hor, p_ver):
    """The harmonic order as a Python sort of every (sx, sy) pair on the documented key."""
    modes = []
    for kx in range(p_hor):
        sx = kx if kx <= p_hor // 2 else kx - p_hor
        for ky in range(p_ver):
            sy = ky if ky <= p_ver // 2 else ky - p_ver
            modes.append((sx, sy))
    modes.sort(key=lambda m: (abs(m[0]) + abs(m[1]), max(abs(m[0]), abs(m[1])), m[0], m[1]))
    return modes


GRIDS = [(1, 1), (1, 7), (2, 2), (5, 4), (6, 9), (36, 36)]


class TestMakeBasis:
    def test_constant_single(self):
        (img,) = mk.make_basis("constant", 1, mk.GridShape(2, 2))
        np.testing.assert_array_equal(img.values, np.ones(4))

    def test_constant_requires_single_function(self):
        with pytest.raises(ConfigurationError):
            mk.make_basis("constant", 2, mk.GridShape(2, 2))

    def test_harmonics_zero_mode_first(self):
        basis = mk.make_basis("harmonics", 1, mk.GridShape(4, 4))
        np.testing.assert_allclose(basis[0].values, np.ones(16))

    def test_harmonics_are_distinct_and_unit_modulus(self):
        basis = mk.make_basis("harmonics", 6, mk.GridShape(4, 4))
        mat = np.stack([b.values for b in basis])
        np.testing.assert_allclose(np.abs(mat), 1.0)
        gram = mat @ mat.conj().T / 16
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("p_hor, p_ver", GRIDS, ids=[f"{h}x{v}" for h, v in GRIDS])
    def test_harmonic_order_matches_the_sort_oracle(self, p_hor, p_ver):
        sx, sy = _harmonic_order(p_hor, p_ver)
        assert list(zip(sx.tolist(), sy.tolist())) == harmonic_order_oracle(p_hor, p_ver)

    @pytest.mark.parametrize("p_hor, p_ver", GRIDS, ids=[f"{h}x{v}" for h, v in GRIDS])
    def test_harmonics_bit_identical_to_the_oracle_order(self, p_hor, p_ver):
        shape = mk.GridShape(p_hor, p_ver)
        b_num = min(shape.p_num, 9)
        rows, cols = np.indices((p_ver, p_hor))
        for img, (sx, sy) in zip(
            mk.make_basis("harmonics", b_num, shape), harmonic_order_oracle(p_hor, p_ver)[:b_num]
        ):
            expected = np.exp(2j * np.pi * (sx * cols / p_hor + sy * rows / p_ver)).ravel()
            np.testing.assert_array_equal(img.values.view(np.uint64), expected.view(np.uint64))

    def test_harmonics_count_capped_by_grid(self):
        with pytest.raises(ConfigurationError):
            mk.make_basis("harmonics", 5, mk.GridShape(2, 2))

    def test_bumps_unit_peaks_at_quadrant_centers(self):
        shape = mk.GridShape(8, 8)
        basis = mk.make_basis("bumps", 4, shape)
        expected_centers = [(2, 2), (6, 2), (2, 6), (6, 6)]  # (col, row), 0-based
        for img, (col, row) in zip(basis, expected_centers):
            grid_vals = img.as_grid()
            assert grid_vals[row, col] == pytest.approx(1.0)
            assert np.abs(grid_vals).max() == pytest.approx(1.0)
            assert np.unravel_index(np.argmax(np.abs(grid_vals)), grid_vals.shape) == (row, col)

    def test_bumps_deterministic(self):
        a = mk.make_basis("bumps", 3, mk.GridShape(8, 8))
        b = mk.make_basis("bumps", 3, mk.GridShape(8, 8))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)


class TestMakeMask:
    def test_full(self):
        mask = mk.make_mask("full", mk.GridShape(2, 2))
        np.testing.assert_array_equal(mask.indices, [0, 1, 2, 3])

    def test_random_with_full_fraction(self):
        for seed in (0, 99):
            mask = mk.make_mask("random", mk.GridShape(4, 2), fraction=1.0, seed=seed)
            np.testing.assert_array_equal(mask.indices, np.arange(8))

    def test_random_deterministic(self):
        shape = mk.GridShape(4, 4)
        a = mk.make_mask("random", shape, p_proj=2, seed=123)
        b = mk.make_mask("random", shape, p_proj=2, seed=123)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.p_proj == 2
        assert np.all(np.diff(a.indices) > 0)

    def test_rows_keeps_leading_rows(self):
        mask = mk.make_mask("rows", mk.GridShape(4, 4), fraction=0.5)
        np.testing.assert_array_equal(mask.indices, np.arange(8))

    @pytest.mark.parametrize("family", ["random", "rows"])
    def test_p_proj_wins_over_fraction(self, family):
        # fraction=0.5 alone keeps half the points, and InstanceSpec's
        # mask_fraction defaults to 0.5.
        assert mk.make_mask(family, mk.GridShape(4, 8), p_proj=8, fraction=0.5).p_proj == 8
        spec = mk.InstanceSpec(p_hor=8, p_ver=8, mask_family=family, p_proj=8)
        assert mk.synthesize(spec).mask.p_proj == 8

    def test_rows_round_p_proj_up_to_whole_rows(self):
        mask = mk.make_mask("rows", mk.GridShape(4, 8), p_proj=5)
        np.testing.assert_array_equal(mask.indices, np.arange(8))

    def test_p_proj_out_of_range(self):
        with pytest.raises(ConfigurationError):
            mk.make_mask("random", mk.GridShape(2, 2), p_proj=5)
        with pytest.raises(ConfigurationError):
            mk.make_mask("random", mk.GridShape(2, 2), p_proj=0)
        for family in ("random", "rows"):
            for fraction in (np.inf, np.nan):
                with pytest.raises(ConfigurationError, match="must be finite"):
                    mk.make_mask(family, mk.GridShape(2, 2), fraction=fraction)
                with pytest.raises(ConfigurationError, match="must be finite"):
                    mk.InstanceSpec(mask_family=family, mask_fraction=fraction)

    def test_needs_size_argument(self):
        with pytest.raises(ConfigurationError):
            mk.make_mask("random", mk.GridShape(2, 2))


class TestSynthesize:
    def test_regeneration_is_bit_identical(self):
        spec = mk.InstanceSpec(p_hor=8, p_ver=8, r_num=3, b_num=2, seed=5)
        a, b = mk.synthesize(spec), mk.synthesize(spec)
        np.testing.assert_array_equal(a.truth.image.values, b.truth.image.values)
        np.testing.assert_array_equal(a.model.coefficients, b.model.coefficients)
        np.testing.assert_array_equal(a.mask.indices, b.mask.indices)
        for va, vb in zip(a.measurements.vectors, b.measurements.vectors):
            np.testing.assert_array_equal(va.values, vb.values)

    def test_exact_solution_consistency(self, default_instance):
        for i, op in enumerate(default_instance.operators):
            residual = mk.norm(
                op.apply(default_instance.truth.image) - default_instance.truth.exact.vectors[i]
            )
            assert residual <= 1e-12

    def test_noise_calibration_is_sharp(self, default_instance):
        for i in range(default_instance.spec.r_num):
            gap = mk.norm(
                default_instance.measurements.vectors[i] - default_instance.truth.exact.vectors[i]
            )
            assert gap == pytest.approx(default_instance.measurements.deltas[i], abs=1e-12)

    def test_zero_noise_is_bitwise_exact(self):
        spec = mk.InstanceSpec(p_hor=8, p_ver=8, r_num=2, b_num=2, deltas=0.0, seed=9)
        inst = mk.synthesize(spec)
        for noisy, exact in zip(inst.measurements.vectors, inst.truth.exact.vectors):
            np.testing.assert_array_equal(noisy.values, exact.values)

    def test_relative_vs_absolute_noise(self):
        rel = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=2, b_num=2, deltas=0.1, seed=2))
        norms = [mk.norm(v) for v in rel.truth.exact.vectors]
        np.testing.assert_allclose(rel.measurements.deltas, 0.1 * np.asarray(norms))
        absolute = mk.synthesize(
            mk.InstanceSpec(
                p_hor=8, p_ver=8, r_num=2, b_num=2, deltas=(0.5, 0.25), delta_mode="absolute", seed=2
            )
        )
        np.testing.assert_array_equal(absolute.measurements.deltas, [0.5, 0.25])

    def test_coefficient_rows_have_unit_norm(self, default_instance):
        np.testing.assert_allclose(
            np.linalg.norm(default_instance.model.coefficients, axis=1), 1.0
        )

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            mk.InstanceSpec(r_num=0)
        with pytest.raises(ConfigurationError):
            mk.InstanceSpec(deltas=(0.1, 0.2))  # r_num defaults to 4
        with pytest.raises(ConfigurationError):
            mk.InstanceSpec(deltas=-0.5)
        with pytest.raises(ConfigurationError):
            mk.InstanceSpec(delta_mode="percent")

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -0.5])
    def test_noise_levels_must_be_finite_and_non_negative(self, delta):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            mk.InstanceSpec(r_num=2, deltas=(delta, 0.1))
        with pytest.raises(ValueError, match="finite and >= 0"):
            mk.MeasurementSet(TWO_RECEIVERS, [delta, 0.1])

    @pytest.mark.parametrize("delta", [0.0, -0.0])
    def test_zero_noise_level_is_accepted(self, delta):
        assert mk.InstanceSpec(r_num=2, deltas=(delta, 0.1)).deltas[0] == 0
        assert mk.MeasurementSet(TWO_RECEIVERS, [delta, 0.1]).deltas[0] == 0


class TestNoiseSequence:
    def test_halving_levels_share_one_truth(self):
        inst = mk.synthesize(mk.InstanceSpec(p_hor=8, p_ver=8, r_num=2, b_num=2, seed=6))
        sets = mk.noise_sequence(inst, base_fraction=0.1, count=5, seed=3)
        norms = np.array([mk.norm(v) for v in inst.truth.exact.vectors])
        for m, noisy in enumerate(sets):
            for i in range(2):
                gap = mk.norm(noisy.vectors[i] - inst.truth.exact.vectors[i])
                assert gap == pytest.approx(0.1 * 0.5**m * norms[i], abs=1e-12)
                assert noisy.deltas[i] == pytest.approx(0.1 * 0.5**m * norms[i])
