import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrikacz as mk
from mrikacz.errors import DimensionMismatch

from conftest import brute_inner


def image(values, p_hor=None, p_ver=1):
    values = np.asarray(values, dtype=complex)
    p_hor = values.size if p_hor is None else p_hor
    return mk.ComplexImage(mk.GridShape(p_hor, p_ver), values)


complex_lists = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )
)


class TestGridShape:
    def test_p_num(self):
        assert mk.GridShape(3, 5).p_num == 15

    @pytest.mark.parametrize("p_hor,p_ver", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_degenerate_sides(self, p_hor, p_ver):
        with pytest.raises(ValueError):
            mk.GridShape(p_hor, p_ver)

    def test_flat_index_is_row_major_with_one_based_coords(self):
        shape = mk.GridShape(p_hor=3, p_ver=2)
        assert shape.flat_index(1, 1) == 0
        assert shape.flat_index(1, 3) == 2
        assert shape.flat_index(2, 1) == 3
        with pytest.raises(IndexError):
            shape.flat_index(3, 1)


class TestComplexImage:
    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            mk.ComplexImage(mk.GridShape(2, 2), [1, 2, 3])

    def test_values_read_only(self):
        img = image([1, 2])
        with pytest.raises(ValueError):
            img.values[0] = 0

    def test_from_grid_round_trip(self):
        arr = np.arange(6).reshape(2, 3) + 0j
        img = mk.ComplexImage.from_grid(arr)
        assert img.shape == mk.GridShape(p_hor=3, p_ver=2)
        np.testing.assert_array_equal(img.as_grid(), arr)

    def test_vector_arithmetic(self):
        a = image([1, 2j])
        b = image([3, -1])
        np.testing.assert_array_equal((a + b).values, [4, -1 + 2j])
        np.testing.assert_array_equal((a - b).values, [-2, 1 + 2j])
        np.testing.assert_array_equal((2 * a).values, [2, 4j])
        np.testing.assert_array_equal((-a).values, [-1, -2j])

    def test_arithmetic_rejects_other_grids(self):
        with pytest.raises(DimensionMismatch):
            image([1, 2]) + image([1, 2], p_hor=1, p_ver=2)


class TestInnerProduct:
    def test_orthogonal_unit_vectors(self):
        assert mk.inner_product(image([1, 0]), image([0, 1])) == 0

    def test_unit_norm(self):
        a = image([1j, 0])
        assert mk.inner_product(a, a) == 1

    def test_hand_example_against_brute_force(self):
        a, b = image([1 + 1j, 2]), image([1, 1j])
        got = mk.inner_product(a, b)
        assert got == pytest.approx(1 - 1j)
        assert got == pytest.approx(brute_inner(a.values, b.values))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mk.inner_product(image([1, 2]), image([1, 2, 3]))

    def test_kind_mismatch(self):
        mask = mk.KSpaceMask(mk.GridShape(2, 1), [0, 1])
        with pytest.raises(DimensionMismatch):
            mk.inner_product(image([1, 2]), mk.MeasurementVector(mask, [1, 2]))

    def test_norm_definition(self):
        a = image([3, 4j])
        assert mk.norm(a) == pytest.approx(np.sqrt(mk.inner_product(a, a).real))

    @settings(max_examples=60)
    @given(complex_lists, st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz_and_conjugate_symmetry(self, vals, seed):
        rng = np.random.default_rng(seed)
        a = image(vals)
        b = image(rng.standard_normal(len(vals)) + 1j * rng.standard_normal(len(vals)))
        ab = mk.inner_product(a, b)
        assert abs(ab) <= mk.norm(a) * mk.norm(b) * (1 + 1e-12) + 1e-12
        assert ab == pytest.approx(np.conj(mk.inner_product(b, a)), abs=1e-9)


class TestSensitivityModel:
    def make_two_basis_model(self, coeff):
        shape = mk.GridShape(2, 2)
        const = mk.ComplexImage.constant(shape, 1.0)
        impulse = mk.ComplexImage(shape, [1, 0, 0, 0])
        return mk.SensitivityModel((const, impulse), coeff)

    def test_single_constant_basis(self):
        shape = mk.GridShape(2, 2)
        model = mk.SensitivityModel((mk.ComplexImage.constant(shape, 1.0),), [[1.0]])
        np.testing.assert_array_equal(model.materialize(0).values, [1, 1, 1, 1])

    def test_zero_coefficients(self):
        model = self.make_two_basis_model([[0.0, 0.0]])
        np.testing.assert_array_equal(model.materialize(0).values, np.zeros(4))

    def test_const_plus_impulse(self):
        model = self.make_two_basis_model([[1.0, 1.0]])
        np.testing.assert_array_equal(model.materialize(0).values, [2, 1, 1, 1])

    def test_receiver_out_of_range(self):
        model = self.make_two_basis_model([[1.0, 1.0]])
        with pytest.raises(IndexError):
            model.materialize(1)
        with pytest.raises(IndexError):
            model.materialize(-1)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(3)
        coeff = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        once = self.make_two_basis_model(coeff).materialize(0)
        twice = self.make_two_basis_model(2 * coeff).materialize(0)
        np.testing.assert_array_equal(twice.values, 2 * once.values)

    def test_basis_grids_must_match(self):
        with pytest.raises(DimensionMismatch):
            mk.SensitivityModel(
                (mk.ComplexImage.constant(mk.GridShape(2, 2)), mk.ComplexImage.constant(mk.GridShape(2, 1))),
                [[1.0, 1.0]],
            )


class TestJointParameter:
    def test_direct_sum_norm(self):
        x = mk.JointParameter(image([3, 0]), [[4j]])
        assert mk.norm(x) == pytest.approx(5.0)

    def test_arithmetic(self):
        x = mk.JointParameter(image([1, 0]), [[2]])
        y = mk.JointParameter(image([0, 1j]), [[1]])
        z = x - 2 * y
        np.testing.assert_array_equal(z.image.values, [1, -2j])
        np.testing.assert_array_equal(z.coefficients, [[0]])

    def test_inner_product_splits(self):
        x = mk.JointParameter(image([1, 0]), [[1j]])
        y = mk.JointParameter(image([1, 1]), [[1j]])
        assert mk.inner_product(x, y) == pytest.approx(1 + 1)
