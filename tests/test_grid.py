import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrikacz as mk
from mrikacz import grid
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


@pytest.mark.parametrize(
    "indices, message",
    [
        ([0.5, 1.7, 3.9], "mask indices must be integers, got dtype float64"),
        ([0.0, 1.0], "mask indices must be integers, got dtype float64"),
        ([True, False, True], "mask indices must be integers, got dtype bool"),
        ([], "mask must contain at least one index"),
        ([1, 0], r"mask indices must be strictly increasing within \[0, 3\]"),
    ],
    ids=["fractional", "integral-floats", "bool", "empty", "unordered"],
)
def test_mask_rejects_bad_indices(indices, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mk.KSpaceMask(mk.GridShape(2, 2), indices)


VECTOR_KINDS = ("image", "measurement", "joint")


def vector(kind, values, other_layout=False):
    """A value of ``kind`` holding ``values``; ``other_layout`` gives one of the
    same kind that lies in another space (another grid, mask or coefficient shape)."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    if kind == "image":
        return image(values, p_hor=1, p_ver=n) if other_layout else image(values)
    if kind == "measurement":
        mask = mk.KSpaceMask(mk.GridShape(n + 1, 1), np.arange(n) + (1 if other_layout else 0))
        return mk.MeasurementVector(mask, values)
    return mk.JointParameter(image(values), values[:, None] if other_layout else values[None, :])


def arrays(value):
    if isinstance(value, mk.JointParameter):
        return value.image.values, value.coefficients
    return (value.values,)


class TestSharedArithmetic:
    """The vector-space operations every value type shares."""

    @pytest.mark.parametrize("kind_a, kind_b", itertools.combinations(VECTOR_KINDS, 2))
    def test_mixed_kinds_raise_type_error_in_both_orders(self, kind_a, kind_b):
        a, b = vector(kind_a, [1, 2j]), vector(kind_b, [1, 2j])
        for left, right in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right

    @pytest.mark.parametrize("kind", VECTOR_KINDS)
    def test_layout_mismatch_is_dimension_mismatch(self, kind):
        a, b = vector(kind, [1, 2j]), vector(kind, [1, 2j], other_layout=True)
        with pytest.raises(DimensionMismatch):
            a - b
        with pytest.raises(DimensionMismatch):
            mk.inner_product(a, b)

    @pytest.mark.parametrize("alpha", [0.37, 3.5, -1e-300])
    @pytest.mark.parametrize("kind", VECTOR_KINDS)
    def test_fused_update_is_the_two_step_update_bit_for_bit(self, kind, alpha):
        """The solver's in-place Kaczmarz update of its flat state (the value's arrays
        one after the other) equals ``x - alpha * s``, also at signed zeros,
        infinities, nans and near overflow."""
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308, 1.0, -2.5, 5e-324]
        rng = np.random.default_rng(7)
        x, s = (
            vector(kind, rng.choice(special, size=(64, 2)).view(complex).ravel())
            for _ in range(2)
        )

        def flat(value):
            return np.concatenate([a.reshape(-1) for a in arrays(value)])

        state = flat(x)
        with np.errstate(invalid="ignore", over="ignore"):
            mk.solvers._update(state, flat(s), np.empty_like(state), alpha)
            two_step = x - alpha * s
        np.testing.assert_array_equal(state.view(np.uint64), flat(two_step).view(np.uint64))

    @pytest.mark.parametrize("kind", VECTOR_KINDS)
    def test_unary_minus_is_numpy_negative_bit_for_bit(self, kind):
        inf = float("inf")
        a = vector(kind, [complex(-0.0, 0.0), complex(0.0, -0.0), complex(inf, -inf), complex(-inf, 1)])
        for got, values in zip(arrays(-a), arrays(a)):
            np.testing.assert_array_equal(got.view(np.uint64), np.negative(values).view(np.uint64))


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

    def test_numpy_einsum_fallback_gives_the_same_norm_bits(self, monkeypatch):
        """Where numpy has no ``c_einsum`` to import, ``array_norm`` calls
        ``numpy.einsum`` and sums to the same bits."""
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (1, 512, 1296)]
        blocks.append(rng.standard_normal((4, 3)))
        direct = [grid.array_norm(v) for v in blocks] + [grid.array_norm(*blocks)]
        monkeypatch.setattr(grid, "_einsum", np.einsum)
        fallback = [grid.array_norm(v) for v in blocks] + [grid.array_norm(*blocks)]
        assert [x.hex() for x in fallback] == [x.hex() for x in direct]

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

    def test_basis_is_held_once_and_read_only(self):
        shape = mk.GridShape(2, 2)
        given = (mk.ComplexImage.constant(shape, 1.0), mk.ComplexImage(shape, [1, 0, 0, 0]))
        model = mk.SensitivityModel(given, [[1.0, 1.0]])
        assert not model.basis_matrix.flags.writeable
        for n, (held, passed) in enumerate(zip(model.basis, given)):
            assert np.shares_memory(held.values, model.basis_matrix[n])
            assert not np.shares_memory(held.values, passed.values)
            assert not held.values.flags.writeable
            np.testing.assert_array_equal(held.values, passed.values)

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

    def test_image_block_must_be_an_image(self):
        with pytest.raises(DimensionMismatch, match="image must be a ComplexImage, got ndarray"):
            mk.JointParameter(np.zeros(4), np.zeros((1, 1)))
