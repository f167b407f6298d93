import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from isocg import (
    DimensionMismatchError,
    InvalidSpectrumError,
    dot,
    gemv,
    gen_spd_diag_dominant,
    gen_spd_spectrum,
)
from isocg.linalg import PreparedMatrix, as_vector

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class _Sub(np.ndarray):
    pass


class TestAsVector:
    """Valid vectors come back untouched; everything else converts as ``np.asarray`` does."""

    def test_native_float64_vector_is_returned_as_is(self, rng):
        v = rng.standard_normal(5)
        assert as_vector(v) is v
        column = np.arange(12.0).reshape(4, 3)[:, 1]
        assert as_vector(column) is column

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [1.0, -2.5, 3],
            lambda: (0.5, 7),
            lambda: np.arange(5, dtype=np.int64),
            lambda: np.linspace(-1, 1, 5, dtype=np.float32),
            lambda: np.linspace(-1, 1, 5).astype(">f8"),
            lambda: np.arange(10.0)[::3],
            lambda: np.arange(10.0)[::-2],
            lambda: np.arange(10.0).astype(">f8")[::2],
            lambda: np.arange(4.0).view(_Sub),
            lambda: np.ma.array([1.0, 2.0, 3.0]),
        ],
        ids=["list", "tuple", "int64", "float32", "big-endian", "strided", "reversed",
             "strided big-endian", "subclass", "masked"],
    )
    def test_other_inputs_convert_as_before(self, make):
        src = make()
        got = as_vector(src)
        expected = np.asarray(src, dtype=np.float64)
        assert type(got) is np.ndarray
        assert got.dtype == np.float64 and got.dtype.isnative
        assert np.array_equal(bits(got), bits(expected))
        assert (got is src) == (expected is src)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((2, 2)), np.zeros((3, 1)), np.zeros(0), [], [[1.0, 2.0]], 3.0, np.float64(2.0)],
        ids=["2x2", "3x1", "empty", "empty list", "nested list", "scalar", "0-d"],
    )
    def test_bad_shapes_raise(self, bad):
        with pytest.raises(DimensionMismatchError):
            as_vector(bad)


class TestGemv:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(gemv(np.eye(3), v), v)

    def test_hand_2x2(self):
        out = gemv([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        assert np.array_equal(out, np.array([6.0, 7.0]))

    def test_zero_vector(self, rng):
        a = rng.standard_normal((5, 5))
        assert np.array_equal(gemv(a, np.zeros(5)), np.zeros(5))

    def test_matches_left_fold_bitwise(self, rng):
        for shape in [(8, 8), (64, 64)]:
            a = rng.standard_normal(shape)
            v = rng.standard_normal(shape[1])
            assert np.array_equal(gemv(a, v), oracles.left_fold_gemv(a, v))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: gemv(np.eye(3), np.ones(4)), "matrix has 3 columns but vector has length 4"),
            (lambda: gemv(np.ones((2, 3)), np.ones(3)), r"square matrix, got shape \(2, 3\)"),
            (lambda: PreparedMatrix(np.ones((1, 5))), r"square matrix, got shape \(1, 5\)"),
        ],
        ids=["vector-length", "gemv-2x3", "prepared-1x5"],
    )
    def test_dimension_mismatch(self, call, message):
        with pytest.raises(DimensionMismatchError, match=message):
            call()

    @settings(max_examples=50, deadline=None)
    @given(v=arrays(np.float64, st.integers(1, 8), elements=finite_floats))
    def test_identity_property(self, v):
        assert np.array_equal(gemv(np.eye(v.size), v), v)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_linearity(self, data, n):
        elems = st.floats(min_value=-100, max_value=100, allow_nan=False)
        a = data.draw(arrays(np.float64, (n, n), elements=elems))
        u = data.draw(arrays(np.float64, n, elements=elems))
        v = data.draw(arrays(np.float64, n, elements=elems))
        lhs = gemv(a, u + v)
        rhs = gemv(a, u) + gemv(a, v)
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


class TestBlockedGemv:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (63, 63), (65, 65), (129, 129), (200, 200)]
    )
    def test_block_crossing_shapes_match_left_fold_bitwise(self, rng, shape):
        a = rng.standard_normal(shape)
        v = rng.standard_normal(shape[1])
        assert np.array_equal(bits(gemv(a, v)), bits(oracles.left_fold_gemv(a, v)))

    def test_cancelling_row_is_left_folded(self):
        # 1e16 + 1 rounds back to 1e16, so a left fold drops every 1 that follows
        # a 1e16 until -1e16 cancels it; a pairwise sum would keep them.
        a = np.ones((130, 130))
        a[0, 0] = a[1, 64] = 1e16
        a[:2, -1] = -1e16
        v = np.ones(130)
        out = gemv(a, v)
        assert np.array_equal(bits(out[:2]), bits([0.0, 64.0]))
        assert np.array_equal(bits(out), bits(oracles.left_fold_gemv(a, v)))
        assert not np.array_equal(out, a.sum(axis=1))

    def test_symmetric_matrix_is_its_own_layout(self):
        a = gen_spd_diag_dominant(100, 3)
        assert PreparedMatrix(a).cols is a

    def test_nonsymmetric_matrix_is_transposed(self, rng):
        a = rng.standard_normal((70, 70))
        prepared = PreparedMatrix(a)
        assert prepared.shape == (70, 70)
        assert prepared.cols.flags.c_contiguous
        assert np.array_equal(prepared.cols, a.T)

    def test_one_asymmetric_entry_takes_the_copy_path(self):
        a = gen_spd_diag_dominant(130, 3)
        a[129, 0] += 1.0
        assert PreparedMatrix(a).cols is not a
        assert np.array_equal(PreparedMatrix(a).cols, a.T)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: gen_spd_diag_dominant(150, 2),
            lambda rng: gen_spd_spectrum(np.logspace(0, 3, 150), 2),
        ],
        ids=["symmetric", "spectrum"],
    )
    def test_prepared_and_plain_forms_agree_bitwise(self, rng, make):
        a = make(rng)
        v = rng.standard_normal(a.shape[1])
        prepared = PreparedMatrix(a)
        assert PreparedMatrix(prepared).cols is prepared.cols
        assert np.array_equal(bits(gemv(prepared, v)), bits(gemv(a, v)))
        assert np.array_equal(bits(gemv(prepared, v)), bits(oracles.left_fold_gemv(a, v)))

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_random_shapes_match_left_fold_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        v = rng.standard_normal(n)
        assert np.array_equal(bits(gemv(a, v)), bits(oracles.left_fold_gemv(a, v)))


class TestUnbufferedScope:
    """The product's bits do not depend on numpy's ufunc buffer size."""

    @pytest.mark.parametrize(
        "shape", [(9, 9), (200, 200), (130, 130), (65, 65), (129, 129), (300, 300), (257, 257)]
    )
    def test_same_bits_inside_and_outside(self, rng, shape):
        a = rng.standard_normal(shape)
        v = rng.standard_normal(shape[1])
        prepared = PreparedMatrix(a)
        outside = gemv(prepared, v)
        for size in (16, 256, 8192):
            with np.errstate():  # restores the buffer size on exit
                np.setbufsize(size)
                inside = gemv(prepared, v)
            assert np.array_equal(bits(inside), bits(outside)), size
        assert np.array_equal(bits(outside), bits(oracles.left_fold_gemv(a, v)))


class TestEinsumContraction:
    """``einsum("ji,j->i")`` over Aᵀ is the left fold: summed axis outermost, no FMA."""

    @pytest.mark.parametrize("shape", [(130, 130), (200, 200), (300, 300)])
    def test_strided_vector_matches_left_fold_bitwise(self, rng, shape):
        a = rng.standard_normal(shape)
        v = np.repeat(rng.standard_normal(shape[1]), 2)[::2]
        assert not v.flags.c_contiguous
        assert np.array_equal(bits(gemv(PreparedMatrix(a), v)), bits(oracles.left_fold_gemv(a, v)))

    def test_multiply_and_add_round_separately(self):
        # Row i is 1*(-1) + (1 + 2**-30)*(1 - 2**-30).  The product rounds to 1.0,
        # so the left fold gives 0.0; a fused multiply-add keeps 1 - 2**-60 and
        # gives -2**-60.
        e = 2.0**-30
        a = np.array([[1.0, 1.0 + e], [1.0, 1.0 + e]])
        v = np.array([-1.0, 1.0 - e])
        assert np.array_equal(bits(oracles.left_fold_gemv(a, v)), bits([0.0, 0.0]))
        assert np.array_equal(bits(gemv(PreparedMatrix(a), v)), bits([0.0, 0.0])), (
            "gemv fused a multiply and an add: a numpy build with FMA in einsum "
            "breaks the determinism contract"
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_spd_spectrum(np.logspace(0, 3, 64), 0),
            lambda: gen_spd_spectrum(np.logspace(0, 3, 512), 0),
            lambda: gen_spd_diag_dominant(512, 0),
        ],
        ids=["spectrum-64", "spectrum-512", "diag-dominant-512"],
    )
    def test_benchmark_shapes_match_left_fold_bitwise(self, rng, make):
        a = make()
        v = rng.standard_normal(a.shape[1])
        assert np.array_equal(bits(gemv(PreparedMatrix(a), v)), bits(oracles.left_fold_gemv(a, v)))


class TestDot:
    def test_orthogonal(self):
        assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand(self):
        assert dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0

    def test_norm_squared_identity(self):
        assert dot([3.0, 4.0], [3.0, 4.0]) == 25.0

    def test_fixed_order(self, rng):
        u = rng.standard_normal(257)
        v = rng.standard_normal(257)
        assert dot(u, v) == oracles.left_fold_dot(u, v)

    def test_negative_zero_product_sums_to_positive_zero(self):
        # A fold from +0.0 never ends on -0.0, even when every product is -0.0.
        assert math.copysign(1.0, oracles.left_fold_dot([-1.0], [0.0])) == 1.0
        assert math.copysign(1.0, dot([-1.0], [0.0])) == 1.0

    @pytest.mark.parametrize(
        "u, v",
        [
            ([-1.0, -2.0], [0.0, 0.0]),
            ([-0.0, 1.0], [1.0, -1.0]),
            ([1.0, -1.0], [1.0, 1.0]),
            ([0.0, -3.0, 2.0], [-5.0, 0.0, 0.0]),
            ([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]),
        ],
    )
    def test_matches_left_fold_bitwise(self, u, v):
        assert bits(dot(u, v)) == bits(oracles.left_fold_dot(u, v))

    def test_random_matches_left_fold_bitwise(self, rng):
        for n in (1, 2, 63, 64, 65, 257):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            assert bits(dot(u, v)) == bits(oracles.left_fold_dot(u, v))

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dot([1.0], [1.0, 2.0])


class TestDiagDominantGenerator:
    def test_n1(self):
        assert np.array_equal(gen_spd_diag_dominant(1, 0), np.array([[1.0]]))

    def test_deterministic(self):
        a = gen_spd_diag_dominant(32, 7)
        b = gen_spd_diag_dominant(32, 7)
        assert np.array_equal(a, b)

    def test_structure(self):
        a = gen_spd_diag_dominant(16, 4)
        assert np.array_equal(a, a.T)
        off = a - np.diag(np.diag(a))
        assert np.all(off >= 0.0) and np.all(off < 1.0)
        # strict diagonal dominance with unit margin
        assert np.allclose(np.diag(a), off.sum(axis=1) + 1.0)

    def test_smallest_eigenvalue_positive(self):
        a = gen_spd_diag_dominant(64, 7)
        eigs = oracles.jacobi_eigenvalues(a)
        assert eigs[0] > 0.0

    def test_quadratic_form_positive(self, rng):
        a = gen_spd_diag_dominant(32, 5)
        for _ in range(100):
            v = rng.standard_normal(32)
            assert v @ a @ v > 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gen_spd_diag_dominant(0, 1)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_matches_whole_matrix_formula_bitwise(self, n, seed):
        got = gen_spd_diag_dominant(n, seed)
        assert np.array_equal(bits(got), bits(oracles.diag_dominant_matrix(n, seed)))


class TestSpectrumGenerator:
    def test_identity_spectrum(self):
        a = gen_spd_spectrum(np.ones(8), 3)
        assert np.max(np.abs(a - np.eye(8))) < 1e-12

    def test_condition_number_2x2(self):
        a = gen_spd_spectrum([1.0, 100.0], 11)
        lo, hi = oracles.sym_2x2_eigenvalues(a[0, 0], a[0, 1], a[1, 1])
        assert hi / lo == pytest.approx(100.0, rel=1e-10)

    def test_symmetry(self):
        a = gen_spd_spectrum(np.logspace(0, 2, 16), 3)
        assert np.max(np.abs(a - a.T)) < 1e-12

    def test_spectrum_recovered(self):
        target = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        a = gen_spd_spectrum(target, 9)
        eigs = oracles.jacobi_eigenvalues(a)
        assert np.max(np.abs(eigs - target)) < 1e-9

    def test_deterministic(self):
        a = gen_spd_spectrum([1.0, 2.0, 3.0], 5)
        b = gen_spd_spectrum([1.0, 2.0, 3.0], 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -2.0], [np.nan, 1.0]])
    def test_invalid_spectrum(self, bad):
        with pytest.raises(InvalidSpectrumError):
            gen_spd_spectrum(bad, 0)

    def test_empty_spectrum(self):
        with pytest.raises(DimensionMismatchError, match="at least one element"):
            gen_spd_spectrum([], 0)

