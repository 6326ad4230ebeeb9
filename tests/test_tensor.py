"""Tests for tensor construction, contraction, Jacobian, residual, ratio
bounds, and norm conversion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zeigen import (
    BadArity,
    DimensionMismatch,
    DuplicateIndexTuple,
    IndexOutOfRange,
    NegativeEntry,
    NegativeInput,
    Tensor,
    ZeroVector,
    apply,
    build_tensor,
    jacobian_T,
    load_tensor,
    parse_tensor_text,
    random_tensor,
    ratio_bounds,
    residual,
    z1_to_z2,
)
from zeigen.errors import TensorFormatError

from conftest import dense_apply, reference_apply


class TestBuildTensor:
    def test_valid_quartic(self, quartic2):
        assert quartic2.m == 4
        assert quartic2.n == 2
        assert quartic2.nnz == 4

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            build_tensor(3, 3, [((2, 1, 3), -1.0)])

    def test_duplicate_tuple_rejected(self):
        with pytest.raises(DuplicateIndexTuple):
            build_tensor(3, 3, [((2, 1, 3), 1.0), ((2, 1, 3), 2.0)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_tensor(3, 3, [((2, 1, 4), 1.0)])
        with pytest.raises(IndexOutOfRange):
            build_tensor(3, 3, [((0, 1, 2), 1.0)])

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            build_tensor(3, 3, [((2, 1), 1.0)])

    def test_bad_order_and_dimension(self):
        with pytest.raises(ValueError):
            build_tensor(1, 3, [])
        with pytest.raises(ValueError):
            build_tensor(3, 0, [])
        with pytest.raises(ValueError, match="order >= 2"):
            Tensor(1, 2, np.zeros((0, 1), dtype=np.int64), np.zeros(0))

    def test_random_tensor_checks_order_and_dimension(self):
        with pytest.raises(ValueError, match="order must be >= 2, got 1"):
            random_tensor(1, 3, 0.5, 0)
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            random_tensor(2, 0, 0.5, 0)

    def test_entries_immutable(self, quartic2):
        with pytest.raises(ValueError):
            quartic2.values[0] = 5.0

    def test_tuples_whose_flat_indices_differ_by_2_to_the_64_are_distinct(self):
        # sum (i_k - 1) * 20^(16-k) of the first tuple is exactly 2**64, and
        # 0 for the second: an int64 flat index would call them equal
        far = (1, 12, 6, 4, 12, 20, 18, 1, 8, 12, 15, 5, 14, 20, 1, 17)
        A = build_tensor(16, 20, [(far, 1.0), ((1,) * 16, 2.0)])
        assert A.nnz == 2

    def test_first_offending_entry_decides(self):
        with pytest.raises(NegativeEntry):
            build_tensor(2, 2, [((1, 1), -1.0), ((3, 1), 1.0)])
        with pytest.raises(IndexOutOfRange):
            build_tensor(2, 2, [((3, 1), 1.0), ((1, 1), -1.0)])
        with pytest.raises(DuplicateIndexTuple):
            build_tensor(2, 2, [((1, 2), 1.0), ((1, 2), 2.0), ((1,), 1.0)])
        with pytest.raises(BadArity):
            build_tensor(2, 2, [((1, 2), 1.0), ((1,), 1.0), ((1, 2), 2.0)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(NegativeEntry, match=f"has non-finite value {value}$"):
            build_tensor(2, 2, [((1, 1), 1.0), ((2, 1), value)])
        with pytest.raises(NegativeEntry, match="^<string>:3: "):
            parse_tensor_text(f"2 2\n1 1 1.0\n2 1 {value}\n")

    def test_index_beyond_int64_is_out_of_range(self):
        with pytest.raises(IndexOutOfRange, match=str(2**70)):
            build_tensor(2, 2, [((1, 1), 1.0), ((1, 2**70), 1.0)])
        with pytest.raises(NegativeEntry):
            build_tensor(2, 2, [((1, 1), -1.0), ((1, -(2**70)), 1.0)])
        with pytest.raises(IndexOutOfRange, match="^<string>:2: "):
            parse_tensor_text(f"2 2\n1 {2**70} 1.0\n")


class TestTensorConstructor:
    """``Tensor(...)`` itself checks the arrays: the compiled kernel loop
    indexes its output with them and checks no bounds."""

    def test_index_past_n_rejected(self):
        with pytest.raises(IndexOutOfRange):
            Tensor(2, 2, np.array([[0, 5]]), np.array([1.0]))

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            Tensor(2, 2, np.array([[0, 1], [-1, 0]]), np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Tensor(2, 2, np.array([[0, 1], [1, 0]]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):  # a tuple of m + 1 indices
            Tensor(2, 2, np.array([[0, 1, 1]]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            Tensor(2, 2, np.array([[0, 1]]), np.array([[1.0]]))

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_value_rejected(self, value):
        with pytest.raises(NegativeEntry):
            Tensor(2, 2, np.array([[0, 1]]), np.array([value]))

    def test_non_integer_indices_rejected(self):
        with pytest.raises(TypeError):
            Tensor(2, 2, np.array([[0.0, 1.0]]), np.array([1.0]))

    def test_tensor_owns_its_values(self):
        # a write to the caller's array after the check must not reach the tensor
        v = np.array([1.0, 2.0])
        A = Tensor(3, 2, np.array([[0, 0, 0], [1, 1, 1]]), v)
        x = np.array([0.5, 0.5])
        before = apply(A, x).tobytes(), jacobian_T(A, x).tobytes()
        v[0] = -5.0
        assert A.values is not v and not A.values.flags.writeable
        assert A.values.tolist() == [1.0, 2.0]
        assert (apply(A, x).tobytes(), jacobian_T(A, x).tobytes()) == before

    def test_equality_and_hash_go_by_identity(self):
        entries = [((1, 1), 1.0), ((2, 1), 2.0)]
        A, B = build_tensor(2, 2, entries), build_tensor(2, 2, entries)
        assert A == A and A != B
        assert len({A, B, A}) == 2

    def test_repeated_index_tuples_are_summed(self):
        # the COO convention; build_tensor is the entry point that rejects them
        A = Tensor(3, 2, np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]), np.array([1.0, 4.0, 2.0]))
        B = Tensor(3, 2, np.array([[0, 1, 0], [1, 1, 1]]), np.array([3.0, 4.0]))
        x = np.array([0.5, -0.25])
        assert apply(A, x).tolist() == apply(B, x).tolist() == [-0.375, 0.25]
        assert jacobian_T(A, x).tolist() == jacobian_T(B, x).tolist()

    def test_other_integer_and_value_types_give_the_same_kernels(self):
        A = build_tensor(3, 4, [((1, 2, 3), 2.0), ((4, 4, 1), 3.0), ((2, 1, 1), 5.0)])
        B = Tensor(3, 4, A.indices.astype(np.uint8), [2, 3, 5])
        assert B.indices.dtype == np.int32 and B.values.dtype == float
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert apply(B, x).tobytes() == apply(A, x).tobytes()
        assert jacobian_T(B, x).tobytes() == jacobian_T(A, x).tobytes()


class TestApply:
    def test_known_values(self, quartic2):
        # hand evaluation of 1.1 x1^3 + 0.25 x1^2 x2 + 0.25 x2^3 and 1.2 x2^3
        assert_allclose(apply(quartic2, [0.19, 0.81]), [0.1477154, 0.6377292], atol=1e-12)
        # each product is rounded before it is added: a fused multiply-add
        # would give 2**-26 + 2**-54, the exact value of -1 + (1 + 2**-27)**2
        A = build_tensor(2, 2, [((1, 1), 1.0), ((1, 2), 1 + 2**-27)])
        assert apply(A, [-1.0, 1 + 2**-27]).tolist() == [2**-26, 0.0]

    def test_unit_vector(self, quartic2):
        assert_allclose(apply(quartic2, [1.0, 0.0]), [1.1, 0.0], atol=0)

    def test_degenerate_eigenvector(self, cubic3):
        assert_allclose(apply(cubic3, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0], atol=0)

    def test_dimension_mismatch(self, quartic2):
        with pytest.raises(DimensionMismatch):
            apply(quartic2, [1.0, 0.0, 0.0])

    def test_matches_dense_oracle_on_random_tensors(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            A = random_tensor(m, n, float(rng.uniform(0.2, 1.0)), int(rng.integers(1e9)))
            x = rng.standard_normal(n)
            entries = [
                (tuple(int(i) + 1 for i in A.indices[r]), A.values[r]) for r in range(A.nnz)
            ]
            assert_allclose(apply(A, x), dense_apply(m, n, entries, x), rtol=1e-12, atol=1e-12)

    def test_homogeneous_of_degree_m_minus_1(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            A = random_tensor(m, n, 0.5, int(rng.integers(1e9)))
            x = rng.standard_exponential(n)
            t = float(rng.uniform(0.5, 2.0))
            assert_allclose(
                apply(A, t * x), t ** (m - 1) * apply(A, x), rtol=1e-12, atol=1e-14
            )

    def test_nonnegative_on_cone(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            A = random_tensor(3, 4, 0.6, trial)
            x = rng.standard_exponential(4)
            assert np.all(apply(A, x) >= 0)
            assert np.all(jacobian_T(A, x) >= 0)


class TestJacobian:
    def test_degenerate_point(self, cubic3):
        expected = [[0, 0, 0], [0, 0, 1], [0, 1, 1]]
        assert_allclose(jacobian_T(cubic3, [1.0, 0.0, 0.0]), expected, atol=0)

    def test_matrix_case_is_constant(self):
        A = build_tensor(2, 3, [((1, 2), 0.5), ((3, 3), 2.0), ((2, 1), 1.5)])
        M = np.array([[0, 0.5, 0], [1.5, 0, 0], [0, 0, 2.0]])
        for x in (np.zeros(3), np.ones(3), np.array([0.3, -1.0, 2.0])):
            assert_allclose(jacobian_T(A, x), M, atol=0)
            assert_allclose(apply(A, x), M @ x, atol=1e-15)

    def test_finite_differences(self, quartic2):
        x = np.array([0.3, 0.7])
        T = jacobian_T(quartic2, x)
        h = 1e-6
        for j in range(2):
            hj = h * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += hj
            xm[j] -= hj
            column = (apply(quartic2, xp) - apply(quartic2, xm)) / (2 * hj)
            assert_allclose(column, T[:, j], rtol=1e-6, atol=1e-9)

    def test_euler_identity(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(2, 7))
            A = random_tensor(m, n, 0.7, int(rng.integers(1e9)))
            x = rng.standard_exponential(n)
            lhs = jacobian_T(A, x) @ x
            rhs = (m - 1) * reference_apply(A, x)
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


class TestResidual:
    def test_exact_pairs(self, quartic2, cubic3):
        assert residual(quartic2, [1.0, 0.0], 1.1) == 0.0
        assert residual(cubic3, [1.0, 0.0, 0.0], 0.0) == 0.0

    def test_known_norm(self, quartic2):
        assert_allclose(residual(quartic2, [0.19, 0.81], 0.0), 0.7854446, atol=1e-12)


class TestRatioBounds:
    # four-digit interval endpoints for quartic2 near its interior eigenvector
    INTERVALS = [
        ([0.19, 0.81], (0.7774, 0.7873)),
        ([0.187, 0.813], (0.7932, 0.7949)),
        ([0.1875, 0.8125], (0.7919, 0.7922)),
    ]

    @pytest.mark.parametrize("x,expected", INTERVALS)
    def test_interval_endpoints(self, quartic2, x, expected):
        w = apply(quartic2, x)
        low, high = ratio_bounds(w, x)
        assert low == pytest.approx(expected[0], abs=5e-5)
        assert high == pytest.approx(expected[1], abs=5e-5)
        # cross-check against direct elementwise quotients
        assert low == pytest.approx(min(w / np.asarray(x)), abs=1e-15)
        assert high == pytest.approx(max(w / np.asarray(x)), abs=1e-15)

    def test_extended_definition(self):
        low, high = ratio_bounds([1.0, 2.0], [0.0, 1.0])
        assert (low, high) == (0.0, 2.0)

    def test_extended_bare_term_dominates(self):
        low, high = ratio_bounds([5.0, 1.0], [0.0, 1.0])
        assert (low, high) == (0.0, 5.0)

    def test_extended_no_extra_support(self):
        # support of w inside support of v: plain ratios over the nonzeros of v
        low, high = ratio_bounds([0.0, 1.0, 3.0], [0.0, 1.0, 2.0])
        assert (low, high) == (1.0, 1.5)

    def test_brackets_all_ratios(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(1, 8))
            w = rng.standard_normal(n)
            v = rng.standard_exponential(n) + 1e-3
            low, high = ratio_bounds(w, v)
            assert low <= high
            assert np.all(w / v >= low - 1e-15)
            assert np.all(w / v <= high + 1e-15)

    def test_dust_signed_zero_and_subnormal_v(self):
        # a component at or below RATIO_ZERO_TOL * ||v||_1 counts as zero,
        # -0.0 too; a subnormal v whose threshold underflows to 0 keeps the
        # plain ratios
        assert ratio_bounds([1.0, 1.0], [1.0, 1e-16]) == (0.0, 1.0)
        assert ratio_bounds([2.0, 3.0], [-0.0, 1.0]) == (0.0, 3.0)
        assert ratio_bounds([1e-323, 5e-324], [5e-324, 5e-324]) == (1.0, 2.0)

    def test_exact_pair_collapses_interval(self):
        # row sums 1: x = [0.5, 0.5] is an eigenvector with eigenvalue 1
        A = build_tensor(2, 2, [((1, 1), 0.5), ((1, 2), 0.5), ((2, 1), 0.5), ((2, 2), 0.5)])
        x = np.array([0.5, 0.5])
        assert residual(A, x, 1.0) == 0.0
        assert ratio_bounds(apply(A, x), x) == (1.0, 1.0)

    def test_zero_vector_rejected(self):
        # an empty v sums to 0, so it raises ZeroVector before any v.min()
        for w, v in (([1.0, 2.0], [0.0, 0.0]), ([1.0, 2.0], [-0.0, 0.0]), ([], [])):
            with pytest.raises(ZeroVector):
                ratio_bounds(w, v)

    def test_unequal_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            ratio_bounds([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_negative_input_rejected(self):
        with pytest.raises(NegativeInput):
            ratio_bounds([-1.0, 2.0], [0.0, 1.0])
        with pytest.raises(NegativeInput):
            ratio_bounds([1.0, 2.0], [-1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_v_rejected(self, bad):
        # named at the norm check, not by a reduction over an empty selection
        with pytest.raises(ValueError, match="finite v"):
            ratio_bounds([1.0, 1.0], [bad, 1.0])


class TestNormConversion:
    def test_already_unit(self):
        y, mu = z1_to_z2([1.0, 0.0], 1.1, 4)
        assert_allclose(y, [1.0, 0.0], atol=0)
        assert mu == 1.1

    def test_uniform_vector(self):
        y, mu = z1_to_z2([0.5, 0.5], 1.0, 3)
        assert_allclose(y, [0.7071068, 0.7071068], atol=1e-7)
        assert mu == pytest.approx(1.4142136, abs=1e-7)

    def test_converted_pair_satisfies_two_norm_equation(self, quartic2):
        x = np.array([0.1874, 0.8126])
        lam = 0.7923
        y, mu = z1_to_z2(x, lam, 4)
        assert np.linalg.norm(y, 2) == pytest.approx(1.0, abs=1e-14)
        # the input is only a four-digit eigenpair, so allow matching slack
        assert np.linalg.norm(apply(quartic2, y) - mu * y, 1) <= 1e-3

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            z1_to_z2([0.0, 0.0], 1.0, 3)


class TestTextFormat:
    def test_roundtrip_fixture(self, quartic2_path, quartic2):
        A = load_tensor(quartic2_path)
        assert A.m == quartic2.m and A.n == quartic2.n and A.nnz == quartic2.nnz
        x = np.array([0.3, 0.7])
        assert_allclose(apply(A, x), apply(quartic2, x), atol=0)

    def test_comments_and_blank_lines(self):
        A = parse_tensor_text("# c\n\n3 2\n1 1 2 0.5  # inline\n2 2 2 1\n")
        assert A.m == 3 and A.n == 2 and A.nnz == 2

    def test_malformed_line_names_line_number(self):
        with pytest.raises(TensorFormatError, match="line 3|:3:"):
            parse_tensor_text("3 2\n1 1 2 0.5\n1 2 oops\n")

    def test_empty_file(self):
        with pytest.raises(TensorFormatError):
            parse_tensor_text("# nothing here\n")

    @pytest.mark.parametrize("text", ["3\n", "1 2\n"])
    def test_bad_header_names_line(self, text):
        with pytest.raises(TensorFormatError, match="^<string>:1: "):
            parse_tensor_text(text)

    def test_duplicate_entry_names_both_lines(self):
        with pytest.raises(DuplicateIndexTuple, match="line 2"):
            parse_tensor_text("3 2\n1 1 2 0.5\n1 1 2 0.75\n")

    def test_negative_value(self):
        with pytest.raises(NegativeEntry):
            parse_tensor_text("3 2\n1 1 2 -0.5\n")

    def test_first_offending_line_decides(self):
        with pytest.raises(IndexOutOfRange, match="^<string>:2: "):
            parse_tensor_text("2 2\n1 3 1.0\n1 oops 1.0\n")
        with pytest.raises(TensorFormatError, match="^<string>:2: "):
            parse_tensor_text("2 2\n1 oops 1.0\n1 3 1.0\n")
        with pytest.raises(DuplicateIndexTuple, match="^<string>:4: .* line 2$"):
            parse_tensor_text("2 2\n1 2 1.0\n2 2 1.0\n1 2 1.0\n1 2 3 1.0\n")
