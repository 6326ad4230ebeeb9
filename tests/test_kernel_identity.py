"""The Jacobian kernel reproduces, bit for bit, the plain formulation: one
2-D gather of ``x``, ``np.prod`` along each row, then ``np.add.at`` over
the 2-D (row, column) index.  The contraction ``apply`` is, bit for bit,
the row sums ``(T * x).sum(axis=1) / (m-1)`` of that reference Jacobian.

That formulation is kept here as the reference.  Equality is on the raw
bytes, not within a tolerance: every solver trace depends on
``jacobian_T``, so a last-bit change would change traces, and ``apply``
reads the contraction from the same Jacobian as every solve, so a residual
it gives is the one a report holds.  The property runs at the
``max_examples`` of the loaded hypothesis profile (``tests/conftest.py``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeigen.tensor
from zeigen import Tensor, apply, build_tensor, jacobian_T, parse_tensor_text, random_tensor

from conftest import reference_apply


def reference_jacobian(A: Tensor, x: np.ndarray) -> np.ndarray:
    T = np.zeros((A.n, A.n))
    if A.nnz == 0:
        return T
    rows = A.indices[:, 0]
    for p in range(1, A.m):
        others = [q for q in range(1, A.m) if q != p]
        partial = A.values * np.prod(x[A.indices[:, others]], axis=1)
        np.add.at(T, (rows, A.indices[:, p]), partial)
    return T


def reference_euler(A: Tensor, x: np.ndarray) -> np.ndarray:
    """The contraction as ``apply`` takes it, on the reference Jacobian."""
    return (reference_jacobian(A, x) * x).sum(axis=1) / (A.m - 1)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def tensors_and_vectors(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 20))
    tuples = draw(st.lists(st.tuples(*[st.integers(1, n)] * m), unique=True, max_size=60))
    values = draw(
        st.lists(st.floats(0.0, 1e3), min_size=len(tuples), max_size=len(tuples))
    )
    # zeros and negative entries: plain Newton iterates leave the cone
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0))
    x = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
    return build_tensor(m, n, zip(tuples, values)), x


@settings(deadline=None)
@given(tensors_and_vectors())
def test_kernels_match_reference_bits(case):
    A, x = case
    # entries in the order given, in the stored (column-major) layout and
    # in a row-major copy of the same indices
    row_major = Tensor(A.m, A.n, np.ascontiguousarray(A.indices), A.values)
    for B in (A, row_major):
        assert_same_bits(apply(B, x), reference_euler(B, x))
        assert_same_bits(jacobian_T(B, x), reference_jacobian(B, x))


def test_empty_tensor_kernels_are_zero():
    for m in range(2, 6):
        for n in (1, 4, 8):
            A = build_tensor(m, n, [])
            x = np.linspace(-1.0, 1.0, n)
            assert_same_bits(apply(A, x), reference_apply(A, x))
            assert_same_bits(jacobian_T(A, x), reference_jacobian(A, x))


def mixed_vector(n: int, seed: int) -> np.ndarray:
    """Negative and positive entries with -0.0 and +0.0 among them."""
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    x[0::3] = -0.0
    x[1::3] = 0.0
    return x


# Plans the property cannot build (n <= 20, at most 60 entries) or seldom
# does, each with the table depth of jacobian_T it must have.  A depth
# short of m-2 leaves columns multiplied in per term; a full depth folds
# every factor into the table.  The ids name the largest output cell each
# reaches: past uint8, past uint16 (the sort takes the full cells, and most
# rows of its plan are empty), and n = 1; sweep-sparse-shape is the shape of
# the sparse benchmark sweep.  apply reads the same Jacobian, and runs on
# every case too.
PLAN_CASES = [
    pytest.param(lambda: random_tensor(4, 20, 0.3, 7), 2, id="uint16"),
    pytest.param(lambda: random_tensor(6, 12, 0.001, 7), 3, id="leftover-columns"),
    pytest.param(lambda: random_tensor(2, 300, 0.005, 7), 0, id="intp-cells"),
    pytest.param(lambda: build_tensor(3, 1, [((1, 1, 1), 2.5)]), 1, id="n1"),
    pytest.param(lambda: random_tensor(4, 40, 0.002, 7), 2, id="sweep-sparse-shape"),
    pytest.param(lambda: random_tensor(3, 40, 0.0005, 7), 0, id="depth-0-leftover"),
]


@pytest.mark.parametrize("make, depth", PLAN_CASES)
def test_kernels_match_reference_bits_on_every_plan_kind(make, depth):
    A = make()
    plan = A._plan
    assert plan.depth == depth
    assert plan.rests.shape == (A.m - 2 - depth, (A.m - 1) * A.nnz)
    for part in (A.indices, plan.indptr, plan.flats, plan.rests):
        assert part.dtype == np.int32
    assert plan.values.dtype == np.float64
    row_major = Tensor(A.m, A.n, np.ascontiguousarray(A.indices), A.values)
    for x in (mixed_vector(A.n, 0), -np.abs(mixed_vector(A.n, 1)) - 0.5):
        for B in (A, row_major):
            assert_same_bits(apply(B, x), reference_euler(B, x))
            assert_same_bits(jacobian_T(B, x), reference_jacobian(B, x))


@pytest.mark.parametrize("make, depth", PLAN_CASES)
def test_one_compiled_call_per_jacobian(monkeypatch, make, depth):
    A = make()
    compiled, rows = zeigen.tensor.csr_matvec, []

    def counting(n_row, *args):
        rows.append(n_row)
        return compiled(n_row, *args)

    monkeypatch.setattr(zeigen.tensor, "csr_matvec", counting)
    jacobian_T(A, mixed_vector(A.n, 3))
    # one row per cell of T(x), occupied or not
    assert rows == [A.n * A.n]


def traced_peak(build) -> int:
    """Peak bytes tracemalloc sees while ``build()`` raises ``ValueError``."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_jacobian_past_int32_cells_is_refused_before_any_allocation():
    n = 46341  # n * n > 2**31 - 1; its plan's indptr alone would take 8.6 GB
    assert traced_peak(lambda: build_tensor(2, n, [((n, n), 2.0)])) < 1 << 20


def test_a_plan_past_int32_terms_is_refused_before_any_allocation():
    # (m-1) * nnz = 2**31 terms; the indices are one broadcast zero, so the
    # only arrays are the 256 KiB of values and their copy
    m, nnz = 2**16 + 1, 2**15
    indices = np.broadcast_to(np.zeros(1, dtype=np.int32), (nnz, m))
    values = np.zeros(nnz)
    assert traced_peak(lambda: Tensor(m, 1, indices, values)) < 1 << 20


def test_empty_tensor_of_high_order_builds_no_position_table():
    # a plan with terms takes them through a table of (m-1) * (m-2) Python
    # ints, about 176 MB at m = 2000; a tensor without terms needs none
    tracemalloc.start()
    try:
        A = parse_tensor_text("2000 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert A.nnz == 0 and A._plan.flats.size == A._plan.rests.size == 0
    x = np.array([0.25, 0.75])
    assert_same_bits(apply(A, x), np.zeros(2))
    assert_same_bits(jacobian_T(A, x), np.zeros((2, 2)))


def test_one_entry_of_high_order_peaks_near_its_plan():
    # the position table of a plan with terms is arithmetic on one arange; as
    # (m-1) * (m-2) Python ints it peaked at 11 times the plan's own bytes
    m = 2000
    tracemalloc.start()
    try:
        A = parse_tensor_text(f"{m} 2\n" + " ".join(["1"] * m) + " 1.0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.nnz == 1 and A._plan.rests.shape == (m - 2, m - 1)
    assert peak < 6 * sum(part.nbytes for part in A._plan[1:])
    x = np.array([0.25, 0.75])
    assert_same_bits(jacobian_T(A, x), reference_jacobian(A, x))


def test_every_plan_kind_is_covered():
    cases = [case.values for case in PLAN_CASES]
    assert {depth == make().m - 2 for make, depth in cases} == {True, False}


def test_plan_is_compact_and_read_only_on_family_shapes():
    # family-sized tensors are many and small: per term of jacobian_T, m-1
    # per stored entry, the plan holds an int32 table index and a float
    # value, and an int32 x index per factor the table leaves out; per cell
    # of T(x) an int32 indptr entry; and indptr's closing entry
    for m in range(2, 6):
        for n in range(1, 7):
            for density in (0.05, 0.3, 1.0):
                A = random_tensor(m, n, density, m * n)
                plan = A._plan
                bound = 12 * (m - 1) * A.nnz + 4 * plan.rests.size + 4 * (n * n + 1)
                assert sum(part.nbytes for part in plan[1:]) <= bound, (m, n, density)
                for part in (A.indices, plan.indptr, plan.flats, plan.rests):
                    assert part.dtype == np.int32
                assert plan.values.dtype == np.float64
                for part in plan[1:] + (A.indices,):
                    assert not part.flags.writeable
