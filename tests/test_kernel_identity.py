"""The Jacobian kernel reproduces, bit for bit, the merged formulation the
plan is built from, taken here entry by entry in Python floats: each entry's
key is its first index and its sorted trailing indices, a key's value is its
entries' values summed from +0.0 in input order, and each distinct index
``j`` of a key's sorted tail adds ``(multiplicity of j * value) * product``
of the tail less one ``j``, left to right, into cell ``(i1, j)``, the keys in
sorted order from +0.0.  The contraction ``apply`` is, bit for bit, the row
sums ``(T * x).sum(axis=1) / (m-1)`` of that reference Jacobian.

Equality is on the raw bytes, not within a tolerance: every solver trace
depends on ``jacobian_T``, so a last-bit change would change traces, and
``apply`` reads the contraction from the same Jacobian as every solve, so a
residual it gives is the one a report holds.  The plain formulation, one
term per entry and position summed with ``np.add.at``, is kept as an
accuracy oracle (``plain_jacobian`` in ``tests/conftest.py``, where the
Newton step oracles build on it): the merged Jacobian lies within a
rounding bound of it.
The properties run at the ``max_examples`` of the loaded hypothesis profile
(``tests/conftest.py``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeigen.tensor
from zeigen import Tensor, apply, build_tensor, jacobian_T, parse_tensor_text, random_tensor

from conftest import plain_jacobian, reference_apply

EPS = np.finfo(float).eps
TINY = 2.0**-1074  # the smallest subnormal: what one underflowing rounding can lose


def merged_keys(A: Tensor) -> dict:
    """Each key ``(i1, sorted tail)`` and its entries' values summed from 0.0
    in input order."""
    keys = {}
    for index, value in zip(A.indices.tolist(), A.values.tolist()):
        key = (index[0], tuple(sorted(index[1:])))
        keys[key] = keys.get(key, 0.0) + value
    return keys


def reference_jacobian(A: Tensor, x: np.ndarray) -> np.ndarray:
    """``T(x)`` of the merged formulation, one key and one index at a time."""
    T = np.zeros((A.n, A.n))
    x = x.tolist()
    for (i, tail), value in sorted(merged_keys(A).items()):
        for j in sorted(set(tail)):
            rest = list(tail)
            rest.remove(j)
            product = 1.0
            for index in rest:
                product *= x[index]
            T[i, j] += (tail.count(j) * value) * product
    return T


def merged_term_count(A: Tensor) -> int:
    """The plan's terms: one per key and distinct index of its tail."""
    return sum(len(set(tail)) for _, tail in merged_keys(A))


def reference_euler(A: Tensor, x: np.ndarray) -> np.ndarray:
    """The contraction as ``apply`` takes it, on the reference Jacobian."""
    return (reference_jacobian(A, x) * x).sum(axis=1) / (A.m - 1)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def tensors_and_vectors(draw, max_n=20):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, max_n))
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


@settings(deadline=None)
@given(tensors_and_vectors())
def test_merged_jacobian_is_within_rounding_of_the_plain_sum(case):
    # A term of either sum takes at most m roundings of its own, and the sum
    # of a key's values and a cell's terms one per addend: N = m * (nnz + 1)
    # bounds the roundings behind a cell.  Each sum is then within
    # gamma_N < N eps of the exact T(x), relative to the sum of its absolute
    # terms, the plain T(|x|); and underflow loses at most TINY / 2 a
    # rounding, scaled by a coefficient below (m-1) * sum(values) or 1 and
    # by the factors after it, each below max(1, |x|)
    A, x = case
    N = A.m * (A.nnz + 1)
    scale = max(1.0, (A.m - 1) * float(A.values.sum())) * max(1.0, float(np.abs(x).max())) ** (A.m - 2)
    bound = 2 * N * EPS * plain_jacobian(A, np.abs(x)) + N * TINY * scale
    assert np.all(np.abs(jacobian_T(A, x) - plain_jacobian(A, x)) <= bound)


@settings(deadline=None)
@given(tensors_and_vectors(max_n=4), st.randoms(use_true_random=False))
def test_kernels_do_not_see_the_order_of_trailing_indices(case, random):
    # each entry's indices 2..m permuted on its own, the entries in input
    # order; a permuted tuple may repeat another, which Tensor sums.  A small
    # n puts many terms in each cell, where their order shows in the bits
    A, x = case
    indices = A.indices.copy()
    for row in indices:
        tail = list(row[1:])
        random.shuffle(tail)
        row[1:] = tail
    B = Tensor(A.m, A.n, indices, A.values)
    assert_same_bits(jacobian_T(B, x), jacobian_T(A, x))
    assert_same_bits(apply(B, x), apply(A, x))


def test_a_dense_plan_keeps_at_most_half_the_terms_of_one_per_position():
    A = random_tensor(4, 20, 0.3, 7)
    assert 2 * A._plan.values.size <= (A.m - 1) * A.nnz
    assert A._plan.values.size == merged_term_count(A)


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


def merging_past_int64() -> Tensor:
    """Order 30, dimension 5: a key's digits pass int64 (5^30 > 2^63), and
    each of the 40 entries comes again with its trailing indices reversed."""
    rng = np.random.default_rng(7)
    indices = rng.integers(0, 5, (40, 30))
    indices = np.concatenate([indices, np.concatenate([indices[:, :1], indices[:, :0:-1]], axis=1)])
    return Tensor(30, 5, indices, rng.uniform(0.0, 1.0, 80))


# Plans the property cannot build (n <= 20, at most 60 entries) or seldom
# does, each with the table depth of jacobian_T it must have.  A depth
# short of m-2 leaves columns multiplied in per term; a full depth folds
# every factor into the table.  The first ids name the largest output cell
# each reaches: past uint8, past uint16 (most rows of its plan are empty),
# and n = 1; sweep-sparse-shape is the shape of the sparse benchmark sweep,
# and keys-past-int64 has keys the build must rank part way.  apply reads
# the same Jacobian, and runs on every case too.
PLAN_CASES = [
    pytest.param(lambda: random_tensor(4, 20, 0.3, 7), 2, id="uint16"),
    pytest.param(lambda: random_tensor(6, 12, 0.001, 7), 3, id="leftover-columns"),
    pytest.param(lambda: random_tensor(2, 300, 0.005, 7), 0, id="intp-cells"),
    pytest.param(lambda: build_tensor(3, 1, [((1, 1, 1), 2.5)]), 1, id="n1"),
    pytest.param(lambda: random_tensor(4, 40, 0.002, 7), 2, id="sweep-sparse-shape"),
    pytest.param(lambda: random_tensor(3, 40, 0.0005, 7), 0, id="depth-0-leftover"),
    pytest.param(merging_past_int64, 2, id="keys-past-int64"),
]


@pytest.mark.parametrize("make, depth", PLAN_CASES)
def test_kernels_match_reference_bits_on_every_plan_kind(make, depth):
    A = make()
    plan = A._plan
    assert plan.depth == depth
    assert plan.rests.shape == (A.m - 2 - depth, merged_term_count(A))
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
    # the entry's m-1 trailing indices are one index m-1 times, so one term
    # with m-2 factors: a build that took the (m-1) * (m-2) factors of one
    # term per position would peak at 2000 times the plan's own bytes
    m = 2000
    A = parse_tensor_text(f"{m} 2\n" + " ".join(["1"] * m) + " 1.0\n")
    tracemalloc.start()
    try:
        B = Tensor(A.m, A.n, A.indices, A.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.nnz == 1 and B._plan.rests.shape == (m - 2, 1)
    assert_same_bits(B._plan.values, np.array([m - 1.0]))
    assert peak < 6 * sum(part.nbytes for part in B._plan[1:])
    x = np.array([0.25, 0.75])
    assert_same_bits(jacobian_T(A, x), reference_jacobian(A, x))


def test_row_pointers_of_a_sparse_plan_take_one_temporary():
    # 450 entries over 90000 cells, so the row pointers dominate the build:
    # indptr's 4 bytes a cell beside bincount's intp 8, then an int32 running
    # sum in place, under 12 whether or not numpy copies an overlapping input
    A = random_tensor(2, 300, 0.005, 7)
    tracemalloc.start()
    try:
        B = Tensor(A.m, A.n, A.indices, A.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * A.n * A.n
    # indptr[c] counts the terms, one per entry at m = 2, of the cells before c
    cells = np.sort(A.indices[:, 0] * A.n + A.indices[:, 1])
    expected = np.searchsorted(cells, np.arange(A.n * A.n + 1)).astype(np.int32)
    assert_same_bits(B._plan.indptr, expected)


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
