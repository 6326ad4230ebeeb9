"""The contraction and Jacobian kernels reproduce, bit for bit, the plain
formulation: one 2-D gather of ``x``, ``np.prod`` along each row, then
``np.add.at`` over the 2-D (row, column) index.

That formulation is kept here as the reference.  Equality is on the raw
bytes, not within a tolerance: every solver trace depends on these
kernels, so a last-bit change would change traces.  The property runs at
the ``max_examples`` of the loaded hypothesis profile (``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeigen import Tensor, apply, build_tensor, jacobian_T, random_tensor


def reference_apply(A: Tensor, x: np.ndarray) -> np.ndarray:
    out = np.zeros(A.n)
    if A.nnz == 0:
        return out
    contrib = A.values * np.prod(x[A.indices[:, 1:]], axis=1)
    np.add.at(out, A.indices[:, 0], contrib)
    return out


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
        assert_same_bits(apply(B, x), reference_apply(B, x))
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
# does, each with the table depth and the dtypes of the table indices and
# of the Jacobian cells it must have.
PLAN_CASES = [
    pytest.param(lambda: random_tensor(4, 20, 0.3, 7), 2, np.uint16, np.uint16, id="uint16"),
    pytest.param(
        lambda: random_tensor(6, 12, 0.001, 7), 3, np.uint16, np.uint8, id="leftover-columns"
    ),
    pytest.param(lambda: random_tensor(2, 300, 0.005, 7), 0, np.uint8, np.intp, id="intp-cells"),
    pytest.param(lambda: build_tensor(3, 1, [((1, 1, 1), 2.5)]), 1, np.uint8, np.uint8, id="n1"),
]


@pytest.mark.parametrize("make, depth, flat_dtype, cell_dtype", PLAN_CASES)
def test_kernels_match_reference_bits_on_every_plan_kind(make, depth, flat_dtype, cell_dtype):
    A = make()
    plan = A._plan
    assert (plan.depth, plan.flats.dtype, plan.cells.dtype) == (depth, flat_dtype, cell_dtype)
    assert plan.rests.shape[0] == A.m - 2 - depth
    row_major = Tensor(A.m, A.n, np.ascontiguousarray(A.indices), A.values)
    for x in (mixed_vector(A.n, 0), -np.abs(mixed_vector(A.n, 1)) - 0.5):
        for B in (A, row_major):
            assert_same_bits(apply(B, x), reference_apply(B, x))
            assert_same_bits(jacobian_T(B, x), reference_jacobian(B, x))


def test_plan_is_compact_and_read_only_on_family_shapes():
    # family-sized tensors are many and small: an intp plan would cost
    # eight bytes per index where one is enough
    for m in range(2, 6):
        for n in range(1, 7):
            for density in (0.05, 0.3, 1.0):
                A = random_tensor(m, n, density, m * n)
                for part in A._plan[1:]:  # every field after the depth
                    assert part.itemsize == 1, (m, n, density, part.dtype)
                    assert not part.flags.writeable
