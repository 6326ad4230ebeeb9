"""The contraction and Jacobian kernels reproduce, bit for bit, the plain
formulation: one 2-D gather of ``x``, ``np.prod`` along each row, then
``np.add.at`` over the 2-D (row, column) index.

That formulation is kept here as the reference.  Equality is on the raw
bytes, not within a tolerance: every solver trace depends on these
kernels, so a last-bit change would change traces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zeigen import Tensor, apply, build_tensor, jacobian_T


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
    n = draw(st.integers(1, 8))
    tuples = draw(st.lists(st.tuples(*[st.integers(1, n)] * m), unique=True, max_size=60))
    values = draw(
        st.lists(st.floats(0.0, 1e3), min_size=len(tuples), max_size=len(tuples))
    )
    # zeros and negative entries: plain Newton iterates leave the cone
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0))
    x = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
    return build_tensor(m, n, zip(tuples, values)), x


@settings(max_examples=300, deadline=None)
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
