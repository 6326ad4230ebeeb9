"""Euler's identity ``A x^{m-1} = T(x) x / (m-1)``, which the library uses to
take its one contraction from the Jacobian, holds for every tensor,
symmetric or not, and every ``x``: the contraction is homogeneous of degree
``m-1``.  The check is against the tests' own gather, ``reference_apply``
in ``tests/conftest.py``.

The two sides round differently.  Each is within the standard bound for
sums of products of the exact value, ``gamma_N ~ N u`` (``u = eps / 2``)
times the sum of the absolute terms ``(|A| |x|^{m-1})_i``, with ``N`` the
rounded operations behind one component, so the property allows ``2 N eps``
times that sum between them.  The draws keep clear of underflow, where the
relative bound does not hold.  The property runs at the ``max_examples`` of
the loaded hypothesis profile (``tests/conftest.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zeigen import build_tensor
from zeigen.solvers import _contract

from conftest import reference_apply

EPS = np.finfo(float).eps


def magnitudes(low: float, high: float):
    """Exact zeros of both signs, or a magnitude in ``[low, high]``."""
    return st.one_of(st.just(0.0), st.just(-0.0), st.floats(low, high))


@st.composite
def tensors_and_vectors(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    # tuples drawn freely: the tensor is in general not symmetric
    tuples = draw(st.lists(st.tuples(*[st.integers(1, n)] * m), unique=True, max_size=60))
    values = draw(st.lists(magnitudes(1e-3, 1e3), min_size=len(tuples), max_size=len(tuples)))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    x = np.array(signs) * np.array(draw(st.lists(magnitudes(1e-3, 10.0), min_size=n, max_size=n)))
    return build_tensor(m, n, zip(tuples, values)), x


@settings(deadline=None)
@given(tensors_and_vectors())
def test_contraction_from_the_jacobian(case):
    A, x = case
    m, n = A.m, A.n
    euler, _ = _contract(A, x)  # the solvers' contraction, T(x) x / (m-1)
    # per component: m-1 products per term, the sums of T's entries and of
    # T x over at most (m-1) * nnz + n terms, one product and one division
    steps = m + (m - 1) * A.nnz + n
    bound = 2 * steps * EPS * reference_apply(A, np.abs(x))
    assert np.all(np.abs(euler - reference_apply(A, x)) <= bound)
