"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: dense
contraction straight from the definition, the same contraction as a
gather per stored entry and a scatter, the Jacobian with one term per
entry and position, Gaussian elimination with partial pivoting written out
by hand, the Newton step in its bordered and its closed form from those
two, root bisection for the known two-dimensional quartic tensor, and the
polynomial roots that give every nonnegative eigenpair of any
two-dimensional tensor.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from numpy.polynomial import Polynomial

from zeigen import build_tensor

# Hypothesis tests that set no max_examples of their own (the kernel and
# tensor-build bit-identity properties, the Euler identity, the solver
# contract and the Newton step oracles) run 300 examples in tier-1; CI runs
# those properties once more with --hypothesis-profile kernel-identity-ci.
settings.register_profile("tier1", max_examples=300)
settings.register_profile("kernel-identity-ci", max_examples=3000)
settings.load_profile("tier1")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# Order-4, dimension-2 tensor with exactly three nonnegative eigenpairs.
QUARTIC2_ENTRIES = [
    ((1, 1, 1, 1), 1.1),
    ((2, 2, 2, 2), 1.2),
    ((1, 1, 1, 2), 0.25),
    ((1, 2, 2, 2), 0.25),
]

# Order-3, dimension-3 tensor whose eigenpair ([1,0,0], 0) has a singular
# shifted matrix but a nonsingular bordered matrix.
CUBIC3_ENTRIES = [((2, j, 3), 1.0) for j in (1, 2, 3)] + [
    ((3, j, 2), 1.0) for j in (1, 2, 3)
] + [((3, j, 3), 1.0) for j in (1, 2, 3)]


@pytest.fixture(scope="session")
def quartic2():
    return build_tensor(4, 2, QUARTIC2_ENTRIES)


@pytest.fixture(scope="session")
def cubic3():
    return build_tensor(3, 3, CUBIC3_ENTRIES)


@pytest.fixture(scope="session")
def quartic2_path():
    return FIXTURE_DIR / "quartic_dim2.tns"


@pytest.fixture(scope="session")
def cubic3_path():
    return FIXTURE_DIR / "cubic_dim3.tns"


def dense_apply(m: int, n: int, entries, x) -> np.ndarray:
    """Brute-force contraction from the definition, on a dense array."""
    A = np.zeros((n,) * m)
    for tup, value in entries:
        A[tuple(i - 1 for i in tup)] = value
    x = np.asarray(x, dtype=float)
    out = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        prod = 1.0
        for j in idx[1:]:
            prod *= x[j]
        out[idx[0]] += A[idx] * prod
    return out


def reference_apply(A, x: np.ndarray) -> np.ndarray:
    """The contraction of a :class:`zeigen.Tensor` from its stored entries:
    one 2-D gather of ``x``, ``np.prod`` along each row, times the values,
    then ``np.add.at`` into the first index."""
    out = np.zeros(A.n)
    if A.nnz == 0:
        return out
    contrib = A.values * np.prod(x[A.indices[:, 1:]], axis=1)
    np.add.at(out, A.indices[:, 0], contrib)
    return out


def plain_jacobian(A, x: np.ndarray) -> np.ndarray:
    """``T(x)`` with one term per entry and position: one 2-D gather of ``x``,
    ``np.prod`` along each row, then ``np.add.at`` position after position."""
    T = np.zeros((A.n, A.n))
    if A.nnz == 0:
        return T
    rows = A.indices[:, 0]
    for p in range(1, A.m):
        others = [q for q in range(1, A.m) if q != p]
        partial = A.values * np.prod(x[A.indices[:, others]], axis=1)
        np.add.at(T, (rows, A.indices[:, p]), partial)
    return T


def gauss_solve(M, b) -> np.ndarray:
    """Gaussian elimination with partial pivoting, written out by hand so
    it shares nothing with the LAPACK-backed production solver."""
    M = np.array(M, dtype=float)
    b = np.array(b, dtype=float)
    n = b.size
    for col in range(n):
        p = col + int(np.argmax(np.abs(M[col:, col])))
        if M[p, col] == 0.0:
            raise ZeroDivisionError("singular matrix in oracle")
        if p != col:
            M[[col, p]] = M[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, n):
            factor = M[row, col] / M[col, col]
            M[row, col:] -= factor * M[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - M[row, row + 1 :] @ x[row + 1 :]) / M[row, row]
    return x


def oracle_bordered_step(A, x: np.ndarray, lam: float):
    """One Newton step ``(x - d, lam - delta, M)`` from the bordered system
    ``M [d; delta] = b``, ``M = [[lam I - T(x), x], [e^T, 0]]`` and ``b = [lam x
    - A x^{m-1}; e^T x - 1]``, with :func:`plain_jacobian`,
    :func:`reference_apply` and :func:`gauss_solve`."""
    n = x.size
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = lam * np.eye(n) - plain_jacobian(A, x)
    M[:n, n] = x
    M[n, :n] = 1.0
    b = np.append(lam * x - reference_apply(A, x), x.sum() - 1.0)
    y = gauss_solve(M, b)
    return x - y[:n], lam - y[n], M


def oracle_closed_step(A, x: np.ndarray, lam: float):
    """The same step in closed form, ``(((m-2) x + w / e^T w) / (m-1), (lam -
    1 / e^T w) / (m-1), w)`` with ``w = (lam I - T(x))^{-1} x``, from
    :func:`plain_jacobian` and :func:`gauss_solve`; it equals the bordered step
    when ``e^T x = 1``."""
    w = gauss_solve(lam * np.eye(x.size) - plain_jacobian(A, x), x)
    e_w = w.sum()
    return ((A.m - 2) * x + w / e_w) / (A.m - 1), (lam - 1.0 / e_w) / (A.m - 1), w


def _restricted_eigen_gap(t: float) -> float:
    """Cross condition for eigenvectors of the quartic tensor restricted to
    x = [t, 1-t]: zero exactly at interior eigenvectors.  Expanding the two
    contraction components and eliminating the eigenvalue gives the cubic
    0.6 t^3 - 3.4 t^2 + 1.95 t - 0.25."""
    return 0.6 * t**3 - 3.4 * t**2 + 1.95 * t - 0.25


def _bisect(f, a: float, b: float, tol: float = 1e-15) -> float:
    fa, fb = f(a), f(b)
    assert fa * fb < 0
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def quartic2_eigenpairs_oracle() -> list[tuple[np.ndarray, float]]:
    """All nonnegative eigenpairs of the quartic tensor, independently of
    any solver: bisection roots of the restricted cross condition in (0, 1)
    with lam = 1.2 (1-t)^2 from the second component equation, plus the
    boundary pair ([1, 0], 1.1) read off by direct substitution."""
    pairs = []
    grid = np.linspace(0.0, 0.999, 1000)
    vals = [_restricted_eigen_gap(t) for t in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa * fb < 0:
            t = _bisect(_restricted_eigen_gap, a, b)
            pairs.append((np.array([t, 1.0 - t]), 1.2 * (1.0 - t) ** 2))
    pairs.append((np.array([1.0, 0.0]), 1.1))
    pairs.sort(key=lambda p: p[1])
    return pairs


# Roots of dim2_eigenpairs_oracle's polynomial, once its vertex factors are
# divided out, this close to real and to [0, 1] count: a simple root near a
# vertex may come out just past it.
ROOT_TOL = 1e-9


def _vertex_order(A, v: int) -> int:
    """The order to which g(t) of :func:`dim2_eigenpairs_oracle` vanishes at
    the vertex ``e_v`` (0-based), decided from the stored entries: with ``o``
    the other coordinate, f_i vanishes at ``e_v`` to the least count of ``o``
    among the trailing indices of row i's nonzero entries, and g = f_v x_o -
    f_o x_v.  A lower bound when the two leading terms could cancel."""
    o = 1 - v
    order = [np.inf, np.inf]
    for index, value in zip(A.indices, A.values):
        if value != 0.0:
            order[index[0]] = min(order[index[0]], int(np.count_nonzero(index[1:] == o)))
    return int(min(order[v] + 1, order[o]))


def dim2_eigenpairs_oracle(A) -> list[tuple[np.ndarray, float]]:
    """All nonnegative eigenpairs of a tensor of dimension 2, sorted by lam.
    On the simplex x = (t, 1-t), and x is an eigenvector exactly when t in
    [0, 1] is a root of g(t) = f1(t) (1-t) - f2(t) t, f = A x^{m-1}, a
    polynomial of degree at most m, here built with ``numpy.polynomial`` from
    the stored entries.  The vertices t = 1 and t = 0 are decided exactly
    (g(1) = -f2(e1), g(0) = f1(e2)), and their factors t^k0 (1-t)^k1 divided
    out of g before root-finding, which would split a multiple root there;
    a multiple root counts once, and lam = (A x^{m-1})_i / x_i at the larger
    coordinate i, by :func:`reference_apply`, so exact at a vertex."""
    assert A.n == 2
    coords = (Polynomial([0.0, 1.0]), Polynomial([1.0, -1.0]))  # x1 = t, x2 = 1 - t
    f = [Polynomial([0.0]), Polynomial([0.0])]
    for index, value in zip(A.indices, A.values):
        term = Polynomial([value])
        for j in index[1:]:
            term = term * coords[j]
        f[index[0]] = f[index[0]] + term
    g = (f[0] * coords[1] - f[1] * coords[0]).trim()
    if not g.coef.any():
        raise ValueError("every point of the simplex is an eigenvector")
    k1, k0 = _vertex_order(A, 0), _vertex_order(A, 1)  # at t = 1 and at t = 0
    h = g // (coords[0] ** k0 * coords[1] ** k1)
    roots = {min(max(float(r.real), 0.0), 1.0) for r in h.roots()
             if abs(r.imag) <= ROOT_TOL and -ROOT_TOL <= r.real <= 1.0 + ROOT_TOL}
    roots |= {t for t, k in ((1.0, k1), (0.0, k0)) if k > 0}
    pairs = []
    for t in roots:
        x = np.array([t, 1.0 - t])
        i = int(np.argmax(x))
        pairs.append((x, float(reference_apply(A, x)[i] / x[i])))
    return sorted(pairs, key=lambda pair: pair[1])
