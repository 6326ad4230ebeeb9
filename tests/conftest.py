"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: dense
contraction straight from the definition, the same contraction as a
gather per stored entry and a scatter, Gaussian elimination with
partial pivoting written out by hand, root bisection for the known
two-dimensional quartic tensor, and the polynomial roots that give every
nonnegative eigenpair of any two-dimensional tensor.
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
# tensor-build bit-identity properties, the Euler identity and the solver
# contract) run 300
# examples in tier-1; CI runs those properties once more with
# --hypothesis-profile kernel-identity-ci.
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


# Roots of dim2_eigenpairs_oracle's polynomial this close to real and to [0, 1]
# count: a simple root at t = 1 may come out just past it.
ROOT_TOL = 1e-9


def dim2_eigenpairs_oracle(A) -> list[tuple[np.ndarray, float]]:
    """All nonnegative eigenpairs of a tensor of dimension 2, sorted by lam.
    On the simplex x = (t, 1-t), and x is an eigenvector exactly when t in
    [0, 1] is a root of g(t) = f1(t) (1-t) - f2(t) t, f = A x^{m-1}, a
    polynomial of degree at most m, here built with ``numpy.polynomial`` from
    the stored entries; a multiple root counts once, and lam = f_i(t) / x_i
    at the larger coordinate i."""
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
    roots = {min(max(float(r.real), 0.0), 1.0) for r in g.roots()
             if abs(r.imag) <= ROOT_TOL and -ROOT_TOL <= r.real <= 1.0 + ROOT_TOL}
    pairs = []
    for t in roots:
        x = np.array([t, 1.0 - t])
        i = int(np.argmax(x))
        pairs.append((x, float(f[i](t) / x[i])))
    return sorted(pairs, key=lambda pair: pair[1])
