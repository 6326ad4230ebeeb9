"""The solvers' Newton step, in both its forms, against the independent
oracles of ``tests/conftest.py``, which build ``T(x)`` with one term per
entry and position and solve by hand-written Gaussian elimination:

* the bordered step, ``linalg._newton_step`` at the one candidate ``(lam,
  0.0)`` (the step of plain Newton and MPNI), against
  ``oracle_bordered_step``;
* the closed form from the solvers' own pieces, ``w`` from one
  ``linalg._factor`` of ``linalg._shifted``, then ``solvers._newton_value``
  and ``_direction`` (the step of MNI and PNI), against
  ``oracle_closed_step``.

The two sides round differently, so the comparison is within a rounding
bound.  Each side solves exactly a system ``M y = b`` whose data are within
``k eps`` of the exact data, in the infinity norm against ``|M|`` and ``|b|``
built from magnitudes (``|lam| I + T(x)``; ``x >= 0``, so ``T(x) >= 0``):
the two Jacobians are within ``2 N eps T(x)``, ``N = m (nnz + 1)``
(``test_kernel_identity.py``), the two contractions within ``2 (N + n) eps
A x^{m-1}`` (``test_euler_identity.py``), and an LU with partial pivoting
of order ``p`` is backward stable within about ``3 p eps`` times the
matrix for the modest growth of these small systems, so ``k = 2 (N + n) +
8 p`` covers both sides.  First-order perturbation theory then bounds the
two solutions' difference, row by row, by ``k eps (|M^{-1}| e) ||(|M| |y| +
|b|)||_inf``, the inverse taken by the same hand-written elimination.  The
bound is normwise: with ``|M| |y|`` row by row in place of its largest
entry it fails, because pivoting spreads an LU's rounding into zero
entries of ``M`` (seen at m = 2, n = 5).  The closed form carries the
bound on ``w`` through ``e^T w`` and its reciprocal.  A draw where the
bound is not small against the solution (first order no longer holds), or
where the solver's LU is judged singular, is skipped.  Over 25,000 seeded
draws like these, the largest difference was 0.017 of its bound.

The property runs at the ``max_examples`` of the loaded hypothesis profile
(``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zeigen import apply, jacobian_T, random_tensor, ratio_bounds
from zeigen.linalg import _factor, _newton_step, _shifted
from zeigen.solvers import _direction, _newton_value

from conftest import (
    gauss_solve,
    oracle_bordered_step,
    oracle_closed_step,
    plain_jacobian,
    reference_apply,
)

EPS = np.finfo(float).eps


def solver_bordered_step(A, x, lam):
    """``(x_next, lam_next, diag)`` of the solvers' bordered step at the shift
    ``lam``: :func:`linalg._newton_step` at its one candidate ``(lam, 0.0)``."""
    _, x_next, lam_next, diag = _newton_step(((lam, 0.0),), jacobian_T(A, x), x, apply(A, x))
    return x_next, lam_next, diag


def solver_closed_step(A, x, lam):
    """``(x_next, lam_next, w, diag)`` of the closed form from the solvers'
    pieces: ``w`` from one ``_factor`` of ``_shifted``, ``lam_next`` from
    ``_newton_value`` (None when ``e^T w`` vanishes) and ``x_next`` from
    ``_direction``."""
    w, diag = _factor(_shifted(lam, jacobian_T(A, x), x.size), x)
    return _direction(A.m, x, w) / (A.m - 1), _newton_value(A.m, lam, w), w, diag


def solve_bound(M, M_abs, b_abs, y, k):
    """``k eps |M^{-1}| e ||(|M| |y| + |b|)||_inf``, the inverse by
    :func:`gauss_solve`."""
    inverse = np.column_stack([gauss_solve(M, e) for e in np.eye(len(M))])
    return k * EPS * np.abs(inverse).sum(axis=1) * (M_abs @ np.abs(y) + b_abs).max()


@st.composite
def steps(draw):
    """A random tensor, a positive ``x`` on the simplex and a shift around
    the ratio interval at ``x``."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    A = random_tensor(m, n, draw(st.floats(0.2, 1.0)), draw(st.integers(0, 2**32 - 1)))
    x = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    x = x / x.sum()
    low, high = ratio_bounds(reference_apply(A, x), x)
    lam = float(low + draw(st.floats(-0.5, 2.0)) * (high - low) + draw(st.floats(0.0, 0.1)))
    return A, x, lam


@settings(deadline=None)
@given(steps())
def test_bordered_step_is_within_rounding_of_the_oracle(case):
    A, x, lam = case
    n = A.n
    x_next, lam_next, diag = solver_bordered_step(A, x, lam)
    assume(not diag.singular)
    try:
        x_ref, lam_ref, M = oracle_bordered_step(A, x, lam)
    except ZeroDivisionError:
        assume(False)
    y = np.append(x - x_ref, lam - lam_ref)
    y_solver = np.append(x - x_next, lam - lam_next)
    M_abs = np.zeros((n + 1, n + 1))
    M_abs[:n, :n] = abs(lam) * np.eye(n) + plain_jacobian(A, x)
    M_abs[:n, n] = x
    M_abs[n, :n] = 1.0
    b_abs = np.append(abs(lam) * x + reference_apply(A, x), 2.0)
    k = 2 * (A.m * (A.nnz + 1) + n) + 8 * (n + 1)
    bound = solve_bound(M, M_abs, b_abs, np.maximum(np.abs(y), np.abs(y_solver)), k)
    assume(np.all(bound <= 1e-3 * (1.0 + np.abs(y))))
    # and one rounding of each side's x - d and lam - delta
    assert np.all(np.abs(x_next - x_ref) <= bound[:n] + 2 * EPS * (x + np.abs(y[:n])))
    assert abs(lam_next - lam_ref) <= bound[n] + 2 * EPS * (abs(lam) + abs(y[n]))


@pytest.mark.filterwarnings("ignore:divide by zero")  # e^T w = 0, then skipped
@settings(deadline=None)
@given(steps())
def test_closed_form_is_within_rounding_of_the_oracle(case):
    A, x, lam = case
    n, m = A.n, A.m
    x_next, lam_next, w, diag = solver_closed_step(A, x, lam)
    assume(not diag.singular)
    try:
        x_ref, lam_ref, w_ref = oracle_closed_step(A, x, lam)
    except ZeroDivisionError:
        assume(False)
    T = plain_jacobian(A, x)
    S, S_abs = lam * np.eye(n) - T, abs(lam) * np.eye(n) + T
    k = 2 * (m * (A.nnz + 1) + n) + 8 * n
    bound_w = solve_bound(S, S_abs, x, np.maximum(np.abs(w), np.abs(w_ref)), k)
    assume(np.all(bound_w <= 1e-3 * np.abs(w_ref).max()))
    assert np.all(np.abs(w - w_ref) <= bound_w)
    # e^T w: the bound on w plus each side's summation, n roundings
    s = abs(w_ref.sum())
    ds = bound_w.sum() + 2 * n * EPS * np.abs(w_ref).sum()
    assume(ds <= 0.5 * s)
    assert lam_next is not None
    # |1/s - 1/s'| <= ds / (s (s - ds)); then 1/s, lam - 1/s and / (m-1)
    # round once each on each side
    d_recip = ds / (s * (s - ds))
    assert abs(lam_next - lam_ref) <= (d_recip + 8 * EPS * (abs(lam) + 1 / s)) / (m - 1)
    # w / s, then (m-2) x + w / s and / (m-1), one rounding each a side
    d_dir = bound_w / s + np.abs(w_ref) * d_recip
    assert np.all(np.abs(x_next - x_ref) <= (d_dir + 8 * EPS * ((m - 2) * x + np.abs(w_ref) / s)) / (m - 1))
