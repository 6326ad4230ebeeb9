"""Each LU is one LAPACK pass with the bits of the plain formulation.

``linalg._factor`` takes the 1-norm from ``dlange`` on ``M.T`` and factors
and solves in one ``dgesv`` call; an rcond alone solves a zero right-hand
side, so its LU is the one a solve of the same matrix reads.  The reference
here is the plain path: the 1-norm as ``np.abs(M).sum(axis=0).max()``, then
``dgetrf``, ``dgecon`` and ``dgetrs``; for the rescue loop
``first_nonsingular``, that path run one candidate at a time.  Equality is on the raw bytes, with
NaN, infinities, subnormals and signed zeros among the draws; only a NaN
1-norm is compared as NaN, since its payload may differ.  The properties run
at the ``max_examples`` of the loaded hypothesis profile
(``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zeigen import linalg
from zeigen.errors import SingularShift

LAPACK = linalg.lapack
TINY = np.finfo(float).smallest_subnormal
EXTREMES = (0.0, -0.0, TINY, -TINY, np.finfo(float).tiny, 1e-300, 1e300, -1e300,
            np.finfo(float).max, np.inf, -np.inf, np.nan)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_norm(a, b) -> bool:
    """Equal bits, or both NaN: ``dlange`` keeps an input NaN's payload where
    numpy may give its default NaN, and a NaN 1-norm makes rcond 0 either way."""
    return bool(np.isnan(a) and np.isnan(b)) or same_bits(a, b)


def entries(extremes: bool):
    """Moderate floats, or with ``extremes`` any float and the edge values."""
    if not extremes:
        return st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))
    return st.one_of(st.sampled_from(EXTREMES), st.floats(), st.floats(-10.0, 10.0))


@st.composite
def systems(draw, extremes: bool):
    """A C-ordered square ``M`` and a right-hand side; without ``extremes``,
    ``M`` is sometimes made singular or nearly so."""
    n = draw(st.one_of(st.integers(1, 8), st.just(41)))
    M = draw(arrays(np.float64, (n, n), elements=entries(extremes)))
    if not extremes and n > 1:
        kind = draw(st.sampled_from(("as drawn", "repeated row", "zero column", "near repeat")))
        if kind == "repeated row":
            M[-1] = M[0]
        elif kind == "zero column":
            M[:, -1] = 0.0
        elif kind == "near repeat":
            M[-1] = M[0] * (1.0 + 1e-14)
    b = draw(arrays(np.float64, (n,), elements=entries(False)))
    return M, b


def reference_factor(M, b):
    """The plain path: ``(rcond, solution)``."""
    anorm = float(np.abs(M).sum(axis=0).max())
    lu, piv, info = LAPACK.dgetrf(M)
    rcond = 0.0
    if info <= 0 and anorm != 0.0:
        rcond = float(LAPACK.dgecon(lu, anorm, norm="1")[0])
        if not np.isfinite(rcond):
            rcond = 0.0
    return rcond, LAPACK.dgetrs(lu, piv, b)[0]


class Spy:
    """``linalg.lapack`` with the 1-norm of each ``dgecon`` call recorded."""

    def __init__(self):
        self.anorms = []

    def __getattr__(self, name):
        return getattr(LAPACK, name)

    def dgecon(self, lu, anorm, norm):
        self.anorms.append(anorm)
        return LAPACK.dgecon(lu, anorm, norm=norm)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(deadline=None)
@given(systems(extremes=True))
def test_factor_norm_and_rcond_match_the_plain_formula(case):
    M, b = case
    expected = np.abs(M).sum(axis=0).max()
    assert same_norm(LAPACK.dlange("I", M.T), expected)
    rcond, _ = reference_factor(M, b)
    for rhs in (np.zeros_like(b), b):
        spy = Spy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "lapack", spy)
            sol, got = linalg._factor(M, rhs)
        assert same_bits(got.rcond, rcond)
        assert sol.shape == rhs.shape
        assert all(same_norm(anorm, expected) for anorm in spy.anorms)


@settings(deadline=None)
@given(systems(extremes=False), st.lists(systems(extremes=False), max_size=3))
def test_solve_matches_getrf_then_getrs(case, others):
    M, b = case
    rcond, expected = reference_factor(M, b)
    if rcond < linalg.RCOND_THRESHOLD:
        with pytest.raises(SingularShift) as raised:
            linalg._solve(M, b, SingularShift, "M", 0.0)
        assert same_bits(raised.value.diagnostics.rcond, rcond)
    else:
        sol, diag = linalg._solve(M, b, SingularShift, "M", 0.0)
        assert same_bits(sol, expected) and same_bits(diag.rcond, rcond)
    # the rescue loop over case, then others: the first candidate the plain
    # path does not judge singular, or the last one, with its rcond and solution
    candidates = [case, *others]
    found, sol, diag = linalg.first_nonsingular(range(len(candidates)), candidates.__getitem__)
    for i, (M_i, b_i) in enumerate(candidates):
        rcond, expected = reference_factor(M_i, b_i)
        if rcond >= linalg.RCOND_THRESHOLD:
            break
    assert found == i and same_bits(diag.rcond, rcond)
    assert diag.singular == (rcond < linalg.RCOND_THRESHOLD)
    if not diag.singular:
        assert same_bits(sol, expected)
