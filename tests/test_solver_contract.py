"""The contract every solver keeps, on random small tensors.

For any start the solver accepts, ``solve`` returns a report and does not
raise.  The starts reach the boundary of what is accepted: zero entries
for MPNI and for plain Newton from the ratio bound, and sign-mixed entries
for plain Newton from a given shift.  The status is one of the five
documented values; the trace holds one record per iterate reached
(``iterations`` or ``iterations + 1`` of them), record ``k`` at index ``k``
with a finite, nonnegative residual, and a rescue flag exactly where the
shift was moved (never on the start); and a ``converged`` report
certifies its final iterate: residual below ``tol``, unit 1-norm, equal to
the last trace record, and nonnegative for the methods that keep the
iterate in the cone.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zeigen import SolverConfig, build_tensor, solve

STATUSES = {"converged", "max_iter", "diverged", "perturbation_exhausted", "projection_empty"}
CONE_METHODS = ("mni", "pni", "mpni")
RESCUES = {"lambda_adjusted", "beta_escalated", "lambda_perturbed"}


@st.composite
def problems(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    total = n**m
    flat = draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=min(total, 30),
                         unique=True))
    if draw(st.booleans()):
        values = [1.0] * len(flat)  # unit values make shifts singular
    else:
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(flat), max_size=len(flat)))
    grid = np.unravel_index(flat, (n,) * m)
    entries = [
        (tuple(int(axis[row]) + 1 for axis in grid), values[row]) for row in range(len(flat))
    ]
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    method = draw(st.sampled_from(("newton", "mni", "pni", "mpni")))
    lam0 = None
    if method == "newton" and draw(st.booleans()):
        lam0 = draw(st.floats(-1.0, 10.0))
        if draw(st.booleans()):
            # any finite start with unit sum
            weights = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
            weights[-1] = 1.0 - weights[:-1].sum()
    elif method in ("newton", "mpni"):
        # zero entries, at least one positive entry left
        weights[draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))] = 0.0
    config = SolverConfig(
        method=method,
        max_iter=draw(st.sampled_from((0, 1, 100))),
        beta_schedule=draw(st.sampled_from((None, (0.3,), (0.0, 0.5)))),
    )
    return build_tensor(m, n, entries), weights / weights.sum(), config, lam0


@settings(deadline=None)
@given(problems())
def test_solver_contract(problem):
    tensor, x0, config, lam0 = problem
    report = solve(tensor, x0, config, lam0=lam0)
    assert report.status in STATUSES
    assert report.method == config.method
    assert len(report.trace) in (report.iterations, report.iterations + 1)
    assert [rec.k for rec in report.trace] == list(range(len(report.trace)))
    assert all(0.0 <= rec.residual < math.inf for rec in report.trace)
    # a rescue moves the shift of the step it serves and flags the iterate
    # that step forms, so the start carries none
    assert [bool(RESCUES & set(rec.flags)) for rec in report.trace] == [
        rec.perturbation != 0.0 for rec in report.trace
    ]
    assert not report.trace or not report.trace[0].flags
    if not report.converged:
        return
    final, last = report.final, report.trace[-1]
    assert final.residual_norm < config.tol
    assert abs(final.x.sum() - 1.0) <= 1e-12
    assert final.x.tobytes() == last.x.tobytes()
    assert (final.lam, final.residual_norm) == (last.lam, last.residual)
    if config.method in CONE_METHODS:
        assert np.all(final.x >= 0)
