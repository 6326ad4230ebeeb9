"""Work per step: each iterate costs one Jacobian ``jacobian_T``, from
which the solver takes the contraction (``T(x) x / (m-1)``), and each step
one LU factorization per shift it tries, so one unless the shift must be
rescued.  No step, and so no LU, follows the last iterate.  No solver calls
``apply``.

The counts come from rebinding the module-level names in every zeigen
module that holds them (the way ``benchmarks/spans.py`` traces calls), so
they see every call the solvers make, direct or through a helper.  Each LU
is also counted under the name of the function that called ``_factor``.
"""

import importlib
import sys
from collections import Counter

import numpy as np
import pytest

from zeigen import SolverConfig, jacobian_T, solve
from zeigen.errors import PerturbationExhausted
from zeigen.linalg import EPS_ATTEMPTS, EPS_BASE, EPS_FACTOR, ensure_bordered_nonsingular
from zeigen.solvers import (
    BETA_FALLBACK,
    _bisection,
    newton_step_bordered,
    pni_select_lambda,
    proj_simplex,
)

from test_golden_reports import _family

MODULES = ("zeigen", "zeigen.tensor", "zeigen.linalg", "zeigen.solvers", "zeigen.harness")
# the public linalg functions that may factor a matrix
ENTRY_POINTS = ("solve_shifted", "solve_bordered", "shift_rcond", "bordered_rcond")
# counted name -> (defining module, function); _factor is the one place an LU happens
COUNTED = {
    "apply": ("zeigen.tensor", "apply"),
    "jacobian_T": ("zeigen.tensor", "jacobian_T"),
    "lu": ("zeigen.linalg", "_factor"),
    **{name: ("zeigen.linalg", name) for name in ENTRY_POINTS},
    "first_nonsingular": ("zeigen.linalg", "first_nonsingular"),
    "ensure_bordered_nonsingular": ("zeigen.linalg", "ensure_bordered_nonsingular"),
}
START = np.array([0.2, 0.8])


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    modules = [importlib.import_module(name) for name in MODULES]
    for key, (home, attr) in COUNTED.items():
        original = getattr(importlib.import_module(home), attr)

        def counting(*args, _key=key, _fn=original, **kwargs):
            counts[_key] += 1
            if _key == "lu":
                counts["lu from " + sys._getframe(1).f_code.co_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, counting)
    return counts


@pytest.mark.parametrize(
    "config, lam0",
    [
        pytest.param(SolverConfig(method="mpni"), None, id="mpni"),
        pytest.param(SolverConfig(method="mni"), None, id="mni"),
        pytest.param(SolverConfig(method="pni", beta_schedule=(0.3,)), None, id="pni"),
        pytest.param(SolverConfig(method="newton"), 1.0, id="newton"),
        # no lam0: the upper ratio bound at x0 comes from the first residual's contraction
        pytest.param(SolverConfig(method="newton"), None, id="newton_default_shift"),
    ],
)
def test_one_contraction_jacobian_and_lu_per_step(quartic2, calls, config, lam0):
    report = solve(quartic2, START, config, lam0=lam0)
    steps = report.iterations
    assert report.converged and steps >= 3
    # no shift perturbation, interval adjustment or beta rescue fired
    assert all(rec.perturbation == 0.0 for rec in report.trace)
    assert not any(
        flag in ("lambda_perturbed", "lambda_adjusted", "beta_escalated")
        for rec in report.trace for flag in rec.flags
    )
    # one Jacobian per iterate, including the start and the converged one
    assert calls["jacobian_T"] == steps + 1
    assert calls["apply"] == 0
    assert calls["lu"] == steps


@pytest.mark.parametrize("max_iter", [0, 2])
@pytest.mark.parametrize("method", ["newton", "mni", "pni", "mpni"])
def test_no_lu_for_the_last_iterate_of_a_max_iter_run(quartic2, calls, method, max_iter):
    report = solve(quartic2, START, SolverConfig(method=method, max_iter=max_iter))
    assert report.status == "max_iter" and report.iterations == max_iter
    assert calls["jacobian_T"] == max_iter + 1
    assert calls["lu"] == max_iter


def _golden(label):
    """``(tensor, x0, config)`` of one solve of the golden family."""
    return next((t, x0, cfg) for name, t, x0, cfg in _family() if name == label)


def _perturbed_mpni_solve():
    """A converged MPNI solve of the golden family with 14 perturbed steps."""
    tensor, x0, config = _golden("71/mpni/100")
    return solve(tensor, x0, config)


def test_a_perturbed_mpni_step_factors_its_singular_try_and_the_rescue(calls):
    report = _perturbed_mpni_solve()
    assert report.converged
    assert any("lambda_perturbed" in rec.flags for rec in report.trace)
    expected = 0
    for before, rec in zip(report.trace, report.trace[1:]):
        if rec.perturbation == 0.0:
            expected += 1
            continue
        # perturbation = max(1, |lam|) * EPS_BASE * EPS_FACTOR**j for the shift lam
        # of the step, after j rejected candidates
        scale = max(1.0, abs(before.lam)) * EPS_BASE
        j = next(j for j in range(EPS_ATTEMPTS) if scale * EPS_FACTOR**j == rec.perturbation)
        # the singular try at lam, the j rejected candidates and the accepted
        # one, whose LU also gives the step
        expected += 2 + j
    assert calls["lu"] == expected
    assert calls["jacobian_T"] == report.iterations + 1


def test_every_lu_happens_inside_a_public_linalg_entry_point(calls):
    # a perturbed MPNI solve makes one rescue loop call per step, and neither
    # judges a shift again through bordered_rcond nor calls the public rescue
    report = _perturbed_mpni_solve()
    assert sum("lambda_perturbed" in rec.flags for rec in report.trace) == 14
    assert calls["first_nonsingular"] == report.iterations
    assert calls["bordered_rcond"] == calls["ensure_bordered_nonsingular"] == 0
    assert calls["lu"] == calls["lu from first_nonsingular"]
    # every other LU: the rescued MNI and PNI solves, plain Newton, and each
    # entry point called directly
    for label in ("105/mni/100", "105/pni/100", "71/newton/100"):
        solve(*_golden(label))
    T, x = np.diag([1.0, 2.0]), np.array([0.5, 0.5])
    linalg = importlib.import_module("zeigen.linalg")
    linalg.shift_rcond(1.5, T)
    linalg.bordered_rcond(1.5, T, x)
    linalg.solve_shifted(1.5, T, x)
    linalg.solve_bordered(2.0, T, x, x, 0.0)
    ensure_bordered_nonsingular(1.5, T, x)
    callers = {key[len("lu from "):]: n for key, n in calls.items() if key.startswith("lu from ")}
    assert set(callers) == {"first_nonsingular", "_solve", "shift_rcond", "bordered_rcond"}
    assert callers["_solve"] == calls["solve_shifted"] + calls["solve_bordered"]
    assert callers["shift_rcond"] == calls["shift_rcond"]
    assert callers["bordered_rcond"] == calls["bordered_rcond"]
    assert calls["lu"] == sum(callers.values())


def _rescue_shifts(method, before):
    """The shifts an MNI or PNI rescue tries, in order, for the step from the
    record ``before``: PNI re-damps its Newton value once it has one, and
    otherwise the shift is bisected within the ratio interval."""
    if method == "mni" or before.lam_hat is None:
        return list(_bisection(before.lam, before.lam_low, before.lam_high))
    bounds = before.lam_low, before.lam_high
    damped = (pni_select_lambda(before.lam_hat, *bounds, beta) for beta in BETA_FALLBACK)
    return [c for c in damped if c != before.lam]


@pytest.mark.parametrize(
    "label",
    ["4/mni/1", "4/pni/1", "32/mni/1", "32/pni/1", "52/mni/100", "52/pni/100",
     "62/mni/100", "80/mni/100", "105/mni/100", "105/pni/100"],
)
def test_a_rescued_mni_or_pni_step_factors_one_matrix_per_shift_tried(calls, label):
    method = label.split("/")[1]
    report = solve(*_golden(label))
    assert report.status in ("converged", "max_iter", "perturbation_exhausted")
    rescued, expected = 0, 0
    for before, rec in zip(report.trace, report.trace[1:]):
        expected += 1  # the try at the step's own shift
        if rec.perturbation == 0.0:
            continue
        rescued += 1
        flag = "lambda_adjusted" if method == "mni" or before.lam_hat is None else "beta_escalated"
        assert flag in rec.flags
        # the rescue took the first shift s with s - lam equal to the offset,
        # after rejecting every shift before it
        shifts = _rescue_shifts(method, before)
        expected += 1 + next(i for i, s in enumerate(shifts) if s - before.lam == rec.perturbation)
    if report.status == "perturbation_exhausted":
        # the last step tried its own shift, then every rescue shift, unless
        # PNI gave up on a vanishing e^T w after one LU
        expected += 1
        if report.failure_reason.startswith("no "):
            expected += len(_rescue_shifts(method, report.trace[-1]))
    assert rescued > 0
    assert calls["lu"] == expected


def test_the_public_rescue_takes_mpnis_shift_and_offset():
    tensor, x0, config = _golden("71/mpni/100")
    report = solve(tensor, x0, config)
    perturbed = 0
    for before, rec in zip(report.trace, report.trace[1:]):
        if "lambda_perturbed" not in rec.flags:
            continue
        perturbed += 1
        T = jacobian_T(tensor, before.x)
        shift, diag = ensure_bordered_nonsingular(before.lam, T, before.x)
        assert diag.perturbation.hex() == rec.perturbation.hex()
        assert shift.hex() == float(before.lam + rec.perturbation).hex()
        # the public Newton step at that shift is the step MPNI took
        x_hat, lam_hat = newton_step_bordered(tensor, before.x, shift, T=T)
        assert lam_hat.hex() == rec.lam_hat.hex()
        assert proj_simplex(x_hat).tobytes() == rec.x.tobytes()
    assert perturbed == 14


def test_the_public_rescue_gives_up_with_mpnis_message():
    # 77/mpni/1 exhausts the schedule at its start; its reason is in the golden reports
    tensor, x0, config = _golden("77/mpni/1")
    report = solve(tensor, x0, config)
    assert report.status == "perturbation_exhausted"
    assert report.failure_reason == (
        "no shift perturbation of lam=154174745.36464578 in 41 attempts made the "
        "bordered matrix nonsingular (last rcond=3.480e-25)"
    )
    start = report.trace[-1]
    with pytest.raises(PerturbationExhausted) as raised:
        ensure_bordered_nonsingular(start.lam, jacobian_T(tensor, start.x), start.x)
    assert str(raised.value) == report.failure_reason
