"""Work per step: each iterate costs one Jacobian ``jacobian_T``, from
which the solver takes the contraction (``T(x) x / (m-1)``), and each step
one LU factorization, except an MPNI step whose shift must be perturbed.
No step, and so no LU, follows the last iterate.  No solver calls ``apply``.

The counts come from rebinding the module-level names in every zeigen
module that holds them (the way ``benchmarks/spans.py`` traces calls), so
they see every call the solvers make, direct or through a helper.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from zeigen import SolverConfig, solve
from zeigen.linalg import EPS_ATTEMPTS, EPS_BASE, EPS_FACTOR

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


def _perturbed_mpni_solve():
    """A converged MPNI solve of the golden family with 14 perturbed steps."""
    tensor, x0, config = next(
        (tensor, x0, config) for label, tensor, x0, config in _family() if label == "71/mpni/100"
    )
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
        # the singular try, ensure_bordered_nonsingular's retry of lam, the j
        # rejected candidates, the accepted one, and that one again in
        # solve_bordered.  Sending every step through the rescue and handing
        # its LU to the solve made it 2 + j: two more factorizations per
        # perturbed step is the price of no LU passing between the two
        expected += 4 + j
    assert calls["lu"] == expected
    assert calls["jacobian_T"] == report.iterations + 1


def test_every_lu_happens_inside_a_public_linalg_entry_point(calls):
    # the rescue judges its candidate shifts through bordered_rcond
    report = _perturbed_mpni_solve()
    assert sum("lambda_perturbed" in rec.flags for rec in report.trace) == 14
    assert calls["bordered_rcond"] > 0
    assert calls["lu"] == sum(calls[name] for name in ENTRY_POINTS)
