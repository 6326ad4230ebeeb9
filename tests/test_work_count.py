"""Work per step: each iterate costs one Jacobian ``jacobian_T``, from
which the solver takes the contraction (``T(x) x / (m-1)``), and each step
one LU factorization.  No solver calls ``apply``.

The counts come from rebinding the module-level names in every zeigen
module that holds them (the way ``benchmarks/spans.py`` traces calls), so
they see every call the solvers make, direct or through a helper.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from zeigen import SolverConfig, solve

MODULES = ("zeigen", "zeigen.tensor", "zeigen.linalg", "zeigen.solvers", "zeigen.harness")
# counted name -> (defining module, function); _factor is the one place an LU happens
COUNTED = {
    "apply": ("zeigen.tensor", "apply"),
    "jacobian_T": ("zeigen.tensor", "jacobian_T"),
    "lu": ("zeigen.linalg", "_factor"),
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
