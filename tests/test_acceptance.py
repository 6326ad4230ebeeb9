"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see all lines).

Criterion 8 checks the quadratic rate at both example pairs.  At the
interior pair it fits the order of an MPNI trace.  At the degenerate pair
([1,0,0], 0) no trace has an error tail to fit: the simplex projection and
the clamp land exactly on the pair, which meets e_{k+1} <= C e_k^2 but
leaves the order estimator nothing inside its window (1e-13, 1e-2).  There
the criterion measures MPNI's own step instead, over a ladder of distances
from the pair.
"""

import numpy as np
import pytest

from zeigen import (
    SolverConfig,
    apply,
    bordered_matrix,
    ensure_bordered_nonsingular,
    estimate_order,
    fd_check,
    jacobian_T,
    multi_start,
    newton_step_bordered,
    newton_step_closed,
    proj_simplex,
    random_tensor,
    ratio_bounds,
    run_mpni,
)
from zeigen.linalg import bordered_rcond, shift_rcond

from conftest import quartic2_eigenpairs_oracle, reference_apply


def _verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def interior_report(quartic2):
    return run_mpni(quartic2, [0.2, 0.8], SolverConfig(tol=1e-12))


@pytest.fixture(scope="module")
def degenerate_report(cubic3):
    return run_mpni(cubic3, [0.98, 0.01, 0.01], SolverConfig(tol=1e-12))


def test_criterion_1_interval_regression(quartic2):
    expected = [
        ([0.19, 0.81], 0.7774, 0.7873),
        ([0.187, 0.813], 0.7932, 0.7949),
        ([0.1875, 0.8125], 0.7919, 0.7922),
    ]
    worst = 0.0
    for x, lo_ref, hi_ref in expected:
        lo, hi = ratio_bounds(apply(quartic2, x), x)
        worst = max(worst, abs(lo - lo_ref), abs(hi - hi_ref))
    _verdict(1, "interval-regression", worst <= 5e-5, f"worst endpoint error {worst:.2e}")


def test_criterion_2_eigenpair_regression(interior_report):
    rep = interior_report
    lam_err = abs(rep.final.lam - 0.7923)
    x_err = np.linalg.norm(rep.final.x - [0.1874, 0.8126], 1)
    ok = rep.converged and rep.iterations <= 15 and lam_err <= 5e-5 and x_err <= 1e-4
    _verdict(
        2, "eigenpair-regression", ok,
        f"{rep.iterations} iterations, lam err {lam_err:.2e}, x err {x_err:.2e}",
    )


def test_criterion_3_singular_shift_case(cubic3, degenerate_report):
    x_star = np.array([1.0, 0.0, 0.0])
    T = jacobian_T(cubic3, x_star)
    shift_singular = shift_rcond(0.0, T) < 1e-12
    M = bordered_matrix(0.0, T, x_star)
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, -1, 0], [1, 1, 1, 0]], dtype=float
    )
    matrix_ok = np.array_equal(M, expected)
    bordered_ok = bordered_rcond(0.0, T, x_star) >= 1e-12
    rep = degenerate_report
    solve_ok = (
        rep.converged
        and rep.final.residual_norm < 1e-12
        and np.allclose(rep.final.x, x_star, atol=1e-12)
        and abs(rep.final.lam) <= 1e-12
    )
    ok = shift_singular and matrix_ok and bordered_ok and solve_ok
    _verdict(
        3, "singular-shift-case", ok,
        f"shift singular={shift_singular}, bordered matches={matrix_ok}, "
        f"bordered nonsingular={bordered_ok}, residual {rep.final.residual_norm:.1e}",
    )


def test_criterion_4_eigenvalue_outside_interval(quartic2):
    x = [0.1875, 0.8125]
    lo, hi = ratio_bounds(apply(quartic2, x), x)
    ok = hi < 0.7923 and not (lo <= 0.7923 <= hi)
    _verdict(4, "eigenvalue-outside-interval", ok, f"interval [{lo:.7f}, {hi:.7f}]")


def test_criterion_5_enumeration(quartic2):
    result = multi_start(quartic2, 50, seed=7, config=SolverConfig(method="mpni"))
    oracle = quartic2_eigenpairs_oracle()
    count_ok = len(result) == 3 and len(oracle) == 3
    match_err = float("inf")
    if count_ok:
        match_err = max(
            abs(found.lam - lam_ref) + np.linalg.norm(found.x - x_ref, 1)
            for found, (x_ref, lam_ref) in zip(result, oracle)
        )
    boundary = result[2] if count_ok else None
    boundary_ok = count_ok and abs(boundary.lam - 1.1) <= 1e-3
    middle_ok = count_ok and abs(result[0].lam - 0.3747) <= 1e-3
    ok = count_ok and match_err <= 1e-3 and boundary_ok and middle_ok
    _verdict(
        5, "enumeration", ok,
        f"{len(result)} pairs, worst oracle mismatch {match_err:.2e}",
    )


def test_criterion_6_step_form_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 200:
        m = int(rng.choice([3, 4]))
        n = int(rng.integers(2, 7))
        A = random_tensor(m, n, float(rng.uniform(0.3, 1.0)), int(rng.integers(1e9)))
        draw = rng.standard_exponential(n)
        x = draw / draw.sum()
        lo, hi = ratio_bounds(apply(A, x), x)
        lam = float(lo + rng.uniform(0.1, 0.9) * (hi - lo))
        T = jacobian_T(A, x)
        if shift_rcond(lam, T) < 1e-6 or bordered_rcond(lam, T, x) < 1e-6:
            continue
        xb, lb = newton_step_bordered(A, x, lam)
        xc, lc, _ = newton_step_closed(A, x, lam)
        worst = max(worst, float(np.linalg.norm(xb - xc, 1)), abs(lb - lc))
        checked += 1
    _verdict(6, "step-form-equivalence", worst <= 1e-10, f"worst difference {worst:.2e}")


def test_criterion_7_jacobian_property():
    rng = np.random.default_rng(2025)
    worst_fd = 0.0
    worst_euler = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 6))
        n = int(rng.integers(2, 7))
        A = random_tensor(m, n, float(rng.uniform(0.3, 1.0)), int(rng.integers(1e9)))
        x = rng.standard_exponential(n)
        worst_fd = max(worst_fd, fd_check(A, x))
        euler = jacobian_T(A, x) @ x - (m - 1) * reference_apply(A, x)
        scale = max(np.linalg.norm((m - 1) * reference_apply(A, x), 1), 1e-300)
        worst_euler = max(worst_euler, float(np.linalg.norm(euler, 1)) / scale)
    ok = worst_fd <= 1e-6 and worst_euler <= 1e-12
    _verdict(
        7, "jacobian-property", ok,
        f"worst fd error {worst_fd:.2e}, worst Euler error {worst_euler:.2e}",
    )


def _degenerate_step_errors(cubic3, d, delta, radii):
    """Errors before and after one MPNI step from ``x = (1-h) e_1 + h d``,
    ``lam = h delta``, measured against the pair ([1,0,0], 0): the Newton
    error, then the error after the simplex projection and the clamp."""
    x_star = np.array([1.0, 0.0, 0.0])

    def error(x, lam):
        return float(np.linalg.norm(x - x_star, 1) + abs(lam))

    rows = []
    for h in radii:
        x = (1.0 - h) * x_star + h * d
        lam = h * delta
        T = jacobian_T(cubic3, x)
        lam_use, _ = ensure_bordered_nonsingular(lam, T, x)
        x_hat, lam_hat = newton_step_bordered(cubic3, x, lam_use, T=T)
        rows.append(
            (error(x, lam), error(x_hat, lam_hat),
             error(proj_simplex(x_hat), max(lam_hat, 0.0)))
        )
    return np.array(rows)


def test_criterion_8_quadratic_order(cubic3, interior_report, degenerate_report):
    interior = estimate_order(interior_report.trace, interior_report.final)
    interior_detail = f"interior-pair p={interior.order:.3f} ({interior.used_points} points)"

    rng = np.random.default_rng(2028)
    radii = np.logspace(-3, -6, 7)
    slopes, fitted = [], []
    projection_ok = True
    for _ in range(5):
        d = rng.standard_exponential(3)
        d /= d.sum()
        delta = float(rng.uniform(0.1, 1.0))
        e0, e_newton, e_projected = _degenerate_step_errors(cubic3, d, delta, radii).T
        # the order estimator's window: below it rounding, not the rate, sets the error
        usable = (np.minimum(e0, e_newton) > 1e-13) & (np.maximum(e0, e_newton) < 1e-2)
        fitted.append(int(usable.sum()))
        slope = np.nan
        if fitted[-1] >= 3:
            slope = np.polyfit(np.log(e0[usable]), np.log(e_newton[usable]), 1)[0]
        slopes.append(float(slope))
        projection_ok &= bool(np.all(e_projected <= e_newton))
    degenerate_ok = all(p >= 1.8 for p in slopes) and projection_ok

    rep = degenerate_report
    landed = np.array_equal(rep.final.x, [1.0, 0.0, 0.0]) and rep.final.lam == 0.0
    ending = "landed exactly" if landed else f"ended {rep.status}"
    degenerate_detail = (
        f"degenerate-pair step slopes {', '.join(f'{p:.3f}' for p in slopes)} "
        f"over {', '.join(map(str, fitted))} of {radii.size} radii, "
        f"projection never worse={projection_ok}; "
        f"run from [0.98, 0.01, 0.01] {ending} after {rep.iterations} steps"
    )
    ok = interior.order >= 1.8 and degenerate_ok
    _verdict(8, "quadratic-order", ok, f"{interior_detail}; {degenerate_detail}")


def test_criterion_9_improvement_property():
    rng = np.random.default_rng(2026)
    worst = -float("inf")
    for _ in range(200):
        n = int(rng.integers(2, 9))
        y = rng.standard_normal(n)
        while abs(y.sum()) < 0.2:
            y = rng.standard_normal(n)
        x_hat = y / y.sum()
        draw = rng.standard_exponential(n)
        x_star = draw / draw.sum()
        gap = np.linalg.norm(proj_simplex(x_hat) - x_star, 1) - np.linalg.norm(
            x_hat - x_star, 1
        )
        lam_hat = float(rng.standard_normal() * 2)
        lam_star = float(rng.standard_exponential())
        lam_gap = abs(max(lam_hat, 0.0) - lam_star) - abs(lam_hat - lam_star)
        worst = max(worst, gap, lam_gap)
    _verdict(9, "improvement-property", worst <= 1e-12, f"worst gap {worst:.2e}")


def test_criterion_10_determinant_degree():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        T = rng.random((n, n))
        draw = rng.standard_exponential(n)
        x = draw / draw.sum()
        lams = np.linspace(-2.0, 2.0, n + 2)
        dets = np.array([np.linalg.det(bordered_matrix(lam, T, x)) for lam in lams])
        coeffs = np.polynomial.polynomial.polyfit(lams, dets, max(n - 1, 0))
        fit = np.polynomial.polynomial.polyval(lams, coeffs)
        worst = max(worst, float(np.linalg.norm(fit - dets) / np.linalg.norm(dets)))
    _verdict(10, "determinant-degree", worst <= 1e-8, f"worst relative residual {worst:.2e}")
