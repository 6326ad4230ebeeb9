"""Tests for the four iteration schemes, their projection operators, and
the shift-selection rules."""

import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zeigen import (
    ProjectionEmpty,
    SingularShift,
    SolverConfig,
    ZeroDenominator,
    ZeroVector,
    apply,
    build_tensor,
    mni_select_lambda,
    newton_step_bordered,
    newton_step_closed,
    pni_select_lambda,
    proj_simplex,
    project_sign_dominant,
    random_tensor,
    ratio_bounds,
    residual,
    run_mni,
    run_mpni,
    run_newton,
    run_pni,
    solve,
)

from conftest import quartic2_eigenpairs_oracle


@pytest.fixture(scope="module")
def diag_matrix():
    """m=2 tensor acting as diag(1, 2); its shift is singular exactly at
    the eigenvalues, which exercises every selection fallback."""
    return build_tensor(2, 2, [((1, 1), 1.0), ((2, 2), 2.0)])


def random_simplex(rng, n):
    d = rng.standard_exponential(n)
    return d / d.sum()


class TestNewtonSteps:
    def test_fixed_point_at_exact_pair(self, quartic2, cubic3):
        x, lam = newton_step_bordered(quartic2, np.array([1.0, 0.0]), 1.1)
        assert_allclose(x, [1.0, 0.0], atol=1e-14)
        assert lam == pytest.approx(1.1, abs=1e-14)
        x, lam = newton_step_bordered(cubic3, np.array([1.0, 0.0, 0.0]), 0.0)
        assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-14)
        assert lam == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_contraction_from_four_digit_start(self, quartic2):
        target_x, target_lam = quartic2_eigenpairs_oracle()[1]
        x, lam = newton_step_bordered(quartic2, np.array([0.1875, 0.8125]), 0.7921)
        assert np.linalg.norm(x - target_x, 1) <= 1e-3
        assert abs(lam - target_lam) <= 1e-3
        # the four-digit reference values
        assert np.linalg.norm(x - [0.1874, 0.8126], 1) <= 1e-3
        assert lam == pytest.approx(0.7923, abs=1e-3)

    def test_preserves_unit_sum(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            m = int(rng.choice([3, 4]))
            n = int(rng.integers(2, 6))
            A = random_tensor(m, n, 0.8, int(rng.integers(1e9)))
            x = random_simplex(rng, n)
            low, high = ratio_bounds(apply(A, x), x)
            x_next, _ = newton_step_bordered(A, x, high + 0.5)
            assert abs(x_next.sum() - 1.0) <= 1e-12

    def test_closed_form_matches_bordered(self):
        from zeigen import jacobian_T
        from zeigen.linalg import bordered_rcond, shift_rcond

        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            m = int(rng.choice([3, 4]))
            n = int(rng.integers(2, 7))
            A = random_tensor(m, n, float(rng.uniform(0.3, 1.0)), int(rng.integers(1e9)))
            x = random_simplex(rng, n)
            low, high = ratio_bounds(apply(A, x), x)
            lam = float(low + rng.uniform(0.1, 0.9) * (high - low))
            T = jacobian_T(A, x)
            if shift_rcond(lam, T) < 1e-6 or bordered_rcond(lam, T, x) < 1e-6:
                continue
            xb, lb = newton_step_bordered(A, x, lam)
            xc, lc, w = newton_step_closed(A, x, lam)
            assert np.linalg.norm(xb - xc, 1) <= 1e-10
            assert abs(lb - lc) <= 1e-10
            # w solves the shifted system
            assert_allclose((lam * np.eye(n) - T) @ w, x, atol=1e-8)
            checked += 1

    def test_closed_form_singular_shift_where_bordered_succeeds(self, cubic3):
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(SingularShift):
            newton_step_closed(cubic3, x, 0.0)
        x_next, lam_next = newton_step_bordered(cubic3, x, 0.0)
        assert_allclose(x_next, x, atol=1e-14)

    def test_closed_form_zero_denominator(self, diag_matrix):
        # (1.5 I - diag(1,2))^{-1} [0.5, 0.5] = [1, -1] sums to zero
        with pytest.raises(ZeroDenominator):
            newton_step_closed(diag_matrix, np.array([0.5, 0.5]), 1.5)

    @pytest.mark.parametrize("run", [run_mni, run_pni])
    def test_shift_schemes_take_the_closed_form_step(self, run):
        # The Newton value of a first MNI or PNI step is the closed form's,
        # bit for bit; PNI's iterate is the closed-form iterate projected.
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            m = int(rng.choice([2, 3, 4]))
            n = int(rng.integers(2, 7))
            A = random_tensor(m, n, float(rng.uniform(0.3, 1.0)), int(rng.integers(1e9)))
            x0 = random_simplex(rng, n)
            trace = run(A, x0, SolverConfig(max_iter=1)).trace
            if len(trace) < 2 or "lambda_adjusted" in trace[1].flags or trace[1].lam_hat is None:
                continue  # converged at x0, moved its first shift, or e^T w = 0
            xc, lc, _ = newton_step_closed(A, x0, trace[0].lam)
            assert trace[1].lam_hat == lc
            if run is run_pni:
                np.testing.assert_array_max_ulp(trace[1].x, proj_simplex(xc), maxulp=8)
            checked += 1


class TestProjections:
    def test_sign_dominant_cases(self):
        assert_allclose(project_sign_dominant([3.0, -1.0]), [3.0, 0.0], atol=0)
        assert_allclose(project_sign_dominant([1.0, -2.0]), [0.0, -2.0], atol=0)
        # a tie keeps the negative part
        assert_allclose(project_sign_dominant([-1.0, -1.0]), [-1.0, -1.0], atol=0)

    def test_sign_dominant_output_is_one_signed_and_nonzero(self):
        rng = np.random.default_rng(29)
        for trial in range(100):
            w_hat = rng.standard_normal(int(rng.integers(1, 8)))
            if not np.any(w_hat):
                continue
            w = project_sign_dominant(w_hat)
            assert np.any(w)
            assert np.all(w >= 0) or np.all(w <= 0)
            assert w.sum() != 0.0

    def test_sign_dominant_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            project_sign_dominant(np.zeros(3))

    def test_simplex_cases(self):
        assert_allclose(proj_simplex([0.5, 0.5]), [0.5, 0.5], atol=0)
        assert_allclose(proj_simplex([1.5, -0.5]), [1.0, 0.0], atol=0)
        assert_allclose(proj_simplex([-0.2, 0.6, 0.6]), [0.0, 0.5, 0.5], atol=0)

    def test_simplex_empty_rejected(self):
        with pytest.raises(ProjectionEmpty):
            proj_simplex([-0.5, -0.1])

    def test_simplex_output_on_simplex(self):
        rng = np.random.default_rng(37)
        for trial in range(100):
            x_hat = rng.standard_normal(int(rng.integers(1, 8)))
            if np.all(x_hat <= 0):
                continue
            x = proj_simplex(x_hat)
            assert np.all(x >= 0)
            assert abs(x.sum() - 1.0) <= 1e-14

    def test_simplex_projection_improves_distance(self):
        # nonexpansiveness toward any simplex point, for unit-sum inputs
        rng = np.random.default_rng(43)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            y = rng.standard_normal(n)
            while abs(y.sum()) < 0.2:
                y = rng.standard_normal(n)
            x_hat = y / y.sum()
            target = random_simplex(rng, n)
            assert (
                np.linalg.norm(proj_simplex(x_hat) - target, 1)
                <= np.linalg.norm(x_hat - target, 1) + 1e-12
            )

    def test_lambda_clamp_improves_distance(self):
        rng = np.random.default_rng(47)
        for trial in range(200):
            lam_hat = float(rng.standard_normal() * 3)
            lam_star = float(rng.standard_exponential())
            assert abs(max(lam_hat, 0.0) - lam_star) <= abs(lam_hat - lam_star) + 1e-15


class TestShiftSelection:
    def test_default_rule(self):
        assert mni_select_lambda(0.80, 0.7919, 0.7922) == 0.7922
        assert mni_select_lambda(0.50, 0.7919, 0.7922) == 0.7919
        assert mni_select_lambda(None, 0.1, 0.2) == 0.2
        assert mni_select_lambda(0.7920, 0.7919, 0.7922) == 0.7920

    def test_damped_rule_midpoint_logic(self):
        assert pni_select_lambda(0.5, 0.0, 2.0, 0.5) == 1.25
        assert pni_select_lambda(1.5, 0.0, 2.0, 0.5) == 0.75

    def test_damped_rule_endpoints(self):
        assert pni_select_lambda(0.5, 0.0, 2.0, 1.0) == 2.0
        assert pni_select_lambda(1.5, 0.0, 2.0, 1.0) == 0.0
        assert pni_select_lambda(0.37, 0.0, 2.0, 0.0) == 0.37


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="gradient")
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(beta_schedule=(0.5, 1.5))
        with pytest.raises(ValueError):
            SolverConfig(max_iter=-1)

    def test_max_iter_must_be_an_integer(self):
        # range() in the solver loop would raise TypeError on a float budget
        with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
            SolverConfig(max_iter=2.5)
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    def test_tol_must_be_finite(self):
        # an infinite tol would certify any start as converged at iteration 0
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolverConfig(tol=float("inf"))

    def test_beta_lookup(self):
        cfg = SolverConfig(beta_schedule=(0.1, 0.2))
        assert cfg.beta_at(0) == 0.1
        assert cfg.beta_at(1) == 0.2
        assert cfg.beta_at(5) == 0.2
        assert SolverConfig().beta_at(3) == 0.0


class TestRunMni:
    def test_interior_pair(self, quartic2):
        report = run_mni(quartic2, [0.2, 0.8])
        assert report.converged
        assert report.final.lam == pytest.approx(0.7923, abs=5e-5)
        assert np.linalg.norm(report.final.x - [0.1874, 0.8126], 1) <= 1e-4

    def test_uniform_start_finds_a_known_pair(self, quartic2):
        report = run_mni(quartic2, [0.5, 0.5])
        assert report.converged
        oracle = quartic2_eigenpairs_oracle()
        assert any(
            abs(report.final.lam - lam) < 1e-8 and np.linalg.norm(report.final.x - x, 1) < 1e-8
            for x, lam in oracle
        )

    def test_slow_tail_to_boundary_pair(self, quartic2):
        report = run_mni(quartic2, [0.99, 0.01])
        assert report.converged
        assert report.final.lam == pytest.approx(1.1, abs=1e-9)
        assert_allclose(report.final.x, [1.0, 0.0], atol=1e-9)
        # markedly slower than the interior-pair runs
        assert report.iterations > 15

    def test_one_dimensional(self):
        A3 = build_tensor(3, 1, [((1, 1, 1), 2.5)])
        report = run_mni(A3, [1.0])
        assert report.converged and report.iterations == 0
        assert report.final.lam == 2.5
        A2 = build_tensor(2, 1, [((1, 1), 2.0)])
        report = run_mni(A2, [1.0])
        assert report.converged and report.final.lam == 2.0

    def test_matrix_case_zero_denominator_branch(self, diag_matrix):
        report = run_mni(diag_matrix, [0.5, 0.5])
        assert report.converged
        assert report.final.lam == 2.0
        assert_allclose(report.final.x, [0.0, 1.0], atol=0)
        assert "lambda_adjusted" in report.trace[1].flags
        assert "zero_denominator_branch" in report.trace[1].flags
        assert "projection_changed" in report.trace[1].flags

    def test_trace_invariants(self, quartic2):
        report = run_mni(quartic2, [0.35, 0.65])
        assert report.converged
        for rec in report.trace:
            assert abs(np.linalg.norm(rec.x, 1) - 1.0) <= 1e-12
            assert np.all(rec.x > 0)  # m >= 3 keeps iterates strictly positive
            assert rec.lam_low - 1e-12 <= rec.lam <= rec.lam_high + 1e-12

    def test_rejects_bad_starts(self, quartic2):
        with pytest.raises(ValueError):
            run_mni(quartic2, [1.0, 0.0])
        with pytest.raises(ValueError):
            run_mni(quartic2, [0.4, 0.4])
        with pytest.raises(ValueError, match="finite"):
            run_mni(quartic2, [np.nan, 1.0])


class TestRunPni:
    def test_same_limit_as_mpni(self, quartic2):
        rp = run_pni(quartic2, [0.19, 0.81])
        rm = run_mpni(quartic2, [0.19, 0.81])
        assert rp.converged and rm.converged
        assert abs(rp.final.lam - rm.final.lam) <= 1e-10
        assert np.linalg.norm(rp.final.x - rm.final.x, 1) <= 1e-10

    def test_trace_equivalence_with_mpni_when_no_events(self, quartic2):
        # beta = 0, all shifts nonnegative, no singularity events
        rp = run_pni(quartic2, [0.2, 0.8])
        rm = run_mpni(quartic2, [0.2, 0.8])
        assert rp.iterations == rm.iterations
        for a, b in zip(rp.trace, rm.trace):
            assert abs(a.lam - b.lam) <= 1e-10
            assert np.linalg.norm(a.x - b.x, 1) <= 1e-10

    def test_nonzero_beta_converges_and_is_noted(self, quartic2):
        report = run_pni(quartic2, [0.2, 0.8], SolverConfig(method="pni", beta_schedule=(0.5,)))
        assert report.converged
        assert report.final.lam == pytest.approx(0.7923, abs=5e-5)
        assert any("beta" in note for note in report.notes)

    def test_a_rescued_shift_that_certifies_the_iterate_is_recorded_as_a_step(self):
        # the configured beta makes the last shift singular; the fallback
        # beta 0 gives back the Newton value, at which x already meets tol
        A = build_tensor(2, 2, [((2, 1), 0.25)])
        report = run_pni(A, [0.5, 0.5], SolverConfig(method="pni", beta_schedule=(0.3,)))
        assert report.converged and report.iterations == 16
        assert report.final.lam.hex() == "0x1.686af7d81823cp-22"
        # the last step's update never ran, so no beta damped a shift there
        assert report.notes == (f"nonzero beta used after steps {list(range(15))}",)
        previous, last = report.trace[-2:]
        assert last.x.tobytes() == previous.x.tobytes()
        assert last.flags == ("beta_escalated",)
        assert last.perturbation == last.lam - previous.lam

    def test_zero_denominator_is_reported(self, diag_matrix):
        report = run_pni(diag_matrix, [0.5, 0.5])
        assert report.status == "perturbation_exhausted"
        assert "e^T w" in report.failure_reason

    def test_cone_preservation(self, quartic2):
        report = run_pni(quartic2, [0.3, 0.7])
        for rec in report.trace:
            assert np.all(rec.x >= 0)
            assert abs(np.linalg.norm(rec.x, 1) - 1.0) <= 1e-12


class TestRunMpni:
    def test_interior_pair_within_budget(self, quartic2):
        report = run_mpni(quartic2, [0.2, 0.8], SolverConfig(tol=1e-12))
        assert report.converged
        assert report.iterations <= 15
        assert report.final.lam == pytest.approx(0.7923, abs=5e-5)
        assert np.linalg.norm(report.final.x - [0.1874, 0.8126], 1) <= 1e-4

    def test_degenerate_pair(self, cubic3):
        report = run_mpni(cubic3, [0.98, 0.01, 0.01])
        assert report.converged
        assert report.final.residual_norm < 1e-12
        assert_allclose(report.final.x, [1.0, 0.0, 0.0], atol=1e-12)
        assert report.final.lam == pytest.approx(0.0, abs=1e-12)

    def test_finite_termination_at_degenerate_pair(self, cubic3):
        # the simplex projection and the clamp land exactly on the pair
        report = run_mpni(cubic3, [0.98, 0.01, 0.01])
        assert report.final.residual_norm == 0.0
        assert report.iterations <= 3

    def test_exact_eigenpair_stops_immediately(self, quartic2, cubic3):
        report = run_mpni(cubic3, [1.0, 0.0, 0.0])
        assert report.converged and report.iterations == 0
        x_star, lam_star = quartic2_eigenpairs_oracle()[1]
        report = run_mpni(quartic2, x_star)
        assert report.converged and report.iterations <= 1

    def test_golden_ratio_pair(self, cubic3):
        # second nonnegative eigenpair: lam^2 = lam + 1, x = [0, 2-lam, lam-1]
        report = run_mpni(cubic3, [0.4, 0.3, 0.3])
        assert report.converged
        phi = (1 + np.sqrt(5)) / 2
        assert report.final.lam == pytest.approx(phi, abs=1e-12)
        assert_allclose(report.final.x, [0.0, 2 - phi, phi - 1], atol=1e-12)

    def test_iterates_stay_feasible(self, quartic2, cubic3):
        for A, x0 in ((quartic2, [0.6, 0.4]), (cubic3, [0.5, 0.25, 0.25])):
            report = run_mpni(A, x0)
            for rec in report.trace:
                assert np.all(rec.x >= 0)
                assert abs(np.linalg.norm(rec.x, 1) - 1.0) <= 1e-12
                assert rec.lam >= 0


class TestRunNewton:
    def test_converges_from_four_digit_start(self, quartic2):
        report = run_newton(quartic2, [0.1875, 0.8125], 0.7921)
        assert report.converged
        assert report.final.lam == pytest.approx(0.7923, abs=5e-5)
        assert np.linalg.norm(report.final.x - [0.1874, 0.8126], 1) <= 1e-4

    def test_agrees_with_mpni_when_no_projection_fires(self, quartic2):
        x0 = [0.2, 0.8]
        _, high = ratio_bounds(apply(quartic2, x0), x0)
        rn = run_newton(quartic2, x0, high)
        rm = run_mpni(quartic2, x0)
        assert rn.iterations == rm.iterations
        assert not any("projection_changed" in rec.flags for rec in rm.trace)
        for a, b in zip(rn.trace, rm.trace):
            assert abs(a.lam - b.lam) <= 1e-10
            assert np.linalg.norm(a.x - b.x, 1) <= 1e-10

    def test_divergence_is_reported(self, quartic2):
        report = run_newton(quartic2, [0.2, 0.8], 1e9)
        assert report.status == "diverged"

    def test_far_start_reports_faithfully(self, quartic2):
        report = run_newton(quartic2, [0.9, 0.1], 5.0, SolverConfig(method="newton"))
        assert report.status in {
            "converged", "max_iter", "diverged", "perturbation_exhausted"
        }
        if report.converged:
            assert report.final.residual_norm < 1e-12

    def test_max_iter_status(self, quartic2):
        report = run_newton(quartic2, [0.2, 0.8], 0.5, SolverConfig(max_iter=0))
        assert report.status == "max_iter"
        assert report.iterations == 0

    def test_omitted_shift_matches_solve(self, quartic2, cubic3):
        for A, x0 in ((quartic2, [0.2, 0.8]), (quartic2, [1.0, 0.0]), (cubic3, [0.4, 0.3, 0.3])):
            direct = run_newton(A, x0)
            routed = solve(A, x0, SolverConfig(method="newton"))
            assert pickle.dumps(direct) == pickle.dumps(routed)

    def test_start_must_sum_to_one(self, quartic2):
        # a converged report certifies ||x||_1 = 1, so the start must have it
        for lam0 in (None, 1.1):
            with pytest.raises(ValueError, match=r"sum to 1, got 2\.0$"):
                solve(quartic2, [2.0, 0.0], SolverConfig(method="newton"), lam0=lam0)

    def test_omitted_shift_needs_nonnegative_start(self, quartic2):
        # the upper ratio bound that stands in for lam0 is defined only for x >= 0
        with pytest.raises(ValueError, match="nonnegative with a positive entry"):
            solve(quartic2, [1.5, -0.5], SolverConfig(method="newton"))

    def test_given_shift_allows_mixed_signs(self, quartic2):
        report = solve(quartic2, [1.5, -0.5], SolverConfig(method="newton"), lam0=1.0)
        assert report.converged
        assert report.final.lam == pytest.approx(1.1, abs=1e-12)


class TestDispatcher:
    def test_method_routing(self, quartic2):
        for method in ("newton", "mni", "pni", "mpni"):
            report = solve(quartic2, [0.2, 0.8], SolverConfig(method=method))
            assert report.method == method
            assert report.converged

    def test_lam0_rejected_for_other_methods(self, quartic2):
        # MNI, PNI and MPNI choose their own shifts, so a lam0 would be ignored
        for method in ("mni", "pni", "mpni"):
            with pytest.raises(ValueError, match="lam0 is used only by method 'newton'"):
                solve(quartic2, [0.2, 0.8], SolverConfig(method=method), lam0=5.0)
        with pytest.raises(ValueError, match="not 'mpni'"):
            solve(quartic2, [0.2, 0.8], lam0=5.0)  # the default method

    def test_loop_maps_an_empty_projection_to_its_status(self, quartic2, monkeypatch):
        # no tensor is known to reach it, so the projection is made to fail
        def empty(x_hat):
            raise ProjectionEmpty("vector has no positive components")

        monkeypatch.setattr("zeigen.solvers.proj_simplex", empty)
        for method in ("mni", "pni", "mpni"):
            report = solve(quartic2, [0.2, 0.8], SolverConfig(method=method))
            assert report.status == "projection_empty"
            assert report.failure_reason == "vector has no positive components"
            assert report.iterations == 0 and len(report.trace) == 1
            start = report.trace[-1]
            assert report.final.x.tobytes() == start.x.tobytes()
            assert (report.final.lam, report.final.residual_norm) == (start.lam, start.residual)

    def test_a_non_finite_iterate_ends_every_method_on_it(self, quartic2, monkeypatch):
        # the loop's own check ends the run on the iterate the step formed
        def nans(x_hat):
            return np.full(x_hat.size, np.nan)

        monkeypatch.setattr("zeigen.solvers.proj_simplex", nans)
        for method in ("mni", "pni", "mpni"):
            report = solve(quartic2, [0.2, 0.8], SolverConfig(method=method))
            assert (report.status, report.failure_reason) == ("diverged", "non-finite iterate")
            assert report.iterations == 1 and len(report.trace) == 1
            assert np.isnan(report.final.x).all()

    def test_an_overflowing_start_diverges_without_raising(self):
        cells = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))
        A = build_tensor(3, 2, [(cell, 1.7e308) for cell in cells])
        for method in ("newton", "mni", "pni", "mpni"):
            report = solve(A, [0.5, 0.5], SolverConfig(method=method))
            assert (report.status, report.failure_reason) == ("diverged", "non-finite iterate")
            assert report.iterations == 0 and report.trace == ()

    def test_determinism(self, quartic2):
        a = solve(quartic2, [0.3, 0.7])
        b = solve(quartic2, [0.3, 0.7])
        assert a.final.lam == b.final.lam
        assert np.array_equal(a.final.x, b.final.x)
