"""Tests for the shifted and bordered solvers, singularity detection, and
the shift-perturbation escape."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zeigen import (
    DimensionMismatch,
    PerturbationExhausted,
    SingularBordered,
    SingularShift,
    bordered_matrix,
    ensure_bordered_nonsingular,
    jacobian_T,
    solve_bordered,
    solve_shifted,
)
from zeigen import linalg
from zeigen.linalg import bordered_rcond, shift_rcond

from conftest import gauss_solve


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: solve_shifted(1.0, np.eye(3), np.ones(2)), id="solve_shifted_T"),
        pytest.param(
            lambda: solve_bordered(1.0, np.eye(2), np.ones(2), np.ones(3), 0.0),
            id="solve_bordered_r",
        ),
        pytest.param(lambda: bordered_matrix(1.0, np.eye(3), np.ones(2)), id="bordered_matrix_T"),
    ],
)
def test_shape_mismatch_raises(call):
    with pytest.raises(DimensionMismatch, match="has shape"):
        call()


class TestSolveShifted:
    def test_diagonal_system(self):
        w, diag = solve_shifted(2.0, np.zeros((3, 3)), np.array([1.0, 1.0, 1.0]))
        assert_allclose(w, [0.5, 0.5, 0.5], atol=0)
        assert not diag.singular
        assert 0.0 <= diag.rcond <= 1.0

    def test_singular_shift_at_degenerate_pair(self, cubic3):
        T = jacobian_T(cubic3, [1.0, 0.0, 0.0])
        with pytest.raises(SingularShift) as exc_info:
            solve_shifted(0.0, T, np.array([1.0, 0.0, 0.0]))
        assert exc_info.value.diagnostics.singular

    def test_backward_error_on_random_systems(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            n = int(rng.integers(1, 9))
            T = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            lam = float(rng.uniform(5.0, 10.0)) + float(np.abs(T).sum())
            w, diag = solve_shifted(lam, T, b)
            # the rcond alone is read from the LU the solve judged by
            assert shift_rcond(lam, T).hex() == diag.rcond.hex()
            M = lam * np.eye(n) - T
            backward = np.linalg.norm(M @ w - b, 1)
            scale = np.linalg.norm(b, 1) + np.linalg.norm(M, 1) * np.linalg.norm(w, 1)
            assert backward <= 1e-12 * scale


class TestSolveBordered:
    def test_zero_rhs_gives_zero_step(self):
        T = np.array([[0.2, 0.1], [0.0, 0.5]])
        x = np.array([0.5, 0.5])
        d, delta, diag = solve_bordered(2.0, T, x, np.zeros(2), 0.0)
        assert_allclose(d, [0.0, 0.0], atol=0)
        assert delta == 0.0
        assert not diag.singular

    def test_degenerate_pair_matrix_entrywise(self, cubic3):
        T = jacobian_T(cubic3, [1.0, 0.0, 0.0])
        M = bordered_matrix(0.0, T, np.array([1.0, 0.0, 0.0]))
        expected = np.array(
            [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, -1, 0], [1, 1, 1, 0]], dtype=float
        )
        assert_allclose(M, expected, atol=0)
        # singular shift, nonsingular bordered matrix: any rhs is solvable
        rng = np.random.default_rng(2)
        r = rng.standard_normal(3)
        d, delta, diag = solve_bordered(0.0, T, np.array([1.0, 0.0, 0.0]), r, 0.3)
        assert not diag.singular
        assert_allclose(M @ np.concatenate([d, [delta]]), np.concatenate([r, [0.3]]), atol=1e-12)

    @pytest.mark.parametrize("lam", [2.5, 0.0, -0.0, -1.5])
    def test_matrix_bits_match_lam_eye_minus_T(self, lam):
        # signed zeros: lam * 0.0 - T off the diagonal, which is +0.0, not
        # -T's -0.0, where T holds +0.0 and lam >= 0
        T = np.array([[0.0, 1.5, -0.0], [0.0, 2.0, 0.0], [-0.25, 0.0, -0.0]])
        x = np.array([0.5, 0.0, 0.5])
        shifted = lam * np.eye(3) - T
        expected = np.zeros((4, 4))
        expected[:3, :3] = shifted
        expected[:3, 3] = x
        expected[3, :3] = 1.0
        M = bordered_matrix(lam, T, x)
        assert M.shape == expected.shape
        assert (M.view(np.int64) == expected.view(np.int64)).all()
        assert (linalg._shifted(lam, T, 3).view(np.int64) == shifted.view(np.int64)).all()

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 8))
            T = rng.standard_normal((n, n))
            x = rng.standard_exponential(n)
            x = x / x.sum()
            lam = float(rng.standard_normal())
            M = bordered_matrix(lam, T, x)
            rcond = bordered_rcond(lam, T, x)
            if rcond < 1e-8:
                continue
            r = rng.standard_normal(n)
            s = float(rng.standard_normal())
            d, delta, diag = solve_bordered(lam, T, x, r, s)
            # the rcond alone is read from the LU the solve judged by
            assert diag.rcond.hex() == rcond.hex()
            expected = gauss_solve(M, np.concatenate([r, [s]]))
            assert_allclose(np.concatenate([d, [delta]]), expected, rtol=1e-10, atol=1e-10)
            checked += 1

    def test_singular_bordered_raises(self):
        # determinant of the bordered matrix is -0.5*(2*lam - 3): zero at 1.5
        T = np.diag([1.0, 2.0])
        x = np.array([0.5, 0.5])
        with pytest.raises(SingularBordered):
            solve_bordered(1.5, T, x, np.zeros(2), 0.0)


class TestEnsureBorderedNonsingular:
    def test_noop_when_already_nonsingular(self, cubic3):
        T = jacobian_T(cubic3, [1.0, 0.0, 0.0])
        lam, diag = ensure_bordered_nonsingular(0.0, T, np.array([1.0, 0.0, 0.0]))
        assert lam == 0.0
        assert diag.perturbation == 0.0

    def test_keeps_the_sign_of_a_zero_shift(self, cubic3):
        # MPNI clamps its shift with max(lam_hat, 0.0), which keeps a -0.0; the
        # rescue's first candidate is that shift itself, not lam + 0.0 = +0.0
        T = jacobian_T(cubic3, [1.0, 0.0, 0.0])
        lam, diag = ensure_bordered_nonsingular(-0.0, T, np.array([1.0, 0.0, 0.0]))
        assert lam.hex() == "-0x0.0p+0"
        assert diag.perturbation == 0.0

    def test_escapes_constructed_root(self):
        T = np.diag([1.0, 2.0])
        x = np.array([0.5, 0.5])
        assert np.linalg.det(bordered_matrix(1.5, T, x)) == 0.0
        lam, diag = ensure_bordered_nonsingular(1.5, T, x)
        assert lam > 1.5
        assert diag.perturbation > 0
        assert bordered_rcond(lam, T, x) >= 1e-12
        # a solve at the accepted shift judges the matrix by the same rcond
        _, _, solved = solve_bordered(lam, T, x, np.ones(2), 1.0)
        assert solved.rcond.hex() == diag.rcond.hex()

    def test_noop_on_random_nonsingular_inputs(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n = int(rng.integers(1, 7))
            T = rng.random((n, n))
            x = rng.standard_exponential(n)
            x = x / x.sum()
            lam = 2.0 + float(np.abs(T).sum())
            if bordered_rcond(lam, T, x) < 1e-8:
                continue
            out, diag = ensure_bordered_nonsingular(lam, T, x)
            assert out == lam
            assert diag.perturbation == 0.0

    def test_idempotent(self):
        T = np.diag([1.0, 2.0])
        x = np.array([0.5, 0.5])
        lam1, _ = ensure_bordered_nonsingular(1.5, T, x)
        lam2, diag2 = ensure_bordered_nonsingular(lam1, T, x)
        assert lam2 == lam1
        assert diag2.perturbation == 0.0

    def test_exhaustion_on_hopeless_schedule(self):
        # a zero border column leaves the bordered matrix singular at every shift
        T = np.diag([1.0, 2.0])
        with pytest.raises(PerturbationExhausted) as exc_info:
            ensure_bordered_nonsingular(1.5, T, np.zeros(2))
        assert exc_info.value.diagnostics.singular
        assert exc_info.value.diagnostics.perturbation > 0

    def test_exhaustion_without_attempts(self, monkeypatch):
        monkeypatch.setattr("zeigen.linalg.EPS_ATTEMPTS", 0)
        T = np.diag([1.0, 2.0])
        x = np.array([0.5, 0.5])
        with pytest.raises(PerturbationExhausted):
            ensure_bordered_nonsingular(1.5, T, x)


class TestDeterminantDegree:
    def test_degree_is_dimension_minus_one(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            T = rng.random((n, n))
            x = rng.standard_exponential(n)
            x = x / x.sum()
            lams = np.linspace(-2.0, 2.0, n + 2)
            dets = np.array([np.linalg.det(bordered_matrix(lam, T, x)) for lam in lams])
            coeffs = np.polynomial.polynomial.polyfit(lams, dets, max(n - 1, 0))
            fit = np.polynomial.polynomial.polyval(lams, coeffs)
            rel = np.linalg.norm(fit - dets) / np.linalg.norm(dets)
            assert rel <= 1e-8

    def test_rcond_threshold_sets_flag(self):
        T = np.diag([1.0, 2.0])
        x = np.array([0.5, 0.5])
        assert shift_rcond(1.0, T) == 0.0
        assert shift_rcond(1.5, T) > 1e-12
