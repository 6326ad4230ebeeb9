"""Tests for multi-start enumeration, dedup, order estimation, random
tensors, and the finite-difference Jacobian check."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import zeigen.tensor
from zeigen import (
    Eigenpair,
    InsufficientData,
    Iterate,
    SolverConfig,
    StepRecord,
    build_tensor,
    dedup,
    estimate_order,
    fd_check,
    multi_start,
    random_tensor,
    residual,
)

from conftest import dim2_eigenpairs_oracle, quartic2_eigenpairs_oracle


def test_the_exact_dim2_oracle_gives_the_hand_derived_pairs(quartic2):
    # two interior pairs, and the face pair ([1, 0], 1.1) from the root t = 1
    exact, hand = dim2_eigenpairs_oracle(quartic2), quartic2_eigenpairs_oracle()
    assert len(exact) == len(hand) == 3
    for (x, lam), (x_ref, lam_ref) in zip(exact, hand):
        assert np.abs(x - x_ref).sum() <= 1e-13
        assert abs(lam - lam_ref) <= 1e-13


class TestMultiStart:
    def test_finds_all_three_pairs(self, quartic2):
        result = multi_start(quartic2, 50, seed=7)
        assert len(result) == 3
        oracle = quartic2_eigenpairs_oracle()
        assert len(oracle) == 3
        for found, (x_ref, lam_ref) in zip(result, oracle):
            assert abs(found.lam - lam_ref) <= 1e-3
            assert np.linalg.norm(found.x - x_ref, 1) <= 1e-3

    def test_members_verify(self, quartic2):
        cfg = SolverConfig()
        result = multi_start(quartic2, 20, seed=3, config=cfg)
        for pair in result:
            assert residual(quartic2, pair.x, pair.lam) < cfg.tol
            assert np.all(pair.x >= 0)
            assert abs(np.linalg.norm(pair.x, 1) - 1.0) <= 1e-12
            assert pair.method == "mpni"

    def test_deterministic_given_seed(self, quartic2):
        a = multi_start(quartic2, 15, seed=11)
        b = multi_start(quartic2, 15, seed=11)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.lam == pb.lam
            assert np.array_equal(pa.x, pb.x)
            assert np.array_equal(pa.start, pb.start)

    def test_one_dimensional(self):
        A = build_tensor(4, 1, [((1, 1, 1, 1), 3.25)])
        result = multi_start(A, 5, seed=0)
        assert len(result) == 1
        assert result[0].lam == 3.25
        assert_allclose(result[0].x, [1.0], atol=0)

    def test_failures_recorded_not_raised(self, quartic2):
        result = multi_start(quartic2, 10, seed=5, config=SolverConfig(max_iter=1))
        assert len(result.failures) > 0
        for failure in result.failures:
            assert failure.status == "max_iter"

    def test_rejects_zero_starts(self, quartic2):
        with pytest.raises(ValueError):
            multi_start(quartic2, 0, seed=1)


def _pair(x, lam, res=1e-14):
    x = np.asarray(x, dtype=float)
    return Eigenpair(x=x, lam=lam, residual=res, start=x, method="mpni")


class TestDedup:
    def test_near_duplicates_collapse(self):
        a = _pair([0.5, 0.5], 1.0, res=1e-15)
        b = _pair([0.5 + 1e-12, 0.5 - 1e-12], 1.0 + 1e-12, res=1e-13)
        result = dedup([a, b])
        assert len(result) == 1
        assert result[0].residual == 1e-15  # lowest-residual representative

    def test_distinct_pairs_kept(self):
        a = _pair([1.0, 0.0], 1.1)
        b = _pair([0.1874, 0.8126], 0.7923)
        result = dedup([a, b])
        assert len(result) == 2
        assert result[0].lam < result[1].lam  # sorted by eigenvalue

    def test_empty_input(self):
        assert len(dedup([])) == 0

    def test_idempotent_and_order_insensitive(self):
        pairs = [
            _pair([1.0, 0.0], 1.1, res=1e-14),
            _pair([1.0 - 5e-9, 5e-9], 1.1 + 1e-10, res=1e-15),
            _pair([0.1874, 0.8126], 0.7923, res=1e-13),
        ]
        first = dedup(pairs)
        again = dedup(first.pairs)
        assert [p.lam for p in again] == [p.lam for p in first]
        reversed_order = dedup(list(reversed(pairs)))
        assert [p.lam for p in reversed_order] == [p.lam for p in first]


def _synthetic_trace(errors, x_star, lam_star):
    return [
        StepRecord(k=k, x=np.array(x_star), lam=lam_star + e, residual=max(e, 0.0))
        for k, e in enumerate(errors)
    ]


class TestEstimateOrder:
    def test_exact_quadratic_sequence(self):
        e0 = 0.05
        errors = [e0 ** (2**k) for k in range(5)]
        trace = _synthetic_trace(errors, [1.0, 0.0], 0.0)
        reference = Iterate(x=np.array([1.0, 0.0]), lam=0.0, residual_norm=0.0)
        est = estimate_order(trace, reference)
        assert est.order == pytest.approx(2.0, abs=0.05)
        assert est.used_points == 3

    def test_linear_sequence(self):
        errors = [1e-3 * 0.5**k for k in range(25)]
        trace = _synthetic_trace(errors, [1.0], 2.0)
        reference = Iterate(x=np.array([1.0]), lam=2.0, residual_norm=0.0)
        est = estimate_order(trace, reference)
        assert est.order == pytest.approx(1.0, abs=0.05)

    def test_insufficient_data(self):
        trace = _synthetic_trace([0.5, 1e-15], [1.0], 0.0)
        reference = Iterate(x=np.array([1.0]), lam=0.0, residual_norm=0.0)
        with pytest.raises(InsufficientData):
            estimate_order(trace, reference)

    def test_interior_pair_trace_is_quadratic(self, quartic2):
        from zeigen import run_mpni

        report = run_mpni(quartic2, [0.2, 0.8])
        assert report.final.residual_norm < 1e-13
        est = estimate_order(report.trace, report.final)
        assert est.order >= 1.8

    def test_golden_ratio_pair_trace_is_quadratic(self, cubic3):
        from zeigen import run_mpni

        report = run_mpni(cubic3, [0.1, 0.45, 0.45], SolverConfig(tol=1e-13))
        phi = (1 + 5**0.5) / 2
        assert abs(report.final.lam - phi) < 1e-12
        est = estimate_order(report.trace, report.final)
        assert est.order >= 1.8

    def test_order_of_a_report_against_its_final(self, quartic2, cubic3):
        from zeigen import run_mpni

        report = run_mpni(quartic2, [0.2, 0.8])
        assert estimate_order(report.trace, report.final).order == pytest.approx(2.0, abs=0.2)
        report = run_mpni(cubic3, [0.98, 0.01, 0.01])
        with pytest.raises(InsufficientData):
            estimate_order(report.trace, report.final)


class TestRandomTensor:
    def test_full_density_count(self):
        A = random_tensor(3, 2, 1.0, seed=1)
        assert A.nnz == 8

    def test_partial_density_ceil(self):
        A = random_tensor(3, 2, 0.5, seed=1)
        assert A.nnz == 4
        A = random_tensor(2, 3, 0.01, seed=1)
        assert A.nnz == 1

    def test_deterministic(self):
        a = random_tensor(4, 3, 0.3, seed=42)
        b = random_tensor(4, 3, 0.3, seed=42)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_nonnegative_and_valid(self):
        for seed in range(10):
            A = random_tensor(3, 4, 0.7, seed=seed)
            assert np.all(A.values >= 0)
            assert len({tuple(row) for row in A.indices}) == A.nnz

    def test_density_validated(self):
        with pytest.raises(ValueError):
            random_tensor(3, 2, 0.0, seed=1)
        with pytest.raises(ValueError):
            random_tensor(3, 2, 1.5, seed=1)


class TestFdCheck:
    def test_quartic(self, quartic2):
        assert fd_check(quartic2, [0.3, 0.7]) <= 1e-6

    def test_cubic_at_degenerate_point(self, cubic3):
        assert fd_check(cubic3, [1.0, 0.0, 0.0]) <= 1e-6

    def test_matrix_case_nearly_exact(self):
        # dyadic entries, points, and step keep the differences exact
        A = build_tensor(2, 3, [((1, 2), 0.5), ((2, 1), 1.5), ((3, 3), 2.0)])
        assert fd_check(A, [0.25, 0.5, 0.25], h=2.0**-20) <= 1e-12

    def test_a_jacobian_off_by_a_factor_fails(self, monkeypatch):
        # apply is T(x) x / (m-1) from the same kernel, so only differences
        # of a contraction that does not go through T(x) can see this
        jacobian = zeigen.tensor._jacobian
        monkeypatch.setattr(zeigen.tensor, "_jacobian", lambda A, x: 2.0 * jacobian(A, x))
        x = np.random.default_rng(3).standard_exponential(5)
        assert fd_check(random_tensor(4, 5, 0.5, 3), x) > 1e-6

    def test_random_instances(self):
        rng = np.random.default_rng(53)
        for trial in range(20):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(2, 7))
            A = random_tensor(m, n, 0.6, int(rng.integers(1e9)))
            x = rng.standard_exponential(n)
            assert fd_check(A, x) <= 1e-6
