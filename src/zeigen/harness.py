"""Experiment drivers: multi-start enumeration, eigenpair deduplication,
convergence-order estimation, random tensors, and a finite-difference
check of the contraction Jacobian."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData
from .solvers import SolverConfig, StepRecord, solve
from .tensor import Iterate, Tensor, _tensor, apply, jacobian_T

# Error window for order fitting: below the floor the sequence is rounding
# noise, above the ceiling it is outside the local basin.
ORDER_FLOOR = 1e-13
ORDER_CEIL = 1e-2

# dedup's clustering tolerances: on ||x - x'||_1 and on |lam - lam'|.
DEDUP_X_TOL = 1e-8
DEDUP_LAMBDA_TOL = 1e-8


@dataclass(frozen=True)
class Eigenpair:
    """A converged eigenpair with its witness start vector."""

    x: np.ndarray
    lam: float
    residual: float
    start: np.ndarray
    method: str


@dataclass(frozen=True)
class RunFailure:
    start: np.ndarray
    status: str
    reason: str | None = None


@dataclass
class EigenpairSet:
    """Distinct eigenpairs found by a sweep, plus the failed starts."""

    pairs: list[Eigenpair] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i) -> Eigenpair:
        return self.pairs[i]


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Least-squares convergence order fitted on log e_{k+1} vs log e_k."""

    order: float
    errors: np.ndarray
    used_points: int


def simplex_start(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the open probability simplex (normalized
    exponentials)."""
    while True:
        draw = rng.standard_exponential(n)
        if np.all(draw > 0):
            return draw / draw.sum()


def multi_start(
    A: Tensor, num_starts: int, seed: int, config: SolverConfig | None = None
) -> EigenpairSet:
    """Run the configured solver from ``num_starts`` random simplex starts
    and collect the distinct converged eigenpairs (see :func:`dedup`).

    Deterministic for a fixed seed; failed runs are excluded from the pairs
    and recorded with their status.
    """
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    cfg = config or SolverConfig()
    rng = np.random.default_rng(seed)
    found: list[Eigenpair] = []
    failures: list[RunFailure] = []
    for _ in range(num_starts):
        x0 = simplex_start(A.n, rng)
        report = solve(A, x0, cfg)
        if report.converged:
            found.append(
                Eigenpair(
                    x=report.final.x,
                    lam=report.final.lam,
                    residual=report.final.residual_norm,
                    start=x0,
                    method=report.method,
                )
            )
        else:
            failures.append(RunFailure(start=x0, status=report.status, reason=report.failure_reason))
    result = dedup(found)
    result.failures = failures
    return result


def dedup(pairs) -> EigenpairSet:
    """Collapse near-identical eigenpairs, keeping the lowest-residual
    representative of each cluster.

    Two pairs cluster iff ``||x - x'||_1 < DEDUP_X_TOL`` and
    ``|lam - lam'| < DEDUP_LAMBDA_TOL``.  The survivors are sorted by
    eigenvalue.
    """
    ordered = sorted(pairs, key=lambda p: (p.residual, p.lam, tuple(p.x)))
    kept: list[Eigenpair] = []
    for p in ordered:
        close = any(
            np.linalg.norm(p.x - q.x, 1) < DEDUP_X_TOL and abs(p.lam - q.lam) < DEDUP_LAMBDA_TOL
            for q in kept
        )
        if not close:
            kept.append(p)
    kept.sort(key=lambda p: (p.lam, tuple(p.x)))
    return EigenpairSet(pairs=kept)


def estimate_order(trace: Sequence[StepRecord], reference: Iterate) -> ConvergenceEstimate:
    """Fit the convergence order p of a trace (a report's, or any sequence
    of records) against a converged reference, such as the report's final.

    The per-step error is ``e_k = ||x_k - x*||_1 + |lam_k - lam*|``; the
    slope of ``log e_{k+1}`` against ``log e_k`` is fitted over consecutive
    steps whose errors lie strictly between 1e-13 and 1e-2.  Raises
    :class:`InsufficientData` with fewer than 3 usable points.
    """
    errors = np.array(
        [np.linalg.norm(r.x - reference.x, 1) + abs(r.lam - reference.lam) for r in trace]
    )
    usable = (errors > ORDER_FLOOR) & (errors < ORDER_CEIL)
    pair_idx = [k for k in range(len(errors) - 1) if usable[k] and usable[k + 1]]
    points = set(pair_idx) | {k + 1 for k in pair_idx}
    if len(points) < 3:
        raise InsufficientData(
            f"only {len(points)} usable points in ({ORDER_FLOOR:g}, {ORDER_CEIL:g})"
        )
    log_prev = np.log(errors[pair_idx])
    log_next = np.log(errors[[k + 1 for k in pair_idx]])
    slope, _ = np.polyfit(log_prev, log_next, 1)
    return ConvergenceEstimate(order=float(slope), errors=errors, used_points=len(points))


def random_tensor(m: int, n: int, density: float, seed: int) -> Tensor:
    """Random nonnegative tensor: ceil(density * n^m) distinct index tuples
    drawn uniformly, values uniform on [0, 1).  Deterministic given seed."""
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    total = n**m
    count = min(total, math.ceil(density * total))
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=count, replace=False)
    grid = np.unravel_index(flat, (n,) * m)
    return _tensor(m, n, np.stack(grid, axis=1) + 1, rng.random(count))


def fd_check(A: Tensor, x, h: float = 1e-6) -> float:
    """Max relative error of ``jacobian_T`` and ``apply`` against the
    contraction summed from the stored entries: per column of ``T(x)``, its
    central differences (step ``h * max(1, |x_j|)``), and ``apply`` at ``x``."""
    x = np.asarray(x, dtype=float)
    rows, cols = A.indices[:, 0], A.indices[:, 1:]

    def contract(y):
        return np.bincount(rows, A.values * np.prod(y[cols], axis=1), A.n)

    T, ax = jacobian_T(A, x), contract(x)  # jacobian_T checks x
    worst = float(np.linalg.norm(apply(A, x) - ax, 1) / max(1.0, np.linalg.norm(ax, 1)))
    for j in range(A.n):
        hj = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += hj
        xm = x.copy()
        xm[j] -= hj
        column = (contract(xp) - contract(xm)) / (2.0 * hj)
        err = np.linalg.norm(column - T[:, j], 1) / max(1.0, np.linalg.norm(T[:, j], 1))
        worst = max(worst, float(err))
    return worst
