"""Newton and modified Newton iterations for nonnegative Z-eigenpairs.

Four schemes share the same skeleton (stop on ``||A x^{m-1} - lam x||_1 <
tol``, trace every iterate) and differ in how the next ``(x, lam)`` is
formed:

* ``run_newton``  -- plain Newton steps through the bordered system; no
  projection, no clamping.  Baseline; may leave the nonnegative cone.
* ``run_mni``     -- solves the shifted system, projects the auxiliary
  vector onto its dominant sign part, and picks the next shift inside the
  componentwise ratio interval.
* ``run_pni``     -- like ``run_mni`` but projects the candidate iterate
  (zeroing negative components) instead of the auxiliary vector, and damps
  the shift toward the ratio interval with a factor ``beta``.
* ``run_mpni``    -- full Newton step through the bordered system, then
  projection of the iterate onto the probability simplex and clamping of
  the shift at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    PerturbationExhausted,
    ProjectionEmpty,
    SingularBordered,
    SingularShift,
    ZeroDenominator,
    ZeroVector,
)
from .linalg import (
    EPS_ATTEMPTS,
    EPS_BASE,
    EPS_FACTOR,
    RCOND_THRESHOLD,
    SolveDiagnostics,
    ensure_bordered_nonsingular,
    solve_bordered,
    solve_shifted,
)
from .tensor import Iterate, Tensor, apply, jacobian_T, ratio_bounds

METHODS = ("newton", "mni", "pni", "mpni")

# |e^T w| below this fraction of ||w||_1 counts as a vanishing denominator.
ZERO_DENOM_TOL = 1e-14

# Bisection attempts when a chosen shift must be moved inside the ratio
# interval to escape near-singularity.
INTERVAL_ADJUST_ATTEMPTS = 40

# Fallback damping factors tried when the configured beta leaves the
# shifted matrix singular.
BETA_FALLBACK = tuple(round(0.1 * j, 1) for j in range(11))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all iteration schemes.

    ``beta_schedule`` only affects ``run_pni``: entry ``k`` damps the shift
    chosen after step ``k``; past the end of the schedule the last entry is
    reused (no schedule means beta = 0 throughout).
    """

    method: str = "mpni"
    tol: float = 1e-12
    max_iter: int = 100
    beta_schedule: tuple[float, ...] | None = None
    rcond_threshold: float = RCOND_THRESHOLD
    eps_base: float = EPS_BASE
    eps_factor: float = EPS_FACTOR
    eps_attempts: int = EPS_ATTEMPTS
    divergence_bound: float = 1e8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.beta_schedule is not None:
            betas = tuple(float(b) for b in self.beta_schedule)
            if any(not 0.0 <= b <= 1.0 for b in betas):
                raise ValueError(f"beta values must lie in [0, 1], got {betas}")
            object.__setattr__(self, "beta_schedule", betas)

    def beta_at(self, k: int) -> float:
        if not self.beta_schedule:
            return 0.0
        return self.beta_schedule[min(k, len(self.beta_schedule) - 1)]


@dataclass(frozen=True)
class StepRecord:
    """State at one iteration, plus how it was produced.

    ``lam_hat`` is the unclamped Newton value behind ``lam`` (None at the
    start or when e^T w = 0 forced the fallback branch); the interval
    fields are the componentwise ratio bounds when the scheme computes
    them; ``perturbation`` is the shift offset applied to escape a singular
    bordered matrix in the step that produced this iterate.
    """

    k: int
    x: np.ndarray
    lam: float
    residual: float
    lam_hat: float | None = None
    lam_low: float | None = None
    lam_high: float | None = None
    flags: tuple[str, ...] = ()
    perturbation: float = 0.0


@dataclass
class IterationTrace:
    records: list[StepRecord] = field(default_factory=list)

    def append(self, record: StepRecord) -> None:
        if record.k != len(self.records):
            raise ValueError(f"expected step {len(self.records)}, got {record.k}")
        if not (np.isnan(record.residual) or record.residual >= 0):
            raise ValueError(f"negative residual {record.residual}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


@dataclass
class SolveReport:
    """Outcome of one solver run."""

    method: str
    status: str  # converged | max_iter | diverged | perturbation_exhausted | projection_empty
    final: Iterate
    iterations: int
    trace: IterationTrace
    order_estimate: float | None = None
    failure_reason: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def newton_step_bordered(
    A: Tensor,
    x: np.ndarray,
    lam: float,
    rcond_threshold: float = RCOND_THRESHOLD,
    T: np.ndarray | None = None,
    ax: np.ndarray | None = None,
    factored: SolveDiagnostics | None = None,
) -> tuple[np.ndarray, float]:
    """One Newton step through the bordered system.

    Solves [[lam*I - T(x), x], [e^T, 0]] [d; delta] = [lam*x - A x^{m-1};
    e^T x - 1] and returns ``(x - d, lam - delta)``.  Propagates
    :class:`SingularBordered` when the system is (near-)singular.  ``T``,
    ``ax = A x^{m-1}`` and ``factored`` (see :func:`solve_bordered`) are reused.
    """
    x = np.asarray(x, dtype=float)
    if T is None:
        T = jacobian_T(A, x)
    if ax is None:
        ax = apply(A, x)
    r = lam * x - ax
    s = float(x.sum() - 1.0)
    d, delta, _ = solve_bordered(lam, T, x, r, s, rcond_threshold, factored)
    return x - d, float(lam - delta)


def newton_step_closed(
    A: Tensor,
    x: np.ndarray,
    lam: float,
    rcond_threshold: float = RCOND_THRESHOLD,
) -> tuple[np.ndarray, float, np.ndarray]:
    """The same Newton step in closed form, via w = (lam*I - T)^{-1} x:

        x_next   = ((m-2) x + w / (e^T w)) / (m-1)
        lam_next = (lam - 1 / (e^T w)) / (m-1)

    Requires e^T x = 1.  Raises :class:`SingularShift` when the shifted
    matrix is (near-)singular and :class:`ZeroDenominator` when e^T w
    vanishes (equivalently, the bordered matrix is singular).  Returns
    ``(x_next, lam_next, w)``.
    """
    x = np.asarray(x, dtype=float)
    w_hat, _ = solve_shifted(lam, jacobian_T(A, x), x, rcond_threshold)
    e_w = float(w_hat.sum())
    if abs(e_w) < ZERO_DENOM_TOL * np.linalg.norm(w_hat, 1):
        raise ZeroDenominator(
            f"e^T w = {e_w!r} vanishes; the bordered matrix at lam={lam!r} is singular"
        )
    m = A.m
    x_next = ((m - 2) * x + w_hat / e_w) / (m - 1)
    lam_next = (lam - 1.0 / e_w) / (m - 1)
    return x_next, float(lam_next), w_hat


def project_sign_dominant(w_hat) -> np.ndarray:
    """Keep the dominant sign part of ``w_hat``: the positive part when
    ``|max w| > |min w|``, the negative part on a tie or when the negative
    entries dominate; a vector without negative entries passes through.
    The result is one-signed and nonzero for nonzero input, so its entries
    sum to a nonzero value.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    if not np.any(w_hat):
        raise ZeroVector("cannot sign-project the zero vector")
    if w_hat.min() >= 0.0:
        # already one-signed; the tie rule must not zero it out
        return w_hat.copy()
    if abs(w_hat.max()) > abs(w_hat.min()):
        return np.maximum(w_hat, 0.0)
    return np.minimum(w_hat, 0.0)


def proj_simplex(x_hat) -> np.ndarray:
    """Project onto the probability simplex: zero out the negative
    components and renormalize to unit 1-norm."""
    x_hat = np.asarray(x_hat, dtype=float)
    pos = np.maximum(x_hat, 0.0)
    total = pos.sum()
    if total == 0.0:
        raise ProjectionEmpty("vector has no positive components")
    return pos / total


def mni_select_lambda(lam_hat: float | None, lam_low: float, lam_high: float) -> float:
    """Default shift selection: clamp the Newton value to the ratio
    interval; take the upper bound when e^T w = 0 made it unavailable."""
    if lam_hat is None or lam_hat > lam_high:
        return float(lam_high)
    if lam_hat < lam_low:
        return float(lam_low)
    return float(lam_hat)


def pni_select_lambda(lam_hat: float, lam_low: float, lam_high: float, beta: float) -> float:
    """Damped shift selection: move the Newton value a fraction ``beta``
    toward the far end of the ratio interval."""
    if lam_hat <= 0.5 * (lam_low + lam_high):
        return float(lam_hat + beta * (lam_high - lam_hat))
    return float(lam_hat + beta * (lam_low - lam_hat))


def _check_start(A: Tensor, x0, cone: str) -> np.ndarray:
    """Validate a start vector: 'open' needs x0 > 0, 'closed' needs x0 >= 0
    (nonzero), 'any' only finiteness; both cone modes need unit 1-norm."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (A.n,):
        raise DimensionMismatch(f"start vector must have length {A.n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("start vector must be finite")
    if cone == "open" and not np.all(x0 > 0):
        raise ValueError("start vector must be strictly positive")
    if cone == "closed" and (np.any(x0 < 0) or not np.any(x0 > 0)):
        raise ValueError("start vector must be nonnegative and nonzero")
    if cone != "any" and abs(x0.sum() - 1.0) > 1e-8:
        raise ValueError(f"start vector must sum to 1, got {x0.sum()!r}")
    return x0


def _final(x, lam, res) -> Iterate:
    return Iterate(x=np.array(x, dtype=float), lam=float(lam), residual_norm=float(res))


def _residual(ax: np.ndarray, x: np.ndarray, lam: float) -> float:
    """``||A x^{m-1} - lam x||_1`` from the contraction ``ax = A x^{m-1}``."""
    return float(np.linalg.norm(ax - lam * x, 1))


def _shifted_or_none(lam, T, x, rcond_threshold):
    """``(lam I - T)^{-1} x`` from one LU, or None when the shift is (near-)singular."""
    try:
        return solve_shifted(lam, T, x, rcond_threshold)[0]
    except SingularShift:
        return None


def _bisect_shift_in_interval(lam, lam_low, lam_high, T, x, rcond_threshold):
    """Move a (near-)singular shift within [lam_low, lam_high] by bisecting
    toward the opposite endpoint until the shifted matrix is nonsingular;
    return that shift and ``(shift I - T)^{-1} x``, or ``(lam, None)``."""
    target = lam_low if (lam_high - lam) <= (lam - lam_low) else lam_high
    cur = lam
    for _ in range(INTERVAL_ADJUST_ATTEMPTS):
        cur = 0.5 * (cur + target)
        w_hat = _shifted_or_none(cur, T, x, rcond_threshold)
        if w_hat is not None:
            return cur, w_hat
    return lam, None


def run_newton(A: Tensor, x0, lam0: float, config: SolverConfig | None = None) -> SolveReport:
    """Plain Newton iteration from ``(x0, lam0)``; no projection, no clamp."""
    cfg = config or SolverConfig(method="newton")
    x = _check_start(A, x0, cone="any")
    lam = float(lam0)
    trace = IterationTrace()
    lam_hat: float | None = None

    for k in range(cfg.max_iter + 1):
        ax = apply(A, x) if np.all(np.isfinite(x)) else None
        res = _residual(ax, x, lam) if ax is not None and np.isfinite(lam) else np.nan
        if not np.isfinite(res):
            return SolveReport(
                "newton", "diverged", _final(x, lam, res), k, trace,
                failure_reason="non-finite iterate",
            )
        trace.append(StepRecord(k=k, x=x.copy(), lam=lam, residual=res, lam_hat=lam_hat))
        if res < cfg.tol:
            return SolveReport("newton", "converged", _final(x, lam, res), k, trace)
        if res > cfg.divergence_bound:
            return SolveReport(
                "newton", "diverged", _final(x, lam, res), k, trace,
                failure_reason=f"residual {res:.3e} exceeded divergence bound",
            )
        if k == cfg.max_iter:
            break
        try:
            x, lam = newton_step_bordered(A, x, lam, cfg.rcond_threshold, ax=ax)
        except SingularBordered as exc:
            return SolveReport(
                "newton", "perturbation_exhausted", _final(x, lam, res), k, trace,
                failure_reason=f"bordered system singular and plain Newton has no recovery: {exc}",
            )
        lam_hat = lam
    last = trace[-1]
    return SolveReport(
        "newton", "max_iter", _final(last.x, last.lam, last.residual), cfg.max_iter, trace
    )


def run_mni(A: Tensor, x0, config: SolverConfig | None = None) -> SolveReport:
    """Modified Newton iteration with sign-dominant projection of the
    auxiliary vector.

    Per step: solve ``(lam_k I - T(x_k)) w = x_k``, keep the dominant sign
    part of ``w``, form ``x_{k+1}`` from ``(m-2) x_k + w / (e^T w)``
    normalized to unit 1-norm, then pick ``lam_{k+1}`` inside the new ratio
    interval (clamping the Newton value).  A shift that leaves the shifted
    matrix near-singular is bisected within the interval before it is used.
    """
    cfg = config or SolverConfig(method="mni")
    x = _check_start(A, x0, cone="open")
    ax = apply(A, x)
    lam_low, lam_high = ratio_bounds(ax, x)
    lam = lam_high
    lam_hat: float | None = None
    flags: tuple[str, ...] = ()
    trace = IterationTrace()

    for k in range(cfg.max_iter + 1):
        res = _residual(ax, x, lam)
        if np.isfinite(res) and res >= cfg.tol:
            T = jacobian_T(A, x)
            w_hat = _shifted_or_none(lam, T, x, cfg.rcond_threshold)
            if w_hat is None:
                lam, w_hat = _bisect_shift_in_interval(
                    lam, lam_low, lam_high, T, x, cfg.rcond_threshold
                )
                if w_hat is None:
                    trace.append(
                        StepRecord(k, x.copy(), lam, res, lam_hat, lam_low, lam_high, flags)
                    )
                    return SolveReport(
                        "mni", "perturbation_exhausted", _final(x, lam, res), k, trace,
                        failure_reason=f"no nonsingular shift found in [{lam_low!r}, {lam_high!r}]",
                    )
                flags += ("lambda_adjusted",)
                res = _residual(ax, x, lam)
        if not np.isfinite(res):
            return SolveReport(
                "mni", "diverged", _final(x, lam, res), k, trace,
                failure_reason="non-finite iterate",
            )
        trace.append(StepRecord(k, x.copy(), lam, res, lam_hat, lam_low, lam_high, flags))
        if res < cfg.tol:
            return SolveReport("mni", "converged", _final(x, lam, res), k, trace)
        if res > cfg.divergence_bound:
            return SolveReport(
                "mni", "diverged", _final(x, lam, res), k, trace,
                failure_reason=f"residual {res:.3e} exceeded divergence bound",
            )
        if k == cfg.max_iter:
            break

        e_w = float(w_hat.sum())
        w = project_sign_dominant(w_hat)
        flags = ("projection_changed",) if np.any(w != w_hat) else ()
        x_tilde = (A.m - 2) * x + w / w.sum()
        x = x_tilde / np.linalg.norm(x_tilde, 1)
        if not np.all(np.isfinite(x)):
            last = trace[-1]
            return SolveReport(
                "mni", "diverged", _final(last.x, last.lam, last.residual), k, trace,
                failure_reason="non-finite iterate",
            )
        ax = apply(A, x)
        lam_low, lam_high = ratio_bounds(ax, x)
        if abs(e_w) < ZERO_DENOM_TOL * np.linalg.norm(w_hat, 1):
            lam_hat = None
            flags += ("zero_denominator_branch",)
        else:
            lam_hat = (lam - 1.0 / e_w) / (A.m - 1)
        lam = mni_select_lambda(lam_hat, lam_low, lam_high)
    last = trace[-1]
    return SolveReport(
        "mni", "max_iter", _final(last.x, last.lam, last.residual), cfg.max_iter, trace
    )


def run_pni(A: Tensor, x0, config: SolverConfig | None = None) -> SolveReport:
    """Projected Newton iteration: the auxiliary vector is used unprojected
    and the candidate iterate has its negative components zeroed before
    normalization.

    The next shift follows the damped rule with ``beta`` from the config
    schedule; when that shift leaves the shifted matrix near-singular,
    alternative damping factors (the fallback grid 0, 0.1, ..., 1) are
    tried.  Requires ``e^T w != 0`` at every step; a vanishing denominator
    is reported as a failure.
    """
    cfg = config or SolverConfig(method="pni")
    x = _check_start(A, x0, cone="open")
    ax = apply(A, x)
    lam_low, lam_high = ratio_bounds(ax, x)
    lam = lam_high
    lam_hat: float | None = None
    flags: tuple[str, ...] = ()
    beta_steps: list[int] = []
    trace = IterationTrace()

    for k in range(cfg.max_iter + 1):
        res = _residual(ax, x, lam)
        if np.isfinite(res) and res >= cfg.tol:
            T = jacobian_T(A, x)
            w_hat = _shifted_or_none(lam, T, x, cfg.rcond_threshold)
            if w_hat is None:
                lam, w_hat, escalated = _pni_rescue_shift(
                    lam, lam_hat, lam_low, lam_high, T, x, cfg, k - 1
                )
                if escalated is None:
                    trace.append(
                        StepRecord(k, x.copy(), lam, res, lam_hat, lam_low, lam_high, flags)
                    )
                    return SolveReport(
                        "pni", "perturbation_exhausted", _final(x, lam, res), k, trace,
                        failure_reason="no damping factor made the shifted matrix nonsingular",
                        notes=_beta_notes(beta_steps),
                    )
                flags += (escalated,)
                res = _residual(ax, x, lam)
        if not np.isfinite(res):
            return SolveReport(
                "pni", "diverged", _final(x, lam, res), k, trace,
                failure_reason="non-finite iterate", notes=_beta_notes(beta_steps),
            )
        trace.append(StepRecord(k, x.copy(), lam, res, lam_hat, lam_low, lam_high, flags))
        if res < cfg.tol:
            return SolveReport(
                "pni", "converged", _final(x, lam, res), k, trace, notes=_beta_notes(beta_steps)
            )
        if res > cfg.divergence_bound:
            return SolveReport(
                "pni", "diverged", _final(x, lam, res), k, trace,
                failure_reason=f"residual {res:.3e} exceeded divergence bound",
                notes=_beta_notes(beta_steps),
            )
        if k == cfg.max_iter:
            break

        e_w = float(w_hat.sum())
        if abs(e_w) < ZERO_DENOM_TOL * np.linalg.norm(w_hat, 1):
            return SolveReport(
                "pni", "perturbation_exhausted", _final(x, lam, res), k, trace,
                failure_reason="e^T w = 0: the bordered matrix is singular and the "
                "unprojected update divides by zero",
                notes=_beta_notes(beta_steps),
            )
        x_tilde = (A.m - 2) * x + w_hat / e_w
        clamped = np.maximum(x_tilde, 0.0)
        flags = ("projection_changed",) if np.any(clamped != x_tilde) else ()
        x = clamped / np.linalg.norm(clamped, 1)
        if not np.all(np.isfinite(x)):
            last = trace[-1]
            return SolveReport(
                "pni", "diverged", _final(last.x, last.lam, last.residual), k, trace,
                failure_reason="non-finite iterate", notes=_beta_notes(beta_steps),
            )
        ax = apply(A, x)
        lam_low, lam_high = ratio_bounds(ax, x)
        lam_hat = (lam - 1.0 / e_w) / (A.m - 1)
        beta = cfg.beta_at(k)
        lam = pni_select_lambda(lam_hat, lam_low, lam_high, beta)
        if beta > 0:
            beta_steps.append(k)
    last = trace[-1]
    return SolveReport(
        "pni", "max_iter", _final(last.x, last.lam, last.residual), cfg.max_iter, trace,
        notes=_beta_notes(beta_steps),
    )


def _beta_notes(beta_steps: list[int]) -> tuple[str, ...]:
    if not beta_steps:
        return ()
    # Nonzero damping voids the quadratic-convergence argument, so record it.
    return (f"nonzero beta used after steps {beta_steps}",)


def _pni_rescue_shift(lam, lam_hat, lam_low, lam_high, T, x, cfg, k):
    """Replace a near-singular shift: re-damp the stored Newton value with
    fallback betas, or bisect within the interval when no Newton value
    exists yet (first iteration).  Returns the new shift, the solve
    ``(shift I - T)^{-1} x`` and the flag, or ``(lam, None, None)``."""
    if lam_hat is None:
        lam, w_hat = _bisect_shift_in_interval(lam, lam_low, lam_high, T, x, cfg.rcond_threshold)
        return lam, w_hat, None if w_hat is None else "lambda_adjusted"
    for beta in (cfg.beta_at(k),) + BETA_FALLBACK:
        candidate = pni_select_lambda(lam_hat, lam_low, lam_high, beta)
        if candidate == lam:
            continue
        w_hat = _shifted_or_none(candidate, T, x, cfg.rcond_threshold)
        if w_hat is not None:
            return candidate, w_hat, "beta_escalated"
    return lam, None, None


def run_mpni(A: Tensor, x0, config: SolverConfig | None = None) -> SolveReport:
    """Modified projected Newton iteration.

    Starts from the upper ratio bound, takes full Newton steps through the
    bordered system (perturbing the shift upward when that system is
    near-singular), projects each candidate iterate onto the probability
    simplex, and clamps each candidate shift at zero.
    """
    cfg = config or SolverConfig(method="mpni")
    x = _check_start(A, x0, cone="closed")
    ax = apply(A, x)
    lam_low, lam_high = ratio_bounds(ax, x)
    lam = lam_high
    lam_hat: float | None = None
    interval: tuple[float, float] | None = (lam_low, lam_high)
    flags: tuple[str, ...] = ()
    perturbation = 0.0
    trace = IterationTrace()

    for k in range(cfg.max_iter + 1):
        res = _residual(ax, x, lam) if ax is not None and np.isfinite(lam) else np.nan
        if not np.isfinite(res):
            return SolveReport(
                "mpni", "diverged", _final(x, lam, res), k, trace,
                failure_reason="non-finite iterate",
            )
        trace.append(
            StepRecord(
                k, x.copy(), lam, res, lam_hat,
                interval[0] if interval else None,
                interval[1] if interval else None,
                flags, perturbation,
            )
        )
        if res < cfg.tol:
            return SolveReport("mpni", "converged", _final(x, lam, res), k, trace)
        if res > cfg.divergence_bound:
            return SolveReport(
                "mpni", "diverged", _final(x, lam, res), k, trace,
                failure_reason=f"residual {res:.3e} exceeded divergence bound",
            )
        if k == cfg.max_iter:
            break

        T = jacobian_T(A, x)
        try:
            lam_use, diag = ensure_bordered_nonsingular(
                lam, T, x, cfg.rcond_threshold, cfg.eps_base, cfg.eps_factor, cfg.eps_attempts
            )
        except PerturbationExhausted as exc:
            return SolveReport(
                "mpni", "perturbation_exhausted", _final(x, lam, res), k, trace,
                failure_reason=str(exc),
            )
        perturbation = diag.perturbation
        flags = ("lambda_perturbed",) if perturbation > 0 else ()
        x_hat, lam_hat = newton_step_bordered(
            A, x, lam_use, cfg.rcond_threshold, T=T, ax=ax, factored=diag
        )
        try:
            x = proj_simplex(x_hat)
        except ProjectionEmpty as exc:
            return SolveReport(
                "mpni", "projection_empty", _final(x, lam, res), k, trace,
                failure_reason=str(exc),
            )
        if np.any(x_hat < 0):
            flags += ("projection_changed",)
        lam = max(lam_hat, 0.0)
        ax = apply(A, x) if np.all(np.isfinite(x)) else None
        interval = None
    last = trace[-1]
    return SolveReport(
        "mpni", "max_iter", _final(last.x, last.lam, last.residual), cfg.max_iter, trace
    )


def solve(
    A: Tensor, x0, config: SolverConfig | None = None, lam0: float | None = None
) -> SolveReport:
    """Run the method named in ``config`` (default MPNI) from ``x0``.

    ``lam0`` is only consulted by plain Newton; when omitted there, the
    upper ratio bound at ``x0`` is used.
    """
    cfg = config or SolverConfig()
    if cfg.method == "newton":
        if lam0 is None:
            x0_arr = _check_start(A, x0, cone="any")
            _, lam0 = ratio_bounds(apply(A, x0_arr), x0_arr)
        return run_newton(A, x0, lam0, cfg)
    if cfg.method == "mni":
        return run_mni(A, x0, cfg)
    if cfg.method == "pni":
        return run_pni(A, x0, cfg)
    return run_mpni(A, x0, cfg)
