"""Newton and modified Newton iterations for nonnegative Z-eigenpairs.

One loop (``_iterate``) runs all four schemes and is the one place a run
ends: it records every iterate as a :class:`StepRecord`, the trace being
the tuple of them, and stops on ``||A x^{m-1} - lam x||_1 < tol``, on a
non-finite or diverging iterate, after ``max_iter`` steps or when a step
fails (it turns :class:`ProjectionEmpty` or :class:`PerturbationExhausted`
into a status, with the message as the reason).  The schemes differ only
in the step that forms the next ``(x, lam)``, rescuing a singular shift:

* ``run_newton``  -- a plain Newton step through the bordered system; no
  projection, no clamping.  Baseline; may leave the nonnegative cone.
* ``run_mni``     -- solves the shifted system, projects the auxiliary
  vector onto its dominant sign part, and picks the next shift inside the
  componentwise ratio interval.
* ``run_pni``     -- like ``run_mni`` but projects the candidate iterate
  (zeroing negative components) instead of the auxiliary vector, and damps
  the shift toward the ratio interval with a factor ``beta``.
* ``run_mpni``    -- the Newton step of ``run_newton``, then projection of
  the iterate onto the probability simplex and clamping of the shift at
  zero.  When the bordered system at the shift is near-singular, the step
  perturbs the shift upward on ``ensure_bordered_nonsingular``'s schedule.

MNI, PNI and ``newton_step_closed`` share one closed-form update through
``w = (lam I - T(x))^{-1} x``: the Newton value ``(lam - 1 / e^T w) /
(m-1)`` and the direction ``(m-2) x + w / e^T w``.  MNI, PNI and MPNI try
their shifts through one loop, ``first_nonsingular``, which judges a shift
by the LU that solves the step's system at it, and the iterate a rescue
forms carries its flag and the shift's offset.  They start from the
contraction and ratio interval of ``_next_interval``, as every later MNI
and PNI iterate does.

Each iterate costs one Jacobian ``T(x)``, which the next step's system
reuses; the residual and ratio interval take the contraction from it as
``apply`` does, ``T(x) x / (m-1)``, and the residual is ``tensor._residual``,
the sum ``residual`` adds, so ``residual`` reads a report's bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    PerturbationExhausted,
    ProjectionEmpty,
    SingularBordered,
    ZeroDenominator,
    ZeroVector,
)
from .linalg import _shifted, _upward_shift, first_nonsingular, solve_bordered, solve_shifted
from .tensor import Iterate, Tensor, _euler, _residual, apply, jacobian_T, ratio_bounds

METHODS = ("newton", "mni", "pni", "mpni")

# |e^T w| below this fraction of ||w||_1 counts as a vanishing denominator.
ZERO_DENOM_TOL = 1e-14

# A residual above this stops the run as diverged.
DIVERGENCE_BOUND = 1e8

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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError(f"max_iter must be a nonnegative integer, got {self.max_iter!r}")
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
    """State at one iteration, plus how it was produced: ``lam_hat`` is the
    unclamped Newton value behind ``lam`` (None at the start or when e^T w = 0
    forced the fallback branch), the interval fields are the componentwise
    ratio bounds when the scheme computes them, and ``perturbation`` is the
    shift offset of the rescue in the step that formed this iterate, nonzero
    exactly when ``flags`` names that rescue."""

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
class SolveReport:
    """Outcome of one solver run; ``trace`` holds one record per iterate,
    record ``k`` at index ``k``, each with a finite residual."""

    method: str
    status: str  # converged | max_iter | diverged | perturbation_exhausted | projection_empty
    final: Iterate
    iterations: int
    trace: tuple[StepRecord, ...]
    failure_reason: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def newton_step_bordered(
    A: Tensor,
    x: np.ndarray,
    lam: float,
    T: np.ndarray | None = None,
    ax: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """One Newton step through the bordered system.

    Solves [[lam*I - T(x), x], [e^T, 0]] [d; delta] = [lam*x - A x^{m-1};
    e^T x - 1] and returns ``(x - d, lam - delta)``.  Propagates
    :class:`SingularBordered` when the system is (near-)singular.  ``T`` and
    ``ax = A x^{m-1}`` are reused when given.
    """
    x = np.asarray(x, dtype=float)
    if T is None:
        T = jacobian_T(A, x)
    if ax is None:
        ax = apply(A, x)
    d, delta, _ = solve_bordered(lam, T, x, *_newton_rhs(lam, x, ax))
    return x - d, float(lam - delta)


def _newton_rhs(lam: float, x: np.ndarray, ax: np.ndarray) -> tuple[np.ndarray, float]:
    """``(r, s) = (lam x - A x^{m-1}, e^T x - 1)``, the bordered Newton step's."""
    return lam * x - ax, float(x.sum() - 1.0)


def newton_step_closed(
    A: Tensor, x: np.ndarray, lam: float
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
    w_hat, _ = solve_shifted(lam, jacobian_T(A, x), x)
    lam_next = _newton_value(A.m, lam, w_hat)
    if lam_next is None:
        raise ZeroDenominator(
            f"e^T w = {float(w_hat.sum())!r} vanishes; "
            f"the bordered matrix at lam={lam!r} is singular"
        )
    return _direction(A.m, x, w_hat) / (A.m - 1), lam_next, w_hat


def _newton_value(m: int, lam: float, w_hat: np.ndarray) -> float | None:
    """``(lam - 1 / e^T w) / (m-1)`` for ``w_hat = (lam I - T(x))^{-1} x``, or
    None when ``e^T w`` vanishes against ``||w||_1`` (see ``ZERO_DENOM_TOL``)."""
    e_w = float(w_hat.sum())
    if abs(e_w) < ZERO_DENOM_TOL * np.abs(w_hat).sum():
        return None
    return float((lam - 1.0 / e_w) / (m - 1))


def _direction(m: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(m-2) x + w / e^T w``: ``m-1`` times the closed-form Newton iterate
    when ``w`` is the raw solve, MNI's candidate when ``w`` is its projection."""
    return (m - 2) * x + w / w.sum()


def project_sign_dominant(w_hat) -> np.ndarray:
    """Keep the dominant sign part of ``w_hat``: the positive part when
    ``|max w| > |min w|``, the negative part on a tie or when the negative
    entries dominate; a vector without negative entries passes through.
    The result is one-signed and nonzero for nonzero input, so its entries
    sum to a nonzero value.
    """
    w_hat = np.asarray(w_hat, dtype=float)
    if not w_hat.any():
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
    """The one judge of a start vector: finite entries summing to 1, and
    besides that x0 > 0 for 'open', x0 >= 0 for 'closed', nothing for 'any'."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (A.n,):
        raise DimensionMismatch(f"start vector must have length {A.n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("start vector must be finite")
    if cone == "open" and not np.all(x0 > 0):
        raise ValueError("start vector must be strictly positive")
    if cone == "closed" and np.any(x0 < 0):
        raise ValueError("start vector must be nonnegative with a positive entry")
    if abs(x0.sum() - 1.0) > 1e-8:
        raise ValueError(f"start vector must sum to 1, got {float(x0.sum())!r}")
    return x0


def _contract(A: Tensor, x: np.ndarray) -> tuple:
    """``(A x^{m-1}, T(x))`` from one Jacobian, the contraction by Euler's
    identity ``T(x) x / (m-1)``; ``(None, None)`` for a non-finite ``x``."""
    if not np.isfinite(x).all():
        return None, None
    T = jacobian_T(A, x)
    return _euler(T, x, A.m), T


def _next_interval(A: Tensor, x: np.ndarray, **fields):
    """The contraction pair (see :func:`_contract`) and record fields, with
    the ratio interval, of an MNI, PNI or MPNI start or a later MNI/PNI
    iterate; a non-finite iterate gets NaN bounds, and the loop ends on it."""
    pair = _contract(A, x)
    lam_low, lam_high = (np.nan, np.nan) if pair[0] is None else ratio_bounds(pair[0], x)
    return pair, {"lam_low": lam_low, "lam_high": lam_high, **fields}


def _iterate(method, cfg, x, lam, pair, fields, step) -> SolveReport:
    """Run one scheme from ``(x, lam)`` with ``pair = (A x^{m-1}, T(x))``
    (see :func:`_contract`) and ``fields``, its other :class:`StepRecord`
    fields.  ``step(k, x, lam, pair, fields)`` returns the next ``(x, lam,
    pair, fields)`` or raises :class:`ProjectionEmpty` or
    :class:`PerturbationExhausted`; none follows the last iterate, so a
    ``max_iter`` run factors no matrix for it.  The final iterate is the last
    one formed; a non-finite one gets a NaN residual and ends the run."""
    trace = []
    status, reason = "max_iter", None
    for k in range(cfg.max_iter + 1):
        res = np.nan if pair[0] is None or not math.isfinite(lam) else _residual(pair[0], x, lam)
        if not math.isfinite(res):
            status, reason = "diverged", "non-finite iterate"
            break
        trace.append(StepRecord(k, x.copy(), lam, res, **fields))
        if res < cfg.tol:
            status = "converged"
        elif res > DIVERGENCE_BOUND:
            status, reason = "diverged", f"residual {res:.3e} exceeded divergence bound"
        elif k < cfg.max_iter:
            try:
                x, lam, pair, fields = step(k, x, lam, pair, fields)
            except ProjectionEmpty as exc:
                status, reason = "projection_empty", str(exc)
            except PerturbationExhausted as exc:
                status, reason = "perturbation_exhausted", str(exc)
            else:
                continue
        break
    final = Iterate(x=np.array(x, dtype=float), lam=float(lam), residual_norm=float(res))
    return SolveReport(method, status, final, k, tuple(trace), failure_reason=reason)


def run_newton(
    A: Tensor, x0, lam0: float | None = None, config: SolverConfig | None = None
) -> SolveReport:
    """Plain Newton iteration from ``(x0, lam0)``; no projection, no clamp.

    ``lam0=None`` starts from the upper ratio bound at ``x0``, taken from the
    same contraction as the first residual; that bound needs ``x0 >= 0``.
    With a ``lam0``, ``x0`` need only be finite.  Either way ``x0`` sums to 1.
    """
    x = _check_start(A, x0, cone="closed" if lam0 is None else "any")
    pair = _contract(A, x)
    lam = ratio_bounds(pair[0], x)[1] if lam0 is None else float(lam0)

    def step(k, x, lam, pair, fields):
        ax, T = pair
        try:
            x, lam = newton_step_bordered(A, x, lam, T=T, ax=ax)
        except SingularBordered as exc:
            raise PerturbationExhausted(
                f"bordered system singular and plain Newton has no recovery: {exc}"
            ) from None
        return x, lam, _contract(A, x), {"lam_hat": lam}

    return _iterate("newton", config or SolverConfig(method="newton"), x, lam, pair, {}, step)


def _bisection(lam, lam_low, lam_high):
    """Shifts bisecting from ``lam`` toward the farther end of ``[lam_low,
    lam_high]``, ``INTERVAL_ADJUST_ATTEMPTS`` of them."""
    target = lam_low if (lam_high - lam) <= (lam - lam_low) else lam_high
    for _ in range(INTERVAL_ADJUST_ATTEMPTS):
        lam = 0.5 * (lam + target)
        yield lam


def _shift_iterate(method, A, x0, cfg, rescue, update) -> SolveReport:
    """MNI and PNI: start at the upper ratio bound of ``x0 > 0``.  Each step
    solves ``(lam I - T(x)) w = x``; at a (near-)singular shift,
    ``rescue(lam, fields)`` gives the shifts to try instead, the flag for the
    one taken and the failure reason when none serves.  The rescued step
    forms ``(x, s)`` itself when ``x`` meets ``tol`` at the shift ``s``,
    otherwise ``update(k, x, s, pair, fields, w)``."""
    x = _check_start(A, x0, cone="open")
    pair, fields = _next_interval(A, x, lam_hat=None, flags=())

    def step(k, x, lam, pair, fields):
        ax, T = pair

        def system(shift):
            return _shifted(shift, T, x.size), x

        _, w_hat, diag = first_nonsingular((lam,), system)
        if not diag.singular:
            return update(k, x, lam, pair, fields, w_hat)
        shifts, flag, reason = rescue(lam, fields)
        shift, w_hat, diag = first_nonsingular(shifts, system)
        if diag.singular:
            raise PerturbationExhausted(reason)
        x_next, lam_next = x, shift
        if _residual(ax, x, shift) >= cfg.tol:
            x_next, lam_next, pair, fields = update(k, x, shift, pair, fields, w_hat)
        rescued = {"flags": fields["flags"] + (flag,), "perturbation": shift - lam}
        return x_next, lam_next, pair, {**fields, **rescued}

    return _iterate(method, cfg, x, fields["lam_high"], pair, fields, step)


def run_mni(A: Tensor, x0, config: SolverConfig | None = None) -> SolveReport:
    """Modified Newton iteration with sign-dominant projection of the
    auxiliary vector.

    Per step: solve ``(lam_k I - T(x_k)) w = x_k``, keep the dominant sign
    part of ``w``, form ``x_{k+1}`` from ``(m-2) x_k + w / (e^T w)``
    normalized to unit 1-norm, then pick ``lam_{k+1}`` inside the new ratio
    interval (clamping the Newton value); a near-singular shift is bisected
    within the interval."""

    def rescue(lam, fields):
        lam_low, lam_high = fields["lam_low"], fields["lam_high"]
        reason = f"no nonsingular shift found in [{lam_low!r}, {lam_high!r}]"
        return _bisection(lam, lam_low, lam_high), "lambda_adjusted", reason

    def update(k, x, lam, pair, fields, w_hat):
        w = project_sign_dominant(w_hat)
        flags = ("projection_changed",) if (w != w_hat).any() else ()
        lam_hat = _newton_value(A.m, lam, w_hat)
        if lam_hat is None:
            flags += ("zero_denominator_branch",)
        x = proj_simplex(_direction(A.m, x, w))
        pair, fields = _next_interval(A, x, lam_hat=lam_hat, flags=flags)
        lam = mni_select_lambda(lam_hat, fields["lam_low"], fields["lam_high"])
        return x, lam, pair, fields

    return _shift_iterate("mni", A, x0, config or SolverConfig(method="mni"), rescue, update)


def run_pni(A: Tensor, x0, config: SolverConfig | None = None) -> SolveReport:
    """Projected Newton iteration: the auxiliary vector is used unprojected
    and the candidate iterate is projected onto the probability simplex.

    The next shift follows the damped rule with ``beta`` from the config
    schedule; at a near-singular shift the fallback betas 0, 0.1, ..., 1 are
    tried.  A vanishing ``e^T w`` is reported as a failure.
    """
    cfg = config or SolverConfig(method="pni")
    beta_steps = []  # the steps whose update damped the next shift

    def rescue(lam, fields):
        # Re-damp the last Newton value with the fallback betas (the
        # configured one gave ``lam``); before the first step, bisect.
        lam_hat, lam_low, lam_high = fields["lam_hat"], fields["lam_low"], fields["lam_high"]
        reason = "no damping factor made the shifted matrix nonsingular"
        if lam_hat is None:
            return _bisection(lam, lam_low, lam_high), "lambda_adjusted", reason
        damped = (pni_select_lambda(lam_hat, lam_low, lam_high, beta) for beta in BETA_FALLBACK)
        return (c for c in damped if c != lam), "beta_escalated", reason

    def update(k, x, lam, pair, fields, w_hat):
        lam_hat = _newton_value(A.m, lam, w_hat)
        if lam_hat is None:
            raise PerturbationExhausted(
                "e^T w = 0: the bordered matrix is singular and the "
                "unprojected update divides by zero"
            )
        x_tilde = _direction(A.m, x, w_hat)
        flags = ("projection_changed",) if np.any(x_tilde < 0) else ()
        x = proj_simplex(x_tilde)
        pair, fields = _next_interval(A, x, lam_hat=lam_hat, flags=flags)
        lam = pni_select_lambda(lam_hat, fields["lam_low"], fields["lam_high"], cfg.beta_at(k))
        if cfg.beta_at(k) > 0:
            beta_steps.append(k)
        return x, lam, pair, fields

    report = _shift_iterate("pni", A, x0, cfg, rescue, update)
    if beta_steps:
        # Nonzero damping voids the quadratic-convergence argument, so record it.
        report.notes = (f"nonzero beta used after steps {beta_steps}",)
    return report


def run_mpni(A: Tensor, x0, config: SolverConfig | None = None) -> SolveReport:
    """Modified projected Newton iteration.

    Starts from the upper ratio bound, takes full Newton steps through the
    bordered system (perturbing a near-singular shift upward), projects each
    candidate iterate onto the probability simplex, and clamps each candidate
    shift at zero.
    """
    x = _check_start(A, x0, cone="closed")
    pair, fields = _next_interval(A, x)

    def step(k, x, lam, pair, fields):
        ax, T = pair
        shift, sol, diag = _upward_shift(lam, T, x, lambda shift: _newton_rhs(shift, x, ax))
        x_hat, lam_hat = x - sol[:-1], float(shift - sol[-1])
        x = proj_simplex(x_hat)
        flags = ("lambda_perturbed",) if diag.perturbation > 0 else ()
        if x_hat.min() < 0:  # a NaN here makes the iterate diverge, unrecorded
            flags += ("projection_changed",)
        fields = {"lam_hat": lam_hat, "flags": flags, "perturbation": diag.perturbation}
        return x, max(lam_hat, 0.0), _contract(A, x), fields

    cfg = config or SolverConfig(method="mpni")
    return _iterate("mpni", cfg, x, fields["lam_high"], pair, fields, step)


def solve(
    A: Tensor, x0, config: SolverConfig | None = None, lam0: float | None = None
) -> SolveReport:
    """Run the method named in ``config`` (default MPNI) from ``x0``.

    ``lam0`` is plain Newton's starting shift; when omitted there, the
    upper ratio bound at ``x0`` is used.  The other methods pick their own
    shift, so they reject a ``lam0`` with ``ValueError``.
    """
    cfg = config or SolverConfig()
    if lam0 is not None and cfg.method != "newton":
        raise ValueError(f"lam0 is used only by method 'newton', not {cfg.method!r}")
    if cfg.method == "newton":
        return run_newton(A, x0, lam0, cfg)
    return {"mni": run_mni, "pni": run_pni, "mpni": run_mpni}[cfg.method](A, x0, cfg)
