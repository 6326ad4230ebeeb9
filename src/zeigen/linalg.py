"""Dense kernels for the shifted and bordered linear systems.

Both systems are solved by dense LU with partial pivoting (n is at most a
few dozen, so a call costs more than its flops).  Each matrix is filled
into one fresh array, with the bits of ``lam * np.eye(n) - T``; its 1-norm
is ``dlange``'s largest row sum of ``|M.T|``, with the bits of
``np.abs(M).sum(axis=0).max()`` (a NaN norm up to its payload; it makes the
rcond 0 either way).  One ``dgesv`` call factors and solves each matrix,
with the bits of ``dgetrf`` then ``dgetrs``; ``_factor`` returns the verdict on
that LU, ``dgecon``'s rcond, as the :class:`SolveDiagnostics` every caller
reads, and ``SolveDiagnostics.singular`` judges it.  Every LU happens inside
``solve_shifted``, ``solve_bordered``, ``shift_rcond``, ``bordered_rcond``
or ``first_nonsingular``, the loop in which the solvers try shifts, each
judged by the LU of the step's system at it.

``dgesv``, ``dgecon`` and ``dlange`` come from scipy's LAPACK extension
``scipy/linalg/_flapack*``, and the Jacobian kernel's ``csr_matvec`` from
``scipy/sparse/_sparsetools*``.  Both are loaded from their files: the
``scipy.linalg`` and ``scipy.sparse`` package inits are most of a
``zeigen`` process's time.  They are the binaries those packages use, so
results are identical; the package modules are imported only when a file
cannot be found or loaded.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import DimensionMismatch, PerturbationExhausted, SingularBordered, SingularShift

# A matrix whose rcond estimate falls below this counts as singular.
RCOND_THRESHOLD = 1e-12
# The upward shift perturbation schedule of MPNI's rescue.
EPS_BASE = 1e-8
EPS_FACTOR = 2.0
EPS_ATTEMPTS = 41


def _load_extension(package: str, name: str, fallback: str):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its
    file and registered under its own name so that a later import of the
    package reuses it; else the module ``fallback``."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    try:
        spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
        files = [os.path.join(spec.submodule_search_locations[0], package, name + suffix)
                 for suffix in EXTENSION_SUFFIXES] if spec else []
        path = next(filter(os.path.isfile, files), None)
        if path:
            loader = ExtensionFileLoader(full, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
            loader.exec_module(module)
            sys.modules[full] = module
            return module
    except (ImportError, OSError):
        pass
    return importlib.import_module(fallback)


lapack = _load_extension("linalg", "_flapack", "scipy.linalg.lapack")
# y[i] += a[k] * x[j[k]] for k in indptr[i]:indptr[i+1], row by row, with no bounds checks
csr_matvec = _load_extension("sparse", "_sparsetools", "scipy.sparse._sparsetools").csr_matvec


@dataclass(frozen=True)
class SolveDiagnostics:
    """Conditioning report for one linear solve."""

    rcond: float
    perturbation: float = 0.0

    @property
    def singular(self) -> bool:
        return self.rcond < RCOND_THRESHOLD


def _shifted(lam: float, T: np.ndarray, size: int) -> np.ndarray:
    """A ``size`` x ``size`` array whose leading block is ``lam*I - T``, with the
    bits of ``lam * np.eye(n) - T``: ``lam*0.0 - T`` off the diagonal (``+0.0``,
    not ``-T``'s ``-0.0``, where ``T`` is ``+0.0`` and ``lam >= 0``); the rest is
    left unset."""
    n = T.shape[0]
    M = np.empty((size, size))
    np.subtract(lam * 0.0, T, out=M[:n, :n])
    # the leading block's diagonal, as a strided view of M
    np.subtract(lam, T.diagonal(), out=M.reshape(-1)[: n * (size + 1) : size + 1])
    return M


def bordered_matrix(lam: float, T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (n+1) x (n+1) matrix [[lam*I - T, x], [e^T, 0]]."""
    T = np.asarray(T, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    if T.shape != (n, n):
        raise DimensionMismatch(f"T has shape {T.shape}, expected ({n}, {n})")
    M = _shifted(lam, T, n + 1)
    M[:n, n] = x
    M[n, :n] = 1.0
    M[n, n] = 0.0
    return M


def _factor(M: np.ndarray, b: np.ndarray):
    """LU-factor ``M`` and solve ``M y = b`` in one ``dgesv`` call, and judge
    ``M`` by the 1-norm reciprocal condition number estimated from that LU:
    ``(y, SolveDiagnostics(rcond))``, ``y`` meaningless when ``diag.singular``."""
    # M.T is M's F-ordered view, no copy: its largest row sum of magnitudes is
    # M's largest column sum, added up in np.abs(M).sum(axis=0).max()'s order
    anorm = lapack.dlange("I", M.T)
    lu, _, sol, info = lapack.dgesv(M, b)
    rcond = lapack.dgecon(lu, anorm, norm="1")[0] if info <= 0 and anorm != 0.0 else 0.0
    return sol, SolveDiagnostics(rcond=rcond if math.isfinite(rcond) else 0.0)


def _solve(M: np.ndarray, b: np.ndarray, error, what: str, lam: float):
    """Factor ``M``, judge it and solve ``M y = b``, in one :func:`_factor`
    call: ``(y, diag)``.  ``error`` names ``what.format(lam)``, formatted on
    a raise only."""
    sol, diag = _factor(M, b)
    if diag.singular:
        raise error(f"{what.format(lam)} is singular or nearly singular "
                    f"(rcond={diag.rcond:.3e})", diagnostics=diag)
    return sol, diag


def shift_rcond(lam: float, T: np.ndarray) -> float:
    """Reciprocal condition estimate of lam*I - T."""
    T = np.asarray(T, dtype=float)
    return _factor(_shifted(lam, T, T.shape[0]), np.zeros(T.shape[0]))[1].rcond


def bordered_rcond(lam: float, T: np.ndarray, x: np.ndarray) -> float:
    """Reciprocal condition estimate of the bordered matrix."""
    M = bordered_matrix(lam, T, x)
    return _factor(M, np.zeros(M.shape[0]))[1].rcond


def solve_shifted(lam: float, T: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve ``(lam*I - T) w = b``.

    Raises :class:`SingularShift` when :attr:`SolveDiagnostics.singular`
    judges the matrix singular.
    """
    T = np.asarray(T, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.size
    if T.shape != (n, n):
        raise DimensionMismatch(f"T has shape {T.shape}, expected ({n}, {n})")
    return _solve(_shifted(lam, T, n), b, SingularShift, "shift lam={!r}", lam)


def solve_bordered(
    lam: float, T: np.ndarray, x: np.ndarray, r: np.ndarray, s: float
) -> tuple[np.ndarray, float, SolveDiagnostics]:
    """Solve ``[[lam*I - T, x], [e^T, 0]] [d; delta] = [r; s]``.

    Returns ``(d, delta, diagnostics)``; raises :class:`SingularBordered`
    when the bordered matrix is singular or nearly singular.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if r.shape != x.shape:
        raise DimensionMismatch(f"r has shape {r.shape}, expected {x.shape}")
    rhs = np.empty(r.size + 1)
    rhs[:-1] = r
    rhs[-1] = s
    M = bordered_matrix(lam, T, x)
    sol, diag = _solve(M, rhs, SingularBordered, "bordered matrix at lam={!r}", lam)
    return sol[:-1], float(sol[-1]), diag


def first_nonsingular(candidates, system):
    """Factor ``(M, b) = system(c)`` for each candidate ``c``, one :func:`_factor`
    call each, up to the first ``M`` not judged singular: ``(c, y, diag)``,
    ``M y = b`` solved from that LU.  A rejected ``c`` raises nothing; if all
    are, the last one's, whose ``diag.singular`` holds (rcond 0 for none)."""
    c = y = diag = None
    for c in candidates:
        y, diag = _factor(*system(c))
        if not diag.singular:
            break
    return c, y, SolveDiagnostics(rcond=0.0) if diag is None else diag


def _upward(lam: float):
    """MPNI's candidate shifts with their offsets: ``lam``, then ``lam + max(1,
    |lam|) * EPS_BASE * EPS_FACTOR**j`` for ``j = 0, ..., EPS_ATTEMPTS - 1``."""
    yield float(lam), 0.0
    scale = max(1.0, abs(lam))
    for j in range(EPS_ATTEMPTS):
        eps = scale * EPS_BASE * EPS_FACTOR**j
        yield float(lam + eps), eps


def _upward_shift(lam: float, T: np.ndarray, x: np.ndarray, rhs):
    """MPNI's rescue: the first :func:`_upward` candidate whose bordered matrix
    is not singular, with the solution for ``[r; s]``, ``(r, s) = rhs(shift)``,
    from its LU: ``(shift, y, diag)``, the offset as ``diag.perturbation``;
    :class:`PerturbationExhausted` carries the last candidate's ``diag``."""
    def system(c):
        b = np.empty(x.size + 1)
        b[:-1], b[-1] = rhs(c[0])
        return bordered_matrix(c[0], T, x), b

    (shift, eps), y, diag = first_nonsingular(_upward(lam), system)
    diag = SolveDiagnostics(rcond=diag.rcond, perturbation=eps)
    if diag.singular:
        raise PerturbationExhausted(
            f"no shift perturbation of lam={lam!r} in {EPS_ATTEMPTS} attempts made the "
            f"bordered matrix nonsingular (last rcond={diag.rcond:.3e})",
            diagnostics=diag,
        )
    return shift, y, diag


def ensure_bordered_nonsingular(
    lam: float, T: np.ndarray, x: np.ndarray
) -> tuple[float, SolveDiagnostics]:
    """A shift ``lam'`` whose bordered matrix is not flagged singular, and its
    diagnostics, by MPNI's rescue with a zero right-hand side (see
    :func:`_upward_shift`).  The bordered determinant has degree n-1 in the
    shift, so only finitely many shifts are bad; the schedule is bounded."""
    shift, _, diag = _upward_shift(lam, T, np.asarray(x, dtype=float), lambda shift: (0.0, 0.0))
    return shift, diag
