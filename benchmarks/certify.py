"""Independent eigenpair certificate for the benchmark.

The contraction here is written from the coordinate list alone and shares no
code with ``zeigen.tensor``: entries are multiplied position by position and
summed per row with ``np.bincount``.  A result passes when

* ``||A x^{m-1} - lam x||_1`` is below the solve tolerance plus a bound on
  the rounding of two independent evaluations of that residual,
* ``|e^T x - 1|`` is within rounding of a normalisation, and
* ``x >= 0`` exactly, for the methods that keep iterates in the cone
  (``newton`` may leave it by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)
CONE_METHODS = ("mni", "pni", "mpni")


@dataclass(frozen=True)
class Coo:
    """A tensor as the benchmark generated or read it: 0-based index rows
    of shape (nnz, m) and their values."""

    m: int
    n: int
    idx: np.ndarray
    values: np.ndarray

    @property
    def max_row_terms(self) -> int:
        if self.values.size == 0:
            return 0
        return int(np.bincount(self.idx[:, 0], minlength=self.n).max())

    def entries(self):
        """The 1-based ``(index tuple, value)`` list that ``zeigen.build_tensor`` takes."""
        return [
            (tuple(int(i) + 1 for i in row), float(v))
            for row, v in zip(self.idx.tolist(), self.values.tolist())
        ]


def read_tns(path: Path) -> Coo:
    """Read the tensor text format: header ``m n``, then ``i1 .. im value``
    lines with 1-based indices; ``#`` starts a comment."""
    header = None
    rows: list[list[int]] = []
    vals: list[float] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if header is None:
            header = (int(fields[0]), int(fields[1]))
            continue
        rows.append([int(f) - 1 for f in fields[:-1]])
        vals.append(float(fields[-1]))
    if header is None:
        raise ValueError(f"{path}: no header line")
    m, n = header
    idx = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    return Coo(m=m, n=n, idx=idx, values=np.array(vals, dtype=float))


def contract(coo: Coo, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Return ``A x^{m-1}`` and the sum of the absolute values of its terms."""
    terms = coo.values.astype(float)
    for p in range(1, coo.m):
        terms = terms * x[coo.idx[:, p]]
    out = np.bincount(coo.idx[:, 0], weights=terms, minlength=coo.n)
    return out, float(np.abs(terms).sum())


def check(coo: Coo, x, lam, tol: float, method: str) -> str | None:
    """Certify one eigenpair.  Returns None when it passes, else the reason."""
    try:
        x = np.asarray(x, dtype=float)
        lam = float(lam)
    except (TypeError, ValueError):
        return "eigenpair is not numeric"
    if x.shape != (coo.n,):
        return f"eigenvector has shape {x.shape}, expected ({coo.n},)"
    if not (np.all(np.isfinite(x)) and np.isfinite(lam)):
        return "eigenpair is not finite"
    ax, abs_terms = contract(coo, x)
    x1 = float(np.abs(x).sum())
    res = float(np.abs(ax - lam * x).sum())
    # Each evaluation (the solver's and this one) sums at most
    # max_row_terms + m + n products per component.
    slack = 2.0 * (coo.max_row_terms + coo.m + coo.n) * EPS * (abs_terms + abs(lam) * x1)
    if not res < tol + slack:
        return f"residual {res:.3e} >= tol {tol:.1e} + rounding {slack:.1e}"
    norm_err = abs(float(x.sum()) - 1.0)
    if norm_err > 8.0 * (coo.n + 1) * EPS * max(1.0, x1):
        return f"|e^T x - 1| = {norm_err:.3e} exceeds rounding"
    if method in CONE_METHODS and np.any(x < 0):
        return f"x has a negative component ({float(x.min()):.3e})"
    return None
