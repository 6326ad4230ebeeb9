"""Nonnegative tensors in coordinate form and their multilinear kernels.

A tensor of order ``m`` and dimension ``n`` is given as ``(index tuple,
value)`` pairs with 1-based indices; unlisted entries are zero, and
repeated tuples are summed (scipy's COO convention).

``apply`` takes the contraction from the Jacobian by Euler's identity,
``T(x) x / (m-1)``, and ``residual`` adds up ``_residual``, as every solve
does, so it reads a report's residual bits.  The Jacobian's index plan is
built once per :class:`Tensor` and is read-only.  ``A x^{m-1}`` and ``T(x)``
read ``A`` only through its symmetrisation in the indices 2..m, so the plan
merges the entries whose trailing indices ``(i2..im)`` are the same up to
order.  An entry's key is ``(i1, its sorted trailing indices)``, and a key's
value is the sum of its entries' values, added from ``+0.0`` in input order.
A key gives one term per distinct index ``j`` of its sorted tail, for output
cell ``i1 * n + j``: its coefficient is the multiplicity of ``j`` times the
key's value, and its factors are the tail with one ``j`` removed, still
sorted.  A dense tensor of order 4 keeps about half of the ``(m-1) * nnz``
terms that one term per entry and position would give.  The products of
``x`` come from the flat ``d``-fold outer power ``x ⊗ ... ⊗ x``, ``d <= m-2``
the largest depth with ``n^d <= nnz`` (so the table is never larger than the
tensor): a term's first ``d`` factors give its table index, and the rest are
its ``rests``.  The plan is CSR in int32 with one row per cell of the n×n
``T(x)``: the terms ordered by cell, and within a cell by key, each with its
table index and coefficient.  The Jacobian is one call of scipy's compiled
loop ``csr_matvec``, ``T[c] += values[k] * table[index[k]]`` over the terms
``k`` of each cell ``c`` in turn, straight into ``T(x)``.  Factors the depth
leaves out are multiplied into the taken table entries per term, and that
array, indexed by ``k``, is then the table.  So the bits are these: each term
is its coefficient times the product of its factors left to right over the
sorted indices, whatever the depth (a table entry is the same products in
the same order, and ``values[k] * p`` is ``p * values[k]``), and each cell
adds its terms, if any, from ``+0.0`` in key order (``i1``, then the sorted
tail, compared index by index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadArity,
    DimensionMismatch,
    DuplicateIndexTuple,
    IndexOutOfRange,
    NegativeEntry,
    NegativeInput,
    TensorFormatError,
    ZeroVector,
)
from .linalg import csr_matvec

# Components of v smaller than RATIO_ZERO_TOL * ||v||_1 count as zero when
# forming componentwise ratio bounds; floating-point dust left behind by a
# projection must not create huge spurious ratios.
RATIO_ZERO_TOL = 1e-14

# The 0-fold outer power of x: the empty product.
_ONE = np.ones(1)
_ONE.setflags(write=False)


class _Plan(NamedTuple):
    """Read-only CSR arrays of ``jacobian_T``, one row per cell of ``T(x)``; the
    terms are ordered cell by cell, and within a cell by key."""

    depth: int  # the table is the depth-fold outer power of x
    indptr: np.ndarray  # (n^2 + 1,): the terms of cell c = i1 * n + j are indptr[c]:indptr[c+1]
    flats: np.ndarray  # (terms,): the table index, of the term's first depth factors
    values: np.ndarray  # (terms,): the coefficient, j's multiplicity times the key's value
    rests: np.ndarray  # (m-2-depth, terms): x indices of the factors the table leaves out


def _sorted_columns(rows: np.ndarray) -> np.ndarray:
    """A copy of ``rows`` with each column sorted.  Up to four rows go through
    an insertion network of whole-row compare-exchanges, a few ufunc calls over
    contiguous rows; ``np.sort`` along the columns pays a fixed cost per column."""
    if len(rows) > 4:
        return np.sort(rows, axis=0)
    rows = list(rows)
    for i in range(1, len(rows)):
        for j in range(i, 0, -1):
            rows[j - 1], rows[j] = np.minimum(rows[j - 1], rows[j]), np.maximum(rows[j - 1], rows[j])
    return np.array(rows)


def _build_plan(m: int, n: int, indices: np.ndarray, values: np.ndarray) -> _Plan:
    """The plan of checked int32 ``indices`` and their ``values``: the terms of
    their keys (see the module docstring), ordered by cell, then key.  Each
    temporary goes once used, so the build peaks near the plan's own size."""
    nnz, k = len(indices), m - 1
    depth = 0  # the largest d <= m-2 with n^d <= nnz
    while depth < m - 2 and n ** (depth + 1) <= nnz:
        depth += 1
    cols = indices.T  # (m, nnz), one contiguous row per position
    tails = _sorted_columns(cols[1:])
    # The entries in key order (i1, then the sorted tail), each key's in input
    # order, by one int64 sort: the key's digits in radix n, then the entry's
    # number in the low bits; the key so far is replaced by its rank among
    # the keys wherever the next digit would not fit
    low = max(nnz - 1, 0).bit_length()
    key, span = cols[0].astype(np.int64), n
    for r in range(k + 1):
        scale = n if r < k else 1 << low
        if span * scale >= 1 << 63:
            ranks, key = np.unique(key, return_inverse=True)
            span = len(ranks)
        span *= scale
        key *= scale
        key += tails[r] if r < k else np.arange(nnz)
    key.sort()
    order = key & ((1 << low) - 1)
    key >>= low
    first = np.empty(nnz, dtype=bool)  # the first entry of each key
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    reps = order.compress(first)
    # bincount adds each key's values from +0.0 in the order given: input order
    summed = np.bincount(first.cumsum(dtype=np.int32), weights=values.take(order))[1:]
    del order, first
    rows = cols[0].take(reps)
    rows *= n  # the flat start of each key's row of T(x)
    tails = tails.take(reps, axis=1).T.ravel()  # the keys' sorted tails, one after another
    del reps
    # One term per run of an index j in a sorted tail, at flat position `at`
    start = np.empty(tails.size + 1, dtype=bool)
    np.not_equal(tails[1:], tails[:-1], out=start[1:-1])
    start[::k] = True  # every tail starts a run, and so does the end
    at = np.arange(start.size, dtype=np.int32).compress(start)
    del start
    runs = at[1:] - at[:-1]  # each run ends where the next one starts
    at = at[:-1]
    cells = rows.take(at // k)
    cells += tails.take(at)
    del rows
    indptr = np.zeros(n * n + 1, dtype=np.int32)
    indptr[1:] = np.bincount(cells, minlength=n * n)  # int32 holds them: terms <= (m-1) * nnz
    np.add.accumulate(indptr, out=indptr)  # in int32, in place: no temporary past bincount's
    # The terms by cell, each cell's in key order, by one int64 sort of the
    # cell above the term's number; the terms are numbered key by key
    low = max(at.size - 1, 0).bit_length()
    order = cells.astype(np.int64)
    del cells
    order <<= low
    order |= np.arange(at.size)
    order.sort()
    order &= (1 << low) - 1
    at, runs = at.take(order), runs.take(order)
    del order
    index = at // k  # the term's key
    coefs = summed.take(index)
    with np.errstate(over="ignore"):  # past the float range it is inf, as T(x) would be
        coefs *= runs  # j's multiplicity times the key's value
    del summed, runs
    index *= k  # the flat start of the key's tail
    at -= index  # j's position in the tail
    # The factors are the tail without that position, still sorted: the r-th
    # is at the tail's start + r, one further on from j's position
    flats = np.zeros(at.size, dtype=np.int32)
    rests = np.empty((k - 1 - depth, at.size), dtype=np.int32)
    for r in range(k - 1):
        index += at == r
        if r < depth:
            flats *= n
            flats += tails.take(index)
        else:
            rests[r - depth] = tails.take(index)
        index += 1
    plan = _Plan(depth, indptr, flats, coefs, rests)
    for part in plan[1:]:
        part.setflags(write=False)
    return plan


def _power_table(x: np.ndarray, depth: int) -> np.ndarray:
    """Flat ``depth``-fold outer power of ``x``, each entry multiplied left to right."""
    table = _ONE if depth == 0 else x
    for _ in range(depth - 1):
        table = np.multiply.outer(table, x).ravel()
    return table


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable nonnegative tensor of order ``m`` and dimension ``n``.

    ``indices`` has shape (nnz, m) with 0-based integer entries in
    ``[0, n)``; the tensor keeps a read-only column-major int32 copy, and
    raises ``ValueError`` when ``n^2`` or ``(m-1) * nnz`` passes int32.
    ``values`` has shape (nnz,), finite and nonnegative; the tensor keeps a
    read-only float copy, so no later write to the caller's arrays reaches
    the checked tensor.  The constructor checks these, since the compiled
    kernel loop checks no bounds.  It does not look for repeated index tuples:
    the kernels sum them, as scipy's COO format does, and
    :func:`build_tensor` is the entry point that rejects them.  The
    Jacobian's index plan (see the module docstring) is derived once, at
    construction, and is read-only; it holds one term per key and distinct
    trailing index, at most ``(m-1) * nnz``, each with a table index, a
    coefficient and, when the table depth falls short of ``m-2``, the
    ``m-2-depth`` x indices of ``rests``, and ``n^2 + 1`` row pointers;
    ``apply`` and ``jacobian_T`` form the n×n ``T(x)`` per call.  A
    coefficient past the float range, from values near the largest float,
    is ``inf``.
    ``==`` and ``hash()`` go by identity; safe to share across concurrent solves.
    """

    m: int
    n: int
    indices: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    _plan: _Plan = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))  # Python ints: n * n must not wrap
        object.__setattr__(self, "n", int(self.n))
        if self.m < 2 or self.n < 1:
            raise ValueError(f"need order >= 2 and dimension >= 1, got m={self.m} n={self.n}")
        indices = np.asarray(self.indices)
        values = np.array(self.values, dtype=float, order="C", ndmin=1)  # always a copy
        if indices.dtype.kind not in "iu":
            raise TypeError(f"indices must be an integer array, got dtype {indices.dtype}")
        if values.ndim != 1 or indices.shape != (values.size, self.m):
            raise DimensionMismatch(
                f"expected indices of shape (nnz, {self.m}) and values of shape (nnz,), "
                f"got {indices.shape} and {values.shape}"
            )
        # cells i1 * n + j of T(x), table indices, term numbers and the
        # plan's indptr all stay within max(n^2, (m-1) * nnz)
        limit = np.iinfo(np.int32).max
        if max(self.n * self.n, (self.m - 1) * values.size) > limit:
            raise ValueError(
                f"need n^2 and (m-1) * nnz at most {limit} (int32 indices), "
                f"got m={self.m} n={self.n} nnz={values.size}"
            )
        if values.size and not (indices.min() >= 0 and indices.max() < self.n):
            raise IndexOutOfRange(f"indices must lie in [0, {self.n - 1}]")
        if values.size and not (values.min() >= 0 and values.max() < np.inf):  # NaN fails too
            raise NegativeEntry("values must be finite and nonnegative")
        indices = np.array(indices, dtype=np.int32, order="F")
        indices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_plan", _build_plan(self.m, self.n, indices, values))

    @property
    def nnz(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Iterate:
    """One solver iterate: vector ``x``, scalar ``lam``, cached residual."""

    x: np.ndarray
    lam: float
    residual_norm: float


def _tensor(m: int, n: int, rows, vals, lines=None, source="") -> Tensor:
    """Check 1-based index ``rows`` and their values ``vals`` (a float array)
    as arrays and build the :class:`Tensor`; the first offending row decides
    the error.  With ``lines``, messages start ``source:line:``."""
    if m < 2:
        raise ValueError(f"tensor order must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"tensor dimension must be >= 1, got {n}")
    idx = np.empty((len(vals), m), dtype=np.intp, order="F")  # the stored layout
    try:
        idx[:] = np.array(rows, dtype=np.intp).reshape(idx.shape)
    except OverflowError:  # beyond intp, so out of range for any n
        idx[:] = [[min(max(int(i), 0), n + 1) for i in row] for row in rows]
    out = (idx.min(axis=1) < 1) | (idx.max(axis=1) > n)
    order = np.lexsort(idx.T)  # stable: equal rows end up adjacent, in input order
    ranked = idx[order]
    repeat = np.zeros(len(vals), dtype=bool)
    repeat[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
    bad = out | ~np.isfinite(vals) | (vals < 0) | repeat
    if bad.any():
        k = int(bad.argmax())
        tup, value = tuple(int(i) for i in rows[k]), float(vals[k])
        at = "" if lines is None else f"{source}:{lines[k]}: "
        if out[k]:
            raise IndexOutOfRange(f"{at}index tuple {tup} out of range [1, {n}]")
        if not np.isfinite(value):
            raise NegativeEntry(f"{at}entry {tup} has non-finite value {value}")
        if value < 0:
            raise NegativeEntry(f"{at}entry {tup} has negative value {value}")
        if lines is None:
            raise DuplicateIndexTuple(f"index tuple {tup} appears more than once")
        first = int((idx[:k] == idx[k]).all(axis=1).argmax())
        raise DuplicateIndexTuple(f"{at}index tuple {tup} already defined on line {lines[first]}")
    del out, order, ranked, repeat, bad  # the tensor below reuses their memory
    idx -= 1
    return Tensor(m=int(m), n=int(n), indices=idx, values=vals)


def build_tensor(m: int, n: int, entries) -> Tensor:
    """Validate ``entries`` (1-based index tuples to nonnegative values)
    and build a :class:`Tensor`.

    One validator, shared with file parsing and ``random_tensor``, checks
    the entries as arrays; the first offending entry in input order decides
    the error: :class:`BadArity`, :class:`IndexOutOfRange`,
    :class:`NegativeEntry` or :class:`DuplicateIndexTuple`.
    """
    entries = list(entries)
    short = next((k for k, (tup, _) in enumerate(entries) if len(tup) != m), len(entries))
    rows = [tup for tup, _ in entries[:short]]
    tensor = _tensor(m, n, rows, np.array([v for _, v in entries[:short]], dtype=float))
    if short < len(entries):  # raised only once the entries before it passed
        tup = tuple(int(i) for i in entries[short][0])
        raise BadArity(f"index tuple {tup} has {len(tup)} indices, expected {m}")
    return tensor


def _check_vector(A: Tensor, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise DimensionMismatch(f"expected vector of length {A.n}, got shape {x.shape}")
    return x


def _euler(T: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """``A x^{m-1}`` from ``T = T(x)`` by Euler's identity, ``T(x) x / (m-1)``."""
    # numpy's own row sums, not matmul: BLAS picks its dgemv kernel by CPU
    return (T * x).sum(axis=1) / (m - 1)


def _residual(ax: np.ndarray, x: np.ndarray, lam: float) -> float:
    """``||A x^{m-1} - lam x||_1`` from the contraction ``ax = A x^{m-1}``."""
    return float(np.abs(ax - lam * x).sum())


def apply(A: Tensor, x) -> np.ndarray:
    """Contract the tensor with ``m - 1`` copies of ``x``:
    ``(A x^{m-1})_i = sum A_{i i2 ... im} x_{i2} ... x_{im}``, taken from the
    n×n Jacobian as ``T(x) x / (m-1)``: the bits every solve reads."""
    x = _check_vector(A, x)
    return _euler(_jacobian(A, x), x, A.m)


def jacobian_T(A: Tensor, x) -> np.ndarray:
    """Exact derivative T(x) of the contraction: ``T(x)_{ij} = d(A x^{m-1})_i / dx_j``.

    Each stored entry contributes, for every variable position p in
    {2, ..., m}, the product of the other m-2 variable factors to
    row i1, column ip.  :func:`apply` takes the contraction from it.
    """
    return _jacobian(A, _check_vector(A, x))


def _jacobian(A: Tensor, x: np.ndarray) -> np.ndarray:
    """``T(x)`` of a checked ``x``, from the plan (see the module docstring)."""
    plan, out = A._plan, np.zeros(A.n * A.n)
    table, index = _power_table(x, plan.depth), plan.flats
    if len(plan.rests):  # one product per term, then indexed by the term itself
        table = table.take(index)
        for rest in plan.rests:
            table *= x.take(rest)
        index = np.arange(table.size, dtype=index.dtype)
    # out[c] += values[k] * table[index[k]] over the terms k of cell c
    csr_matvec(out.size, table.size, plan.indptr, index, plan.values, table, out)
    return out.reshape(A.n, A.n)


def residual(A: Tensor, x, lam: float) -> float:
    """1-norm of ``A x^{m-1} - lam * x`` (the solvers' stopping quantity)."""
    x = _check_vector(A, x)
    return _residual(apply(A, x), x, lam)


def ratio_bounds(w, v) -> tuple[float, float]:
    """Componentwise ratio bounds ``(min(w/v), max(w/v))``.

    For strictly positive ``v`` this is the plain min/max of ``w_i / v_i``
    (``w`` of any sign).  When ``v`` has zeros, both vectors must be
    nonnegative and the bounds extend over the index sets of nonzeros of
    ``w`` (S1) and ``v`` (S2): indices in S1 but not S2 push the lower
    bound to 0 and enter the upper bound as bare ``w_i`` values.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if w.shape != v.shape or w.ndim != 1:
        raise DimensionMismatch(f"need equal-length vectors, got {w.shape} and {v.shape}")
    vnorm = float(np.abs(v).sum())
    if vnorm == 0.0:
        raise ZeroVector("ratio bounds need v != 0")
    if not vnorm < np.inf:  # NaN fails too
        raise ValueError("ratio bounds need a finite v")

    if v.min() > RATIO_ZERO_TOL * vnorm:
        ratios = w / v
        return float(ratios.min()), float(ratios.max())

    if np.any(v < -RATIO_ZERO_TOL * vnorm):
        raise NegativeInput("extended ratio bounds need v >= 0")
    wnorm = float(np.abs(w).sum())
    if np.any(w < -RATIO_ZERO_TOL * max(wnorm, 1.0)):
        raise NegativeInput("extended ratio bounds need w >= 0")

    in_s1 = np.abs(w) > RATIO_ZERO_TOL * wnorm
    in_s2 = np.abs(v) > RATIO_ZERO_TOL * vnorm
    ratios = w[in_s2] / v[in_s2]
    upper = float(ratios.max())
    lower = float(ratios.min())
    bare = in_s1 & ~in_s2
    if np.any(bare):
        upper = max(upper, float(w[bare].max()))
        lower = 0.0
    return lower, upper


def z1_to_z2(x, lam: float, m: int) -> tuple[np.ndarray, float]:
    """Convert a 1-norm-normalized eigenpair to its 2-norm counterpart:
    ``(x / ||x||_2, lam / ||x||_2^{m-2})``.
    """
    x = np.asarray(x, dtype=float)
    n2 = float(np.linalg.norm(x, 2))
    if n2 == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    return x / n2, float(lam) / n2 ** (m - 2)


def parse_tensor_text(text: str, source: str = "<string>") -> Tensor:
    """Parse the tensor text format.

    First non-comment line is ``m n``; each following line is
    ``i1 i2 ... im value`` (1-based, whitespace-separated).  ``#`` starts
    a comment.  Lines are checked here for format only, then go to the
    validator :func:`build_tensor` uses.  The first offending line decides
    the error, and its message starts ``source:line:``.
    """
    m = n = None  # from the header line
    rows: list[list[int]] = []
    vals: list[float] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if m is None:
            try:
                m, n = (int(f) for f in fields)  # a wrong count raises ValueError too
            except ValueError:
                raise TensorFormatError(
                    f"{source}:{lineno}: header must be two integers 'm n', got {raw.strip()!r}"
                ) from None
            if m < 2 or n < 1:
                raise TensorFormatError(
                    f"{source}:{lineno}: need order >= 2 and dimension >= 1, got m={m} n={n}"
                )
            continue

        try:
            row = [int(f) for f in fields[:m]]
            (value,) = (float(f) for f in fields[m:])  # one field after the indices
        except ValueError:
            row = None
        if row is None:  # an error in the lines before this one comes first
            _tensor(m, n, rows, np.array(vals), lines, source)
            raise TensorFormatError(
                f"{source}:{lineno}: expected {m} indices and a value, got {raw.strip()!r}"
            )
        rows.append(row)
        vals.append(value)
        lines.append(lineno)

    if m is None:
        raise TensorFormatError(f"{source}: no header line 'm n' found")
    return _tensor(m, n, rows, np.array(vals), lines, source)


def load_tensor(path) -> Tensor:
    """Read a tensor from a text file (see :func:`parse_tensor_text`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor_text(fh.read(), source=str(path))
