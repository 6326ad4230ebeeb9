"""In-memory span tracing around zeigen's public calls.

Each traced call records ``(name, start, end, parent, request, note)``.
``solvers``, ``harness`` and ``cli`` bind ``apply``, ``solve`` and the rest
by name at import (``from .tensor import apply``), so installing a wrapper
rebinds the name in every zeigen module that holds the original function,
not only in the defining one.  A span's self time is its duration minus the
time its direct child spans cover; calls are single-threaded and nested, so
children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = (
    "zeigen",
    "zeigen.tensor",
    "zeigen.linalg",
    "zeigen.solvers",
    "zeigen.harness",
    "zeigen.cli",
)


def _shape(args, kwargs, result):
    A = args[0]
    return (A.nnz, A.m, A.n)


def _perturbed(args, kwargs, result):
    return result[1].perturbation > 0


def _solve(args, kwargs, result):
    return (result.method, result.status, result.iterations)


def _pairs(args, kwargs, result):
    return len(result)


# span name -> (defining module, function, note taken from the call)
TRACED = {
    "tensor.apply": ("zeigen.tensor", "apply", _shape),
    "tensor.jacobian_T": ("zeigen.tensor", "jacobian_T", _shape),
    "tensor.residual": ("zeigen.tensor", "residual", None),
    "tensor.ratio_bounds": ("zeigen.tensor", "ratio_bounds", None),
    "tensor.build_tensor": ("zeigen.tensor", "build_tensor", None),
    "tensor.load_tensor": ("zeigen.tensor", "load_tensor", None),
    "linalg.solve_bordered": ("zeigen.linalg", "solve_bordered", None),
    "linalg.solve_shifted": ("zeigen.linalg", "solve_shifted", None),
    "linalg.shift_rcond": ("zeigen.linalg", "shift_rcond", None),
    "linalg.bordered_rcond": ("zeigen.linalg", "bordered_rcond", None),
    "linalg.ensure_bordered_nonsingular": (
        "zeigen.linalg", "ensure_bordered_nonsingular", _perturbed),
    "solvers.solve": ("zeigen.solvers", "solve", _solve),
    "harness.multi_start": ("zeigen.harness", "multi_start", _pairs),
    "harness.dedup": ("zeigen.harness", "dedup", None),
    "cli.main": ("zeigen.cli", "main", None),
}


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``request`` is set by the caller before each operation; every span
    started during that operation carries it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = note(args, kwargs, result) if note and result is not None else None
                spans[idx] = (name, start, end, parent, self.request, extra)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [importlib.import_module(name) for name in MODULES]
        for name, (home, attr, note) in TRACED.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()
        return False

    def drop_after(self, count: int) -> None:
        """Forget spans past the first ``count`` (only between operations)."""
        del self.spans[count:]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _req, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def by_name(spans):
    """Per span name: ``calls``, ``self_s`` (summed self time) and ``s``
    (summed duration)."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "s": 0.0})
    for span, own in zip(spans, selfs):
        row = out[span[0]]
        row["calls"] += 1
        row["self_s"] += own
        row["s"] += span[2] - span[1]
    return out


def solve_owner(spans) -> list[int]:
    """For each span, the index of the enclosing ``solvers.solve`` span
    (itself for a solve span), or -1."""
    owner = [-1] * len(spans)
    for i, span in enumerate(spans):
        if span[0] == "solvers.solve":
            owner[i] = i
        elif span[3] >= 0:
            owner[i] = owner[span[3]]
    return owner


def write_csv(spans, path) -> None:
    """Write spans as ``index,parent,request,name,start,end,note`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,request,name,start,end,note\n")
        for i, (name, start, end, parent, req, extra) in enumerate(spans):
            note = "" if extra is None else str(extra).replace(",", ";")
            fh.write(f"{i},{parent},{req},{name},{start!r},{end!r},{note}\n")
