"""Golden solver reports over a seeded family of small tensors.

The CLI goldens only see converged runs without a rescue.  This family
also reaches the other statuses and the rescue flags: a third of its
tensors have unit values, which makes shifted and bordered matrices
singular, and every tenth has its values scaled by 1e9, past the
divergence bound.  Each tensor runs all four methods, with ``max_iter``
cycling through 0, 1 and the default, so the start, the first step and
whole runs are all covered, and with PNI's damping schedule cycling
through three schedules.

Per solve the file keeps the status, the iteration count, the failure
reason, the notes, the flags of each trace record that has any, the final lambda and
residual at 17 significant digits, and a sha256 over every trace field
(the bytes of ``x`` and the exact hex of each float).  Comparison is
exact.  After a deliberate behaviour change, first classify the
difference with ``PYTHONPATH=src python tests/test_golden_reports.py
--diff`` (it writes nothing, and exits 1 if any solve is not identical),
then rewrite the file with
``PYTHONPATH=src python tests/test_golden_reports.py`` and quote the table.
"""

import hashlib
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from zeigen import SolverConfig, build_tensor, residual, solve

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
METHODS = ("newton", "mni", "pni", "mpni")
MAX_ITERS = (0, 1, SolverConfig().max_iter)
BETA_SCHEDULES = ((0.3,), (0.0, 0.5), (1.0,))
SIZE = 150
SEED = 2


def _hex(value) -> str | None:
    return None if value is None else float(value).hex()


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for r in trace:
        fields = (r.k, r.lam, r.residual, r.lam_hat, r.lam_low, r.lam_high, r.perturbation)
        h.update(repr([_hex(v) for v in fields] + list(r.flags)).encode())
        h.update(np.asarray(r.x, dtype=float).tobytes())
    return h.hexdigest()


def _family():
    """``(label, tensor, x0, config)`` for every solve, in a fixed order."""
    rng = np.random.default_rng(SEED)
    for t in range(SIZE):
        m, n = 2 + t % 4, 1 + (t // 4) % 6
        total = n**m
        nnz = max(1, min(total, 120, int(np.ceil(rng.uniform(0.05, 0.6) * total))))
        flat = rng.choice(total, size=nnz, replace=False)
        grid = np.unravel_index(flat, (n,) * m)
        values = np.ones(nnz) if t % 3 == 0 else rng.random(nnz)
        if t % 10 == 7:
            values = values * 1e9
        entries = [
            (tuple(int(axis[row]) + 1 for axis in grid), float(values[row]))
            for row in range(nnz)
        ]
        tensor = build_tensor(m, n, entries)
        draw = rng.standard_exponential(n) + 1e-3
        x0 = draw / draw.sum()
        max_iter = MAX_ITERS[(t // 3) % len(MAX_ITERS)]
        betas = BETA_SCHEDULES[(t // 9) % len(BETA_SCHEDULES)]
        for method in METHODS:
            config = SolverConfig(
                method=method,
                max_iter=max_iter,
                beta_schedule=betas if method == "pni" else None,
            )
            yield f"{t}/{method}/{max_iter}", tensor, x0, config


FIELDS = ("status", "iterations", "failure_reason", "notes", "flags", "lam", "residual",
          "trace_sha256")


def _summary(report) -> list:
    """One solve as a list in ``FIELDS`` order."""
    return [
        report.status,
        report.iterations,
        report.failure_reason,
        list(report.notes),
        [f"{r.k}:{'|'.join(r.flags)}" for r in report.trace if r.flags],
        format(report.final.lam, ".17g"),
        format(report.final.residual_norm, ".17g"),
        _trace_digest(report.trace),
    ]


def _reports() -> dict:
    return {
        label: _summary(solve(tensor, x0, config))
        for label, tensor, x0, config in _family()
    }


def _dump(reports: dict) -> str:
    lines = [f"  {json.dumps('fields')}: {json.dumps(FIELDS)}"]
    lines += [f"  {json.dumps(label)}: {json.dumps(entry)}" for label, entry in reports.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _load() -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert tuple(golden.pop("fields")) == FIELDS
    return golden


def test_reports_match_golden():
    expected = _load()
    actual = _reports()
    assert list(actual) == list(expected)
    mismatched = [label for label in expected if actual[label] != expected[label]]
    assert not mismatched, f"{len(mismatched)} reports differ, first: {mismatched[:5]}"


def test_golden_family_keeps_its_coverage():
    """The family must keep reaching every status it was built to reach
    and every rescue flag, or the golden comparison proves less."""
    expected = _load()
    statuses = Counter(entry[FIELDS.index("status")] for entry in expected.values())
    flags = Counter(
        flag
        for entry in expected.values()
        for record in entry[FIELDS.index("flags")]
        for flag in record.split(":")[1].split("|")
    )
    for status in ("converged", "max_iter", "diverged", "perturbation_exhausted"):
        assert statuses[status] > 0, status
    for flag in ("lambda_adjusted", "beta_escalated", "lambda_perturbed", "projection_changed"):
        assert flags[flag] > 0, flag
    assert {label.split("/")[2] for label in expected} == {str(v) for v in MAX_ITERS}


def test_residual_reads_every_converged_report_bit_for_bit():
    """``residual`` takes the contraction a solve takes, ``T(x) x / (m-1)``,
    so at a converged report's final pair it gives the report's residual."""
    converged, differ = 0, []
    for label, tensor, x0, config in _family():
        report = solve(tensor, x0, config)
        if report.converged:
            converged += 1
            final = report.final
            if residual(tensor, final.x, final.lam).hex() != final.residual_norm.hex():
                differ.append(label)
    assert converged > 0
    assert not differ, f"{len(differ)} of {converged} differ, first: {differ[:5]}"


# Kinds of difference, gravest first; a solve counts under the first that
# applies.  "status" includes the wording of the failure reason (its
# numbers aside).  "lam" is a final lambda off by more than LAM_RTOL
# relative to max(1, |lam|): a converged lambda is pinned down only to
# about tol, so near 0 the test is absolute.  "last_bits" is every other
# difference: the final lambda within that bound, the residual, the trace
# digest or the reason's numbers.
KINDS = ("status", "iterations", "lam", "flags", "last_bits", "identical")
LAM_RTOL = 1e-10
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|[-+]?\b(?:nan|inf)\b")


def _lam_close(old: str, new: str) -> bool:
    a, b = float(old), float(new)
    return a == b or (math.isnan(a) and math.isnan(b)) or \
        abs(a - b) <= LAM_RTOL * max(1.0, abs(a), abs(b))


def _kind(old: list, new: list) -> str:
    """The gravest kind of difference between two summaries."""
    old, new = dict(zip(FIELDS, old)), dict(zip(FIELDS, new))
    words = [_NUMBER.sub("#", entry["failure_reason"] or "") for entry in (old, new)]
    if old["status"] != new["status"] or words[0] != words[1]:
        return "status"
    if old["iterations"] != new["iterations"]:
        return "iterations"
    if not _lam_close(old["lam"], new["lam"]):
        return "lam"
    if old["flags"] != new["flags"]:
        return "flags"
    return "identical" if old == new else "last_bits"


def _change(name: str, old, new) -> str:
    """One differing field as ``name old -> new``; for the flags, how many
    flagged records differ and the first of them as ``k: old -> new``."""
    if name != "flags":
        return f"{name} {old} -> {new}"
    old, new = (dict(record.split(":", 1) for record in flags) for flags in (old, new))
    ks = sorted((k for k in old.keys() | new.keys() if old.get(k) != new.get(k)), key=int)
    first = f"{ks[0]}: {old.get(ks[0], '-')} -> {new.get(ks[0], '-')}"
    return f"flags {len(ks)} records differ, first {first}"


def _print_diff(expected: dict, actual: dict) -> int:
    """A count per kind of difference, then every solve of the first four
    kinds, in family order, with the fields that differ; returns the number
    of solves that are not identical."""
    assert list(actual) == list(expected)
    kinds = {kind: [] for kind in KINDS}
    for label, entry in expected.items():
        kinds[_kind(entry, actual[label])].append(label)
    for kind in KINDS:
        print(f"{kind:10} {len(kinds[kind]):5d}")
    for kind in KINDS[:4]:
        for label in kinds[kind]:
            old, new = (dict(zip(FIELDS, e)) for e in (expected[label], actual[label]))
            print(f"{label} {kind} ({old['status']}, {old['iterations']} iterations):",
                  *(_change(name, old[name], new[name]) for name in FIELDS[:-1]
                    if old[name] != new[name]), sep="\n  ")
    return len(expected) - len(kinds["identical"])


def test_diff_ranks_the_gravest_kind_first():
    base = ["perturbation_exhausted", 3, "no shift in [0.5, 1.5]", [], [], "1.5", "1e-3", "aa"]

    def kind(**changes):
        return _kind(base, [changes.get(name, value) for name, value in zip(FIELDS, base)])

    assert kind() == "identical"
    assert kind(residual="2e-3", trace_sha256="bb") == "last_bits"
    assert kind(lam="1.5000000000000002", failure_reason="no shift in [0.5, 1.6]") == "last_bits"
    assert kind(lam="1.5000001") == "lam"
    assert kind(flags=["1:projection_changed"], lam="1.5000000000000002") == "flags"
    assert kind(iterations=4, lam="2", flags=["1:lambda_adjusted"]) == "iterations"
    assert kind(failure_reason="e^T w = 0") == "status"
    assert kind(failure_reason="no shift in [-inf, nan]") == "last_bits"
    assert kind(status="max_iter", failure_reason=None) == "status"


def test_diff_counts_the_solves_that_are_not_identical(capsys):
    base = ["converged", 3, None, [], [], "1.5", "1e-13", "aa"]
    expected = {"0/mni/1": base, "1/mni/1": base, "2/mni/1": base}
    assert _print_diff(expected, expected) == 0
    actual = {**expected, "1/mni/1": base[:-1] + ["bb"], "2/mni/1": base[:1] + [4] + base[2:]}
    assert _print_diff(expected, actual) == 2
    out = capsys.readouterr().out
    assert "identical      3" in out and "identical      1" in out
    assert "last_bits      1" in out and "iterations     1" in out
    # a moved flag reads as a count of records and the first of them
    flags = FIELDS.index("flags")
    old, new = list(base), list(base)
    old[flags] = ["0:lambda_adjusted", "1:projection_changed"]
    new[flags] = ["1:projection_changed|lambda_adjusted", "2:projection_changed"]
    assert _print_diff({"0/mni/1": old}, {"0/mni/1": new}) == 1
    out = capsys.readouterr().out
    assert "flags          1" in out
    assert "\n  flags 3 records differ, first 0: lambda_adjusted -> -\n" in out


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if _print_diff(_load(), _reports()) else 0)
    else:
        GOLDEN.write_text(_dump(_reports()), encoding="utf-8")
        print(f"wrote {GOLDEN}")
