"""Command-line front-end: solve a tensor eigenproblem, sweep many random
starts, or validate a tensor file.

Every format renders the same records, each described once below: a
solve's summary (JSON; text, one ``label: value`` line per field) and its
trace rows (CSV; JSON and text under ``--trace``), and a sweep's
eigenpairs (JSON, CSV with space-separated vectors, text).  ``check``
prints two text lines.  Floats carry 17 significant digits; JSON ends with
a timestamp unless ``--no-timestamp`` is given.

Exit codes: 0 success, 1 bad input (parse failure, bad flags) or too little
memory, 2 solver failure (the report still goes to stdout with its status).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import ZeigenError
from .harness import multi_start, simplex_start
from .solvers import METHODS, SolveReport, SolverConfig, solve
from .tensor import Tensor, apply, load_tensor, ratio_bounds

TRACE_COLUMNS = ("k", "lambda", "lambda_hat", "lambda_low", "lambda_high", "residual", "flags")
PAIR_COLUMNS = ("eigenvalue", "eigenvector", "residual", "start")
# Text labels: summary fields not shown by name, and a pair's first three.
SUMMARY_LABELS = {"failure_reason": "reason", "notes": "note"}
PAIR_LABELS = ("lambda", "x", "residual")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """Serialize a report structure as JSON with floats at 17 significant
    digits (non-finite values become null)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{key}": {_json_text(val, indent + 1)}' for key, val in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ", ".join(_json_text(v, indent + 1) for v in obj)
        return "[" + body + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if np.isfinite(obj) else "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cell(value, sep: str = " ") -> str:
    """A CSV cell or text value: .17g floats, None empty, vectors ``sep``-joined."""
    if value is None:
        return ""
    if isinstance(value, list):
        return sep.join(map(_fmt, value))
    if isinstance(value, (int, str)):
        return str(value)
    return _fmt(value)


def _text(value) -> str:
    return f"[{_cell(value, ', ')}]" if isinstance(value, list) else _cell(value)


def _csv(columns, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def _vector(x) -> list[float]:
    return [float(v) for v in x]


def _summary(report: SolveReport) -> dict:
    out = {
        "method": report.method,
        "status": report.status,
        "eigenvalue": report.final.lam,
        "eigenvector": _vector(report.final.x),
        "residual": report.final.residual_norm,
        "iterations": report.iterations,
    }
    if report.failure_reason:
        out["failure_reason"] = report.failure_reason
    if report.notes:
        out["notes"] = list(report.notes)
    return out


def _trace_row(rec) -> dict:
    values = (rec.k, rec.lam, rec.lam_hat, rec.lam_low, rec.lam_high, rec.residual,
              ";".join(rec.flags))
    return dict(zip(TRACE_COLUMNS, values), x=_vector(rec.x))


def _pair_row(p) -> dict:
    return dict(zip(PAIR_COLUMNS, (p.lam, _vector(p.x), p.residual, _vector(p.start))))


def _emit(args, record: dict, columns, rows: list[dict], text: list[str]) -> None:
    """Print ``record`` as JSON, ``rows`` under ``columns`` as CSV, or ``text``."""
    if args.format == "json":
        if not args.no_timestamp:
            record["timestamp"] = datetime.now(timezone.utc).isoformat()
        print(_json_text(record))
    elif args.format == "csv":
        sys.stdout.write(_csv(columns, rows))
    else:
        print("\n".join(text))


def _parse_x0(spec: str, tensor: Tensor) -> np.ndarray:
    """The start a ``--x0`` spec names; the solver decides whether it is valid."""
    if spec == "uniform":
        return np.full(tensor.n, 1.0 / tensor.n)
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad x0 spec {spec!r}: seed must be an integer") from None
        return simplex_start(tensor.n, np.random.default_rng(seed))
    try:
        return np.array([float(f) for f in spec.split(",")])
    except ValueError:
        raise ValueError(f"bad x0 spec {spec!r}: expected comma-separated numbers") from None


def _parse_betas(spec: str | None) -> tuple[float, ...] | None:
    if spec is None:
        return None
    try:
        return tuple(float(f) for f in spec.split(","))
    except ValueError:
        raise ValueError(f"bad beta spec {spec!r}: expected comma-separated numbers") from None


def _config(args) -> SolverConfig:
    return SolverConfig(
        method=args.method,
        tol=args.tol,
        max_iter=args.max_iter,
        beta_schedule=_parse_betas(args.beta),
    )


def cmd_solve(args) -> int:
    if args.lambda0 is not None and args.method != "newton":
        raise ValueError(f"--lambda0 applies only to --method newton, not {args.method}")
    tensor = load_tensor(args.tensor)
    config = _config(args)
    x0 = _parse_x0(args.x0, tensor)
    report = solve(tensor, x0, config, lam0=args.lambda0)
    summary = _summary(report)
    trace = [_trace_row(rec) for rec in report.trace]
    text = [f"{SUMMARY_LABELS.get(key, key) + ':':<11} {_text(item)}"
            for key, value in summary.items() for item in (value if key == "notes" else [value])]
    if args.trace:
        text += ["trace:", _csv(TRACE_COLUMNS, trace).rstrip("\n")]
    _emit(args, dict(summary, trace=trace) if args.trace else summary, TRACE_COLUMNS, trace, text)
    return 0 if report.converged else 2


def cmd_sweep(args) -> int:
    tensor = load_tensor(args.tensor)
    result = multi_start(tensor, args.starts, args.seed, _config(args))
    pairs = [_pair_row(p) for p in result]
    failures = [{"start": _vector(f.start), "status": f.status, "reason": f.reason}
                for f in result.failures]
    record = {"method": args.method, "starts": args.starts, "seed": args.seed,
              "eigenpairs": pairs, "failures": failures}
    text = [f"{len(pairs)} distinct eigenpairs from {args.starts} starts "
            f"({len(failures)} failed runs)"]
    text += ["  " + "  ".join(f"{k} = {_text(v)}" for k, v in zip(PAIR_LABELS, row.values()))
             for row in pairs]
    _emit(args, record, PAIR_COLUMNS, pairs, text)
    return 0 if pairs else 2


def cmd_check(args) -> int:
    tensor = load_tensor(args.tensor)
    print(f"m={tensor.m} n={tensor.n} nnz={tensor.nnz}")
    x = _parse_x0("uniform", tensor)
    low, high = ratio_bounds(apply(tensor, x), x)
    print(f"ratio bounds at uniform x: [{_fmt(low)}, {_fmt(high)}]")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    p.add_argument("--method", choices=METHODS, default=defaults.method)
    p.add_argument("--tol", type=float, default=defaults.tol, help="residual stop tolerance")
    p.add_argument("--max-iter", type=int, default=defaults.max_iter)
    p.add_argument("--beta", default=None,
                   help="damping factor(s) for pni, e.g. '0.5' or '0,0.1,0.2'")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field for byte-reproducible output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeigen",
        description="Nonnegative Z-eigenpairs of nonnegative tensors "
        "via Newton and modified Newton iterations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver from one start vector")
    p_solve.add_argument("--tensor", required=True, help="tensor file (see README for format)")
    p_solve.add_argument("--x0", default="uniform",
                         help="'uniform', 'random:<seed>', or comma-separated entries "
                         "summing to 1: positive for mni and pni; nonnegative for mpni "
                         "and for newton without --lambda0; any finite for newton with it")
    p_solve.add_argument("--lambda0", type=float, default=None,
                         help="initial shift (plain newton only; default: upper ratio bound)")
    p_solve.add_argument("--trace", action="store_true", help="include the iteration trace")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="multi-start sweep, distinct eigenpairs")
    p_sweep.add_argument("--tensor", required=True)
    p_sweep.add_argument("--starts", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="validate a tensor file")
    p_check.add_argument("tensor")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # bad flags exit 1 per the interface contract; --help stays 0
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ZeigenError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
