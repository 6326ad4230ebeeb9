"""Command-line front-end: solve a tensor eigenproblem, sweep many random
starts, or validate a tensor file.

Exit codes: 0 success, 1 bad input (parse failure, bad flags), 2 solver
failure (the report still goes to stdout with the failure status).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import ZeigenError
from .harness import EigenpairSet, multi_start, simplex_start
from .solvers import METHODS, SolveReport, SolverConfig, solve
from .tensor import Tensor, apply, load_tensor, ratio_bounds


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """Serialize a report structure as JSON with floats at 17 significant
    digits (non-finite values become null)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{key}": {_json_text(val, indent + 1)}' for key, val in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ", ".join(_json_text(v, indent + 1) for v in obj)
        return "[" + body + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if np.isfinite(obj) else "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _vector(x) -> list[float]:
    return [float(v) for v in x]


def _trace_rows(report: SolveReport) -> list[dict]:
    rows = []
    for rec in report.trace:
        rows.append(
            {
                "k": rec.k,
                "lambda": rec.lam,
                "lambda_hat": rec.lam_hat,
                "lambda_low": rec.lam_low,
                "lambda_high": rec.lam_high,
                "residual": rec.residual,
                "flags": ";".join(rec.flags),
                "x": _vector(rec.x),
            }
        )
    return rows


def _solve_report_dict(report: SolveReport, with_trace: bool, timestamp: bool) -> dict:
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
    if with_trace:
        out["trace"] = _trace_rows(report)
    if timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def _trace_csv(report: SolveReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "lambda", "lambda_hat", "lambda_low", "lambda_high", "residual", "flags"])
    for rec in report.trace:
        writer.writerow(
            [
                rec.k,
                _fmt(rec.lam),
                "" if rec.lam_hat is None else _fmt(rec.lam_hat),
                "" if rec.lam_low is None else _fmt(rec.lam_low),
                "" if rec.lam_high is None else _fmt(rec.lam_high),
                _fmt(rec.residual),
                ";".join(rec.flags),
            ]
        )
    return buf.getvalue()


def _solve_text(report: SolveReport, with_trace: bool) -> str:
    lines = [
        f"method:     {report.method}",
        f"status:     {report.status}",
        f"eigenvalue: {_fmt(report.final.lam)}",
        f"eigenvector: [{', '.join(_fmt(v) for v in report.final.x)}]",
        f"residual:   {_fmt(report.final.residual_norm)}",
        f"iterations: {report.iterations}",
    ]
    if report.failure_reason:
        lines.append(f"reason:     {report.failure_reason}")
    for note in report.notes:
        lines.append(f"note:       {note}")
    if with_trace:
        lines.append("trace:")
        lines.append(_trace_csv(report).rstrip("\n"))
    return "\n".join(lines)


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
    if args.format == "json":
        print(_json_text(_solve_report_dict(report, args.trace, not args.no_timestamp)))
    elif args.format == "csv":
        sys.stdout.write(_trace_csv(report))
    else:
        print(_solve_text(report, args.trace))
    return 0 if report.converged else 2


def _sweep_dict(result: EigenpairSet, args, timestamp: bool) -> dict:
    out = {
        "method": args.method,
        "starts": args.starts,
        "seed": args.seed,
        "eigenpairs": [
            {
                "eigenvalue": p.lam,
                "eigenvector": _vector(p.x),
                "residual": p.residual,
                "start": _vector(p.start),
            }
            for p in result
        ],
        "failures": [
            {"start": _vector(f.start), "status": f.status, "reason": f.reason}
            for f in result.failures
        ],
    }
    if timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def cmd_sweep(args) -> int:
    tensor = load_tensor(args.tensor)
    config = _config(args)
    result = multi_start(tensor, args.starts, args.seed, config)
    if args.format == "json":
        print(_json_text(_sweep_dict(result, args, not args.no_timestamp)))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["eigenvalue", "eigenvector", "residual", "start"])
        for p in result:
            writer.writerow(
                [
                    _fmt(p.lam),
                    " ".join(_fmt(v) for v in p.x),
                    _fmt(p.residual),
                    " ".join(_fmt(v) for v in p.start),
                ]
            )
    else:
        print(f"{len(result)} distinct eigenpairs from {args.starts} starts "
              f"({len(result.failures)} failed runs)")
        for p in result:
            print(f"  lambda = {_fmt(p.lam)}  x = [{', '.join(_fmt(v) for v in p.x)}]  "
                  f"residual = {_fmt(p.residual)}")
    return 0 if len(result) > 0 else 2


def cmd_check(args) -> int:
    tensor = load_tensor(args.tensor)
    print(f"m={tensor.m} n={tensor.n} nnz={tensor.nnz}")
    x = np.full(tensor.n, 1.0 / tensor.n)
    low, high = ratio_bounds(apply(tensor, x), x)
    print(f"ratio bounds at uniform x: [{_fmt(low)}, {_fmt(high)}]")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default="mpni")
    p.add_argument("--tol", type=float, default=1e-12, help="residual stop tolerance")
    p.add_argument("--max-iter", type=int, default=100)
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
    except (ZeigenError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
