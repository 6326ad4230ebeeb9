"""Tests for the command-line interface: solve, sweep, check, formats,
and exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import zeigen.tensor
from zeigen import SolverConfig
from zeigen.cli import _config, build_parser, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_interior_pair(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--method", "mpni", "--tensor", str(quartic2_path),
            "--x0", "0.2,0.8", "--tol", "1e-12", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "converged"
        assert report["method"] == "mpni"
        assert report["eigenvalue"] == pytest.approx(0.7923, abs=5e-5)
        assert report["residual"] < 1e-12
        assert len(report["eigenvector"]) == 2

    def test_json_degenerate_pair(self, capsys, cubic3_path):
        code, out, _ = run_cli(
            capsys, "solve", "--method", "mpni", "--tensor", str(cubic3_path),
            "--x0", "0.98,0.01,0.01", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["eigenvalue"] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report["eigenvector"], [1.0, 0.0, 0.0], atol=1e-12)

    def test_trace_in_json(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--x0", "0.2,0.8",
            "--trace", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["trace"]) == report["iterations"] + 1
        assert report["trace"][0]["k"] == 0

    def test_csv_trace_columns(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--x0", "0.2,0.8",
            "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,lambda,lambda_hat,lambda_low,lambda_high,residual,flags"
        assert len(lines) >= 2

    def test_text_format(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--format", "text",
            "--no-timestamp",
        )
        assert code == 0
        assert "status:     converged" in out

    def test_newton_with_explicit_shift(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--method", "newton", "--tensor", str(quartic2_path),
            "--x0", "0.1875,0.8125", "--lambda0", "0.7921", "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["eigenvalue"] == pytest.approx(0.7923, abs=5e-5)

    def test_lambda0_rejected_for_other_methods(self, capsys, quartic2_path):
        for method in ("mni", "pni", "mpni"):
            code, out, err = run_cli(
                capsys, "solve", "--method", method, "--tensor", str(quartic2_path),
                "--lambda0", "5", "--no-timestamp",
            )
            assert (code, out) == (1, "")
            assert "--lambda0" in err

    def test_solver_failure_exit_code(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--x0", "0.2,0.8",
            "--max-iter", "0", "--no-timestamp",
        )
        assert code == 2
        assert json.loads(out)["status"] == "max_iter"

    def test_malformed_tensor_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.tns"
        bad.write_text("4 2\n1 1 1 1 1.1\n1 1 zap 2 0.25\n")
        code, _, err = run_cli(capsys, "solve", "--tensor", str(bad))
        assert code == 1
        assert "3" in err  # offending line number

    def test_bad_x0_rejected(self, capsys, quartic2_path):
        for spec in ("0.4,0.4", "0.5,0.2,0.3", "abc", "random:abc"):
            code, _, err = run_cli(
                capsys, "solve", "--tensor", str(quartic2_path), "--x0", spec
            )
            assert code == 1
            assert err.startswith("error:")
        # negative entries reach the validator via the = form
        code, _, err = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--x0=-0.5,1.5"
        )
        assert code == 1
        assert "positive" in err

    def test_bad_beta_rejected(self, capsys, quartic2_path):
        code, _, err = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--method", "pni", "--beta", "a,b"
        )
        assert code == 1
        assert "bad beta spec" in err

    def test_boundary_start_follows_the_solver_rule(self, capsys, quartic2_path):
        # mpni accepts a start on the boundary of the cone, mni needs x0 > 0
        argv = ("solve", "--tensor", str(quartic2_path), "--x0", "1,0", "--no-timestamp")
        code, out, _ = run_cli(capsys, *argv, "--method", "mpni")
        assert code == 0
        assert json.loads(out)["eigenvalue"] == pytest.approx(1.1, abs=1e-12)
        code, _, err = run_cli(capsys, *argv, "--method", "mni")
        assert code == 1
        assert "positive" in err

    def test_unknown_flag_exits_one(self, capsys, quartic2_path):
        code, _, err = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--frobnicate"
        )
        assert code == 1
        assert "error" in err

    def test_random_x0(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--x0", "random:5",
            "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["status"] == "converged"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--tensor", "no_such_file.tns")
        assert code == 1
        assert err.startswith("error:")


class TestSweep:
    def test_finds_three_pairs(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--tensor", str(quartic2_path), "--starts", "50",
            "--seed", "7", "--method", "mpni", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["eigenpairs"]) == 3
        lams = [p["eigenvalue"] for p in report["eigenpairs"]]
        assert lams == sorted(lams)

    def test_zero_starts_rejected(self, capsys, quartic2_path):
        code, _, err = run_cli(
            capsys, "sweep", "--tensor", str(quartic2_path), "--starts", "0"
        )
        assert code == 1
        assert "starts" in err

    def test_byte_identical_reruns(self, capsys, quartic2_path):
        argv = ("sweep", "--tensor", str(quartic2_path), "--starts", "12",
                "--seed", "3", "--no-timestamp")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timestamp_field_is_the_only_difference(self, capsys, quartic2_path):
        argv = ("sweep", "--tensor", str(quartic2_path), "--starts", "5", "--seed", "1")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_csv_format(self, capsys, quartic2_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--tensor", str(quartic2_path), "--starts", "10",
            "--seed", "7", "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eigenvalue,eigenvector,residual,start"
        assert len(lines) == 4


class TestCheck:
    def test_valid_tensor(self, capsys, quartic2_path, cubic3_path):
        code, out, _ = run_cli(capsys, "check", str(quartic2_path))
        assert code == 0
        assert "m=4 n=2 nnz=4" in out
        assert "ratio bounds" in out
        # the bounds are the interval an MPNI solve from the uniform vector starts at
        for path, name in ((quartic2_path, "quartic2"), (cubic3_path, "cubic3")):
            _, out, _ = run_cli(capsys, "check", str(path))
            with open(GOLDEN_DIR / f"solve_mpni_{name}.csv", newline="") as fh:
                start = next(csv.DictReader(fh))
            bounds = f"[{start['lambda_low']}, {start['lambda_high']}]"
            assert out.splitlines()[1] == f"ratio bounds at uniform x: {bounds}"

    def test_negative_value(self, capsys, tmp_path):
        bad = tmp_path / "neg.tns"
        bad.write_text("3 3\n2 1 3 -1\n")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert "invalid value" in err or "negative" in err.lower()

    def test_empty_file(self, capsys, tmp_path):
        bad = tmp_path / "empty.tns"
        bad.write_text("")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 1

    def test_jacobian_past_int32_cells(self, capsys, tmp_path):
        big = tmp_path / "big.tns"
        big.write_text("2 46341\n")
        code, out, err = run_cli(capsys, "check", str(big))
        assert code == 1 and out == ""
        assert err.startswith("error: need n^2 and (m-1) * nnz at most 2147483647")
        assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command", (["check"], ["solve", "--tensor"], ["sweep", "--starts", "2", "--tensor"])
)
def test_out_of_memory_is_an_error_not_a_traceback(capsys, monkeypatch, quartic2_path, command):
    # a T(x) too large to allocate (n = 46340 would need 16 GiB), without allocating it
    def no_memory(A, x):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape (2147488281,)")

    monkeypatch.setattr(zeigen.tensor, "_jacobian", no_memory)
    code, _, err = run_cli(capsys, *command, str(quartic2_path))
    assert code == 1
    assert err == "error: Unable to allocate 16.0 GiB for an array with shape (2147488281,)\n"


class TestNumberFormatting:
    def test_seventeen_significant_digits(self, capsys, quartic2_path):
        _, out, _ = run_cli(
            capsys, "solve", "--tensor", str(quartic2_path), "--x0", "0.2,0.8",
            "--no-timestamp",
        )
        # eigenvalue is printed with 17 significant digits and round-trips
        line = next(l for l in out.splitlines() if '"eigenvalue"' in l)
        literal = line.split(":")[1].strip().rstrip(",")
        mantissa = literal.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) >= 16
        assert float(literal) == json.loads(out)["eigenvalue"]


def test_solver_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    for argv in (["solve", "--tensor", "t.tns"], ["sweep", "--tensor", "t.tns", "--starts", "1"]):
        assert _config(parser.parse_args(argv)) == SolverConfig()
