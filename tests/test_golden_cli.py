"""Byte-for-byte golden outputs of ``zeigen solve`` and ``zeigen sweep``.

Every case runs the CLI in-process with ``--no-timestamp`` and compares
its standard output with a file under ``tests/golden/``.  Any change in
any float of any iterate, in a flag or in a status shows up here, so a
change meant to be behaviour-preserving (a faster kernel, a reused
factorization) must leave every file untouched.

One MPNI ``--trace`` case also runs as ``python -m zeigen.cli`` in a fresh
interpreter.  It is the one place where the LAPACK extension that
``zeigen.linalg`` loads directly does the arithmetic with ``scipy.linalg``
never imported.

After a deliberate behaviour change, rewrite the files with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zeigen.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES = {"quartic2": "fixtures/quartic_dim2.tns", "cubic3": "fixtures/cubic_dim3.tns"}
METHODS = {"newton": (), "mni": (), "pni": ("--beta", "0.3"), "mpni": ()}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fixture, path in FIXTURES.items():
        tensor = str(ROOT / path)
        for method, extra in METHODS.items():
            solve = ["solve", "--method", method, *extra, "--tensor", tensor, "--no-timestamp"]
            cases[f"solve_{method}_{fixture}.json"] = solve + ["--trace"]
            cases[f"solve_{method}_{fixture}.csv"] = solve + ["--format", "csv"]
        cases[f"sweep_{fixture}.json"] = [
            "sweep", "--tensor", tensor, "--starts", "30", "--seed", "7", "--no-timestamp",
        ]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert _run(CASES[name]) == expected


@pytest.mark.parametrize("name", ["solve_mpni_cubic3.json"])
def test_cli_process_matches_golden(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "zeigen.cli", *CASES[name]],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, check=True)
    assert proc.stdout == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_text(_run(argv), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
