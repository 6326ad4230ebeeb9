"""Byte-for-byte golden outputs of ``zeigen solve`` and ``zeigen sweep``.

Every case runs the CLI in-process with ``--no-timestamp`` and compares
its standard output with a file under ``tests/golden/``.  Any change in
any float of any iterate, in a flag or in a status shows up here, so a
change meant to be behaviour-preserving (a faster kernel, a reused
factorization) must leave every file untouched.

The cases cover every renderer: ``solve`` in JSON with and without
``--trace``, in CSV, and in text with and without ``--trace`` for all four
methods on both fixtures, and ``sweep`` in all three formats.  The
nilpotent input ``tests/golden/nilpotent_dim3.tns`` adds failed runs: from
the uniform start ``newton``, ``mni`` and ``pni`` end
``perturbation_exhausted``, so their reports carry a failure reason, while
``mpni`` converges.  PNI runs with ``--beta 0.3``, so its reports carry a
note.

One MPNI ``--trace`` case also runs as ``python -m zeigen.cli`` in a fresh
interpreter.  It is the one place where the LAPACK extension that
``zeigen.linalg`` loads directly does the arithmetic with ``scipy.linalg``
never imported.  It runs once more in a fresh interpreter that imports
``scipy.linalg`` and ``scipy.sparse`` first, where ``zeigen.linalg`` must
reuse the extensions those packages loaded.

``PYTHONPATH=src python tests/test_golden_cli.py --diff`` compares every
case with the tree's output and writes nothing: it names each file that
differs with its first differing line, and exits 1 if any does.  After a
deliberate behaviour change, rewrite the files with
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
NILPOTENT = "tests/golden/nilpotent_dim3.tns"
METHODS = {"newton": (), "mni": (), "pni": ("--beta", "0.3"), "mpni": ()}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fixture, path in FIXTURES.items():
        tensor = str(ROOT / path)
        for method, extra in METHODS.items():
            solve = ["solve", "--method", method, *extra, "--tensor", tensor, "--no-timestamp"]
            cases[f"solve_{method}_{fixture}.json"] = solve + ["--trace"]
            cases[f"solve_{method}_{fixture}_notrace.json"] = solve
            cases[f"solve_{method}_{fixture}.csv"] = solve + ["--format", "csv"]
            cases[f"solve_{method}_{fixture}.txt"] = solve + ["--format", "text"]
            cases[f"solve_{method}_{fixture}_trace.txt"] = solve + ["--format", "text", "--trace"]
        sweep = ["sweep", "--tensor", tensor, "--starts", "30", "--seed", "7", "--no-timestamp"]
        cases[f"sweep_{fixture}.json"] = sweep
        cases[f"sweep_{fixture}.csv"] = sweep + ["--format", "csv"]
        cases[f"sweep_{fixture}.txt"] = sweep + ["--format", "text"]
    for method, extra in METHODS.items():
        solve = ["solve", "--method", method, *extra, "--tensor", str(ROOT / NILPOTENT),
                 "--no-timestamp"]
        cases[f"solve_{method}_nilpotent3_notrace.json"] = solve
        cases[f"solve_{method}_nilpotent3.txt"] = solve + ["--format", "text"]
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


# Imports scipy's packages first, so zeigen.linalg takes the extensions they
# loaded from sys.modules, checks that it did, then runs the CLI.  Executing a
# loaded extension's file again hands back the same module, so the spy on the
# loader is what tells reuse from a second load.
SCIPY_FIRST = """\
import sys
from importlib.machinery import ExtensionFileLoader
import scipy.linalg, scipy.sparse
flapack, sparsetools = sys.modules["scipy.linalg._flapack"], scipy.sparse._sparsetools
loaded, exec_module = [], ExtensionFileLoader.exec_module
ExtensionFileLoader.exec_module = lambda self, module: loaded.append(self.name) or exec_module(self, module)
from zeigen import linalg
from zeigen.cli import main
assert linalg.lapack is flapack, linalg.lapack
assert linalg.csr_matvec is sparsetools.csr_matvec, linalg.csr_matvec
assert not [name for name in loaded if name.startswith("scipy.")], loaded
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "name, entry",
    [
        pytest.param("solve_mpni_cubic3.json", ["-m", "zeigen.cli"], id="solve_mpni_cubic3.json"),
        pytest.param("solve_mpni_cubic3.json", ["-c", SCIPY_FIRST],
                     id="solve_mpni_cubic3.json-scipy_loaded_first"),
    ],
)
def test_cli_process_matches_golden(name, entry):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *entry, *CASES[name]],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN_DIR / name).read_bytes()


def _first_difference(expected: str, actual: str) -> str:
    """Where ``actual`` first departs from ``expected``, as
    ``line N: <expected line> -> <actual line>`` (``<end>`` past the end)."""
    old, new = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    for line in range(1, max(len(old), len(new)) + 1):
        a = old[line - 1] if line <= len(old) else "<end>"
        b = new[line - 1] if line <= len(new) else "<end>"
        if a != b:
            return f"line {line}: {a!r} -> {b!r}"
    return "identical"


def test_first_difference_names_the_line():
    assert _first_difference("a\nb\n", "a\nb\n") == "identical"
    assert _first_difference("a\nb\n", "a\nc\n") == "line 2: 'b\\n' -> 'c\\n'"
    assert _first_difference("a\nb\n", "a\n") == "line 2: 'b\\n' -> '<end>'"
    assert _first_difference("a\nb", "a\nb\n") == "line 2: 'b' -> 'b\\n'"


def _diff() -> int:
    """Print each golden file the tree's output departs from; 1 if any."""
    differing = 0
    for name, argv in CASES.items():
        path = GOLDEN_DIR / name
        actual = _run(argv)
        where = _first_difference(path.read_text(encoding="utf-8"), actual) \
            if path.exists() else "missing"
        if where != "identical":
            differing += 1
            print(f"{path.relative_to(ROOT)}: {where}")
    print(f"{differing} of {len(CASES)} golden files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(_diff())
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_text(_run(argv), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
