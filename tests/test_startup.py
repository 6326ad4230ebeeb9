"""The start-up path: ``zeigen`` loads scipy's LAPACK extension without the
``scipy.linalg`` package init, and that extension is the very one
``scipy.linalg.lapack`` re-exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from zeigen import linalg

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_skips_scipy_linalg():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = "import sys, zeigen.cli; print(*(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded


def test_routines_are_scipy_linalg_lapack_objects():
    import scipy.linalg

    for name in ("dgetrf", "dgecon", "dgetrs"):
        assert getattr(linalg.lapack, name) is getattr(scipy.linalg.lapack, name)


def _raise_import_error(*args):
    raise ImportError("cannot load the extension")


@pytest.mark.parametrize("name, value", [("EXTENSION_SUFFIXES", []),
                                         ("ExtensionFileLoader", _raise_import_error)],
                         ids=["no_file", "load_fails"])
def test_fallback_is_public_lapack(monkeypatch, name, value):
    import scipy.linalg.lapack

    monkeypatch.delitem(sys.modules, linalg._FLAPACK)
    monkeypatch.setattr(linalg, name, value)
    assert linalg._load_lapack() is scipy.linalg.lapack
