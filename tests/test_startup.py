"""The start-up path: ``zeigen`` loads scipy's LAPACK extension and its
sparse-tools extension without the ``scipy.linalg`` and ``scipy.sparse``
package inits, and those extensions are the very ones the packages use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zeigen import linalg

SRC = Path(__file__).resolve().parent.parent / "src"

# (package, extension, the module the loader falls back to)
EXTENSIONS = [("linalg", "_flapack", "scipy.linalg.lapack"),
              ("sparse", "_sparsetools", "scipy.sparse._sparsetools")]


def test_cli_import_skips_scipy_linalg():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = "import sys, zeigen.cli; print(*(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.sparse._sparsetools" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.sparse" not in loaded


def test_routines_are_scipy_linalg_lapack_objects():
    import scipy.linalg

    for name in ("dgecon", "dgesv", "dlange"):
        assert getattr(linalg.lapack, name) is getattr(scipy.linalg.lapack, name)


def test_csr_matvec_is_the_scipy_sparsetools_object():
    import scipy.sparse  # noqa: F401  (the package init imports its _sparsetools)

    assert linalg.csr_matvec is importlib.import_module("scipy.sparse._sparsetools").csr_matvec


def _raise_import_error(*args):
    raise ImportError("cannot load the extension")


@pytest.mark.parametrize("name, value", [("EXTENSION_SUFFIXES", []),
                                         ("ExtensionFileLoader", _raise_import_error)],
                         ids=["no_file", "load_fails"])
def test_fallback_is_public_lapack(monkeypatch, name, value):
    monkeypatch.setattr(linalg, name, value)
    for package, extension, fallback in EXTENSIONS:
        monkeypatch.delitem(sys.modules, f"scipy.{package}.{extension}")
        module = linalg._load_extension(package, extension, fallback)
        assert module is importlib.import_module(fallback)
