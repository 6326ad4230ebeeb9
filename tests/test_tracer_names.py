"""Names the benchmark's span tracer, ``benchmarks/spans.py``, needs from
``src/``.

``benchmarks/run.py --trace 1`` looks up each ``TRACED`` function in its
home module and wraps it by rebinding the name in every zeigen module that
holds it.  Its own self-test, ``benchmarks/check_benchmark.py``, runs
outside this suite, so this guard keeps a change to ``src/`` from dropping
a name the tracer needs unnoticed.  It loads ``spans.py`` from its file and
changes nothing there; it goes when the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import zeigen
import zeigen.cli
import zeigen.harness
import zeigen.solvers
import zeigen.tensor

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_traced_name_resolves_and_apply_is_bound_where_the_tracer_checks_it():
    spec = importlib.util.spec_from_file_location("spans_read_only", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (home, attr, _) in spans.TRACED.items()
               if not callable(getattr(importlib.import_module(home), attr, None))]
    assert missing == []
    # the modules in which check_benchmark.py asserts that apply is rebound
    for module in (zeigen, zeigen.solvers, zeigen.harness, zeigen.cli):
        assert module.apply is zeigen.tensor.apply, module.__name__
