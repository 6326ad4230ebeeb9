"""Self-test of the benchmark, at tiny sizes:

    python3 -m pytest benchmarks/check_benchmark.py

The file name keeps it out of the repository's own test collection; pass
the path explicitly.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import certify
import run
import zeigen

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

TINY = {
    "sweep_dense": lambda: run.Sweep(1, 3, 6, 0.3, starts=2, pass_len=3, setup_repeats=1),
    "sweep_sparse": lambda: run.Sweep(2, 3, 12, 0.01, starts=2, pass_len=3, setup_repeats=1),
    "family": lambda: run.Family(size=24, setup_repeats=1),
    "cli": lambda: run.Cli(sweep_starts=2, setup_repeats=1),
}

COUNT_UNITS = ("count", "iter", "1/step", "ratio", "flop", "B")


def printed_line(result, capsys) -> dict:
    run.report(result)
    out = capsys.readouterr().out.strip().splitlines()
    return {"text": out, "line": json.loads(out[-1])}


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, capsys):
    result = run.measure(name, 1, 0, trace, wl=TINY[name]())
    printed = printed_line(result, capsys)
    line = printed["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in line["metrics"].items()} == units
    for key, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]), key
        assert f"{key} = " in "\n".join(printed["text"])
    if not trace:
        assert all(line["metrics"][k]["value"] > 0 for k in run.END_TO_END)


def corrupt(report):
    """Move the eigenvector off the eigenpair, keeping it on the simplex."""
    x = report.final.x
    if x.size > 1:
        x = 0.5 * x + 0.5 * np.roll(x, 1)
        report.final = zeigen.Iterate(x=x, lam=report.final.lam,
                                      residual_norm=report.final.residual_norm)
    return report


def test_certificate_rejects_a_corrupted_eigenvector():
    coo = certify.read_tns(run.ROOT / run.FIXTURES[0])
    tensor = zeigen.load_tensor(run.ROOT / run.FIXTURES[0])
    report = zeigen.solve(tensor, np.full(coo.n, 1.0 / coo.n))
    assert report.converged
    x, lam = report.final.x, report.final.lam
    assert certify.check(coo, x, lam, run.TOL, "mpni") is None
    assert certify.check(coo, corrupt(report).final.x, lam, run.TOL, "mpni") is not None
    assert certify.check(coo, 2 * x, 2 * lam, run.TOL, "mpni") is not None
    negative = np.array([1.0 + 1e-3, -1e-3])
    assert certify.check(coo, negative, lam, 1e9, "mpni") is not None
    assert certify.check(coo, negative, lam, 1e9, "newton") is None


@pytest.mark.parametrize("name,module", [("family", zeigen), ("sweep_dense", zeigen.harness)])
def test_corrupted_results_count_as_failed_operations(name, module, monkeypatch):
    solve = zeigen.solve
    monkeypatch.setattr(module, "solve", lambda *a, **k: corrupt(solve(*a, **k)))
    result = run.measure(name, 1, 0, False, wl=TINY[name]())
    line = result["line"]
    assert not line["correct"]
    assert line["failed"] > 0
    assert line["failed"] == len(result["failures"])
    assert all("residual" in reason for reason in result["failures"])


def test_cli_output_that_fails_to_parse_or_exits_nonzero_is_a_failure():
    wl = TINY["cli"]()
    wl.setup(1)
    assert wl.judge(0, (0, "not json")).failure
    good = wl.call(0, in_process=True)
    assert wl.judge(0, good).failure is None
    assert wl.judge(0, (2, good[1])).failure
    doc = json.loads(good[1])
    doc["eigenvector"] = list(reversed(doc["eigenvector"]))
    assert wl.judge(0, (0, json.dumps(doc))).failure


def test_traced_counts_repeat_exactly():
    def counts():
        values = run.measure("family", 5, 0, True, wl=TINY["family"]())["line"]["metrics"]
        return {k: m["value"] for k, m in values.items() if m["unit"] in COUNT_UNITS}

    first = counts()
    assert first["tensor.apply.calls"] > 0
    assert first == counts()


def test_spans_rebind_every_importing_module():
    import zeigen.cli
    import zeigen.harness
    import zeigen.solvers

    import spans

    original = zeigen.tensor.apply
    with spans.Tracer() as tracer:
        for mod in (zeigen, zeigen.tensor, zeigen.solvers, zeigen.harness, zeigen.cli):
            assert mod.apply is not original
            assert mod.apply.__wrapped__ is original
        tensor = zeigen.build_tensor(2, 2, [((1, 1), 1.0), ((2, 2), 2.0)])
        zeigen.residual(tensor, np.array([0.5, 0.5]), 1.0)
    assert zeigen.solvers.apply is original
    names = [s[0] for s in tracer.spans]
    assert names == ["tensor.build_tensor", "tensor.residual", "tensor.apply"]
    residual, apply = tracer.spans[1], tracer.spans[2]
    assert apply[3] == 1  # parent is the residual span
    selfs = spans.self_times(tracer.spans)
    assert selfs[1] == pytest.approx((residual[2] - residual[1]) - (apply[2] - apply[1]))


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
