"""zeigen benchmark: closed-loop workloads, end-to-end metrics, and a
separate traced run for per-layer metrics.

    python3 benchmarks/run.py --workload family --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports zeigen from ``src/``.  Each
workload is one client in a closed loop: the next operation starts when the
previous one ends, with no extra threads and at most one child process at a
time.  The benchmark generates every input from ``--seed`` with its own RNG,
times only the calls into zeigen, and certifies each result it counts as
converged with its own contraction (``certify.py``).

Workloads (why each one is here):

``sweep_dense``
    one ``multi_start`` call (default mpni, 4 starts, a new seed per call)
    on a generated ``m=4, n=20``, density 0.3 tensor (48k nnz of 160k
    cells).  Kernel-bound: ``apply`` and ``jacobian_T`` dominate, and
    ``build_tensor``'s Python loop dominates set-up.
``sweep_sparse``
    the same on ``m=4, n=40``, density 0.002 (5k nnz of 2.56M cells).  The
    same kernels with ``n^m / nnz`` near 500, and the largest LU the library
    targets (order 41); a dense-storage switch that wins on ``sweep_dense``
    would lose here.
``family``
    one ``solve`` call.  A seeded family of small tensors (``m`` in 2..5,
    ``n`` in 1..6, density varied), each solved from a seeded simplex start
    with ``newton``, ``mni``, ``pni`` (beta 0.3) and ``mpni``.  Tiny
    kernels: solver-loop overhead, ``linalg`` calls and the slow, stagnating
    cases; also the paper's method comparison.
``cli``
    one ``python -m zeigen.cli`` process: ``solve`` on both fixtures with
    each method, and ``sweep`` on both fixtures.  Import- and startup-bound;
    the only workload that measures the ``cli`` layer.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from spans recorded around zeigen's public calls (``spans.py``) over
one traced set-up and the first traced pass of the workload.  The traced
run writes its spans to ``benchmarks/out/``.  Counts (calls, iterations,
statuses, per-step ratios) repeat exactly for a seed; times do not.

What each layer's metrics should move:

* ``tensor`` kernel self time: ``latency_p50_ms`` and ``ops_per_s`` on the
  sweeps, nothing on ``cli``; ``tensor.build_tensor.s``: ``setup_s`` on
  ``sweep_dense`` and ``family``.
* ``linalg``: ``latency_p50_ms`` on ``family`` and ``sweep_sparse``.
* ``solvers``: ``latency_p50_ms`` and ``latency_tail_ms`` on ``family``, and
  the converged fractions.
* ``harness.multi_start.s``: ``ops_per_s`` on the sweeps.
* ``cli``: ``latency_p50_ms`` on ``cli`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# The BLAS thread count is held fixed for the whole run, before numpy loads;
# child processes inherit it.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import certify  # noqa: E402
import spans as spanlib  # noqa: E402
import zeigen  # noqa: E402
import zeigen.cli  # noqa: E402

METHODS = ("newton", "mni", "pni", "mpni")
STATUSES = ("converged", "max_iter", "diverged", "perturbation_exhausted", "projection_empty")
PNI_BETA = 0.3
TOL = 1e-12
FIXTURES = ("fixtures/quartic_dim2.tns", "fixtures/cubic_dim3.tns")
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "converged_frac": "ratio",
}


KERNEL_SPANS = ("tensor.apply", "tensor.jacobian_T")
# each of these factors one matrix
FACTOR_SPANS = ("linalg.solve_bordered", "linalg.solve_shifted", "linalg.shift_rcond",
                "linalg.bordered_rcond")
# spans reported by call count and self time
COUNTED_SPANS = KERNEL_SPANS + ("tensor.residual", "tensor.ratio_bounds") + FACTOR_SPANS + (
    "linalg.ensure_bordered_nonsingular",)
# spans reported by total duration
TOTAL_SPANS = ("tensor.build_tensor", "tensor.load_tensor", "harness.multi_start",
               "harness.dedup")
LAYERS = ("tensor", "linalg", "solvers", "harness", "cli")


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in COUNTED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in TOTAL_SPANS:
        units[f"{name}.s"] = "s"
    units["tensor.kernel_flops"] = "flop"
    units["tensor.kernel_bytes"] = "B"
    units["linalg.factorizations"] = "count"
    units["linalg.perturbed_frac"] = "ratio"
    for method in METHODS:
        p = f"solvers.{method}"
        units[f"{p}.self_s"] = "s"
        units[f"{p}.iterations_p50"] = "iter"
        units[f"{p}.iterations_tail"] = "iter"
        for status in STATUSES:
            units[f"{p}.status.{status}"] = "count"
        units[f"{p}.step_us"] = "us"
        units[f"{p}.kernel_calls_per_step"] = "1/step"
        units[f"{p}.factorizations_per_step"] = "1/step"
        units[f"converged_frac.{method}"] = "ratio"
    units["harness.distinct_pairs"] = "count"
    for name in ("interp_startup_s", "import_s", "main_s", "process_s"):
        units[f"cli.{name}"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = per_layer_units()


# --------------------------------------------------------------------------
# inputs


def random_coo(rng: np.random.Generator, m: int, n: int, density: float) -> certify.Coo:
    """``ceil(density * n^m)`` distinct cells, values uniform on (0, 1]."""
    total = n**m
    count = max(1, min(total, math.ceil(density * total)))
    flat = rng.choice(total, size=count, replace=False)
    idx = np.stack(np.unravel_index(flat, (n,) * m), axis=1).astype(np.int64)
    values = 1.0 - rng.random(count)
    return certify.Coo(m=m, n=n, idx=idx, values=values)


def simplex_point(rng: np.random.Generator, n: int) -> np.ndarray:
    draw = rng.standard_exponential(n) + 1e-300
    return draw / draw.sum()


# --------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    """One operation: its method, ``(status, iterations)`` per solve, and
    why it failed, if it did.  ``converged`` is only recorded for a
    certified result."""

    method: str
    results: list[tuple[str, int | None]] = field(default_factory=list)
    failure: str | None = None


class Sweep:
    """One ``multi_start`` call per operation on one generated tensor."""

    in_process = True

    def __init__(self, tag: int, m: int, n: int, density: float, starts: int = 4,
                 pass_len: int = 20, setup_repeats: int = 3):
        self.tag, self.m, self.n, self.density = tag, m, n, density
        self.starts, self.pass_len, self.setup_repeats = starts, pass_len, setup_repeats
        # Short passes fill the run; a run holds at least two of them.
        self.tail_window = 2 * pass_len

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.coo = random_coo(np.random.default_rng([seed, self.tag]), self.m, self.n, self.density)
        self.tensor = zeigen.build_tensor(self.m, self.n, self.coo.entries())

    def call(self, i: int, in_process: bool):
        return zeigen.multi_start(self.tensor, self.starts, self.seed * 100_000 + i)

    def judge(self, i: int, result) -> Outcome:
        out = Outcome("mpni")
        for pair in result:
            reason = certify.check(self.coo, pair.x, pair.lam, TOL, pair.method)
            if reason:
                out.failure = f"sweep seed {self.seed * 100_000 + i}: {reason}"
        converged = self.starts - len(result.failures)
        ok = "certificate_failed" if out.failure else "converged"
        out.results = [(ok, None)] * converged + [(f.status, None) for f in result.failures]
        return out


class Family:
    """One ``solve`` call per operation over a seeded family of tensors.

    The family is stratified so that its make-up does not depend on the
    seed: tensor ``t`` has ``m = 2 + t % 4`` and ``n = 1 + (t // 4) % 6``,
    and the tensors of each ``(m, n)`` cell spread evenly over densities
    0.05 to 0.5.  The seed draws the entries, the densities within their
    slots, the starts and the order of the pass.
    """

    in_process = True

    def __init__(self, size: int = 960, setup_repeats: int = 3):
        self.size, self.setup_repeats = size, setup_repeats
        self.pass_len = size * len(METHODS)
        # Which tensors stagnate depends on the seed, so the extreme tail of
        # one pass (10 of 3840) moves by half between seeds; p95 holds.
        self.tail_window = 200

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        cells = 4 * 6
        slots = -(-self.size // cells)
        self.members = []
        for t in range(self.size):
            m, n = 2 + t % 4, 1 + (t // 4) % 6
            density = 0.05 + 0.45 * (t // cells + rng.random()) / slots
            coo = random_coo(rng, m, n, density)
            x0 = simplex_point(rng, n)
            self.members.append((coo, zeigen.build_tensor(m, n, coo.entries()), x0))
        self.members = [self.members[j] for j in rng.permutation(self.size)]
        self.configs = {
            method: zeigen.SolverConfig(
                method=method, tol=TOL, beta_schedule=(PNI_BETA,) if method == "pni" else None
            )
            for method in METHODS
        }

    def _op(self, i: int):
        member = self.members[(i // len(METHODS)) % self.size]
        return member, METHODS[i % len(METHODS)]

    def call(self, i: int, in_process: bool):
        (_, tensor, x0), method = self._op(i)
        return zeigen.solve(tensor, x0, self.configs[method])

    def judge(self, i: int, report) -> Outcome:
        (coo, _, _), method = self._op(i)
        out = Outcome(method)
        status = report.status
        if report.converged:
            reason = certify.check(coo, report.final.x, report.final.lam, TOL, method)
            if reason:
                out.failure = f"family op {i} ({method}): {reason}"
                status = "certificate_failed"
        out.results = [(status, report.iterations)]
        return out


class Cli:
    """One ``zeigen`` process per operation (or, in the traced run, one
    in-process ``zeigen.cli.main`` call with stdout captured)."""

    in_process = False

    def __init__(self, sweep_starts: int = 8, setup_repeats: int = 5):
        self.sweep_starts, self.setup_repeats = sweep_starts, setup_repeats
        # A run holds about 30 processes: too few for a tail past the median.
        self.tail_window = 20

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        self.coos = {path: certify.read_tns(ROOT / path) for path in FIXTURES}
        self.commands = []
        for path, coo in self.coos.items():
            for method in METHODS:
                x0 = ",".join(repr(float(v)) for v in simplex_point(rng, coo.n))
                argv = ["solve", "--tensor", path, "--method", method, "--x0", x0]
                if method == "pni":
                    argv += ["--beta", str(PNI_BETA)]
                self.commands.append((path, method, argv + ["--no-timestamp"]))
        for path in FIXTURES:
            argv = ["sweep", "--tensor", path, "--starts", str(self.sweep_starts),
                    "--seed", str(int(rng.integers(1 << 30))), "--no-timestamp"]
            self.commands.append((path, "mpni", argv))
        self.pass_len = len(self.commands)
        # validating the inputs with the program also warms the file cache
        probe = run_zeigen(["check", FIXTURES[0]])
        if probe.returncode != 0:
            raise RuntimeError(f"zeigen check failed: {probe.stderr}")

    def call(self, i: int, in_process: bool):
        argv = self.commands[i % self.pass_len][2]
        if not in_process:
            proc = run_zeigen(argv)
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = zeigen.cli.main(argv)
        return code, buf.getvalue()

    def judge(self, i: int, raw) -> Outcome:
        path, method, argv = self.commands[i % self.pass_len]
        code, text = raw
        coo = self.coos[path]
        out = Outcome(method)
        label = " ".join(argv[:5])
        sweep = argv[0] == "sweep"
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if code != 0 or not isinstance(doc, dict):
            out.failure = f"{label}: exit {code}, output {'parsed' if doc else 'unparsable'}"
            out.results = [("error", None)] * (self.sweep_starts if sweep else 1)
            return out
        pairs = doc.get("eigenpairs", []) if sweep else [doc]
        for pair in pairs:
            if sweep or pair.get("status") == "converged":
                reason = certify.check(coo, pair.get("eigenvector"), pair.get("eigenvalue"), TOL,
                                       method)
                if reason:
                    out.failure = f"{label}: {reason}"
        if not sweep:
            status = "certificate_failed" if out.failure else doc.get("status")
            out.results = [(status, doc.get("iterations"))]
            return out
        failures = doc.get("failures", [])
        ok = "certificate_failed" if out.failure else "converged"
        out.results = [(ok, None)] * (self.sweep_starts - len(failures))
        out.results += [(f.get("status"), None) for f in failures]
        return out


def run_zeigen(argv) -> subprocess.CompletedProcess:
    return python_child(["-m", "zeigen.cli", *argv])


def python_child(args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def make_workload(name: str):
    if name == "sweep_dense":
        return Sweep(1, 4, 20, 0.3, setup_repeats=5)
    if name == "sweep_sparse":
        return Sweep(2, 4, 40, 0.002, setup_repeats=11)
    if name == "family":
        return Family()
    return Cli()


WORKLOADS = ("sweep_dense", "sweep_sparse", "family", "cli")


# --------------------------------------------------------------------------
# measurement


def tail(values, window: int | None = None) -> tuple[float, float]:
    """The percentile with ``TAIL_BEYOND`` of every ``window`` samples
    beyond it (never below the median), over all of ``values``; returns
    ``(value, percentile)``.

    With ``window`` equal to the sample count this is the highest
    percentile that has at least ``TAIL_BEYOND`` samples beyond it.  Each
    workload fixes ``window`` below the operations a run makes, so the
    percentile does not move with the speed of the program.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0, 0.0
    share = max(0.5, 1.0 - TAIL_BEYOND / (window or n))
    k = min(n - 1, max(n // 2, math.ceil(share * n) - 1))
    return float(s[k]), 100.0 * share


@dataclass
class Record:
    i: int
    seconds: float
    outcome: Outcome


def drive(wl, seconds: float, in_process: bool, before=None, after=None) -> list[Record]:
    """Closed loop from operation 0 over whole passes: one pass, then
    another while the mean pass time says it ends within ``seconds``.
    Every pass runs the same operations, so the mix does not depend on
    speed.  Only the call into zeigen is timed."""
    records: list[Record] = []
    start = time.perf_counter()
    i = 0
    while True:
        if before:
            before(i)
        t0 = time.perf_counter()
        try:
            raw = wl.call(i, in_process)
            dt = time.perf_counter() - t0
            outcome = wl.judge(i, raw)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome("?", [("error", None)], failure=f"op {i}: {exc!r}")
        if after:
            after(i)
        records.append(Record(i, dt, outcome))
        i += 1
        if i % wl.pass_len == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + wl.pass_len / i) > seconds:
                return records


def first_pass(wl, records: list[Record]) -> list[Record]:
    return [r for r in records if r.i < wl.pass_len]


def converged_frac(records, method: str | None = None) -> float:
    rows = [s for r in records for s, _ in r.outcome.results
            if method is None or r.outcome.method == method]
    return sum(s == "converged" for s in rows) / len(rows) if rows else 0.0


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timed_setups(wl, seed: int) -> list[float]:
    times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def warm_up(wl, in_process: bool) -> None:
    """One untimed operation, so lazy loading finishes before timing."""
    wl.judge(0, wl.call(0, in_process))


def end_to_end(wl, seed: int, seconds: float) -> dict:
    setups = timed_setups(wl, seed)
    warm_up(wl, wl.in_process)
    records = drive(wl, seconds, wl.in_process)
    lat = [r.seconds for r in records]
    tail_s, pct = tail(lat, wl.tail_window)
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    # a sweep start, a family solve, or a cli process
    if wl.in_process:
        solves = sum(len(r.outcome.results) for r in records)
    else:
        solves = len(records)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": solves / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "converged_frac": converged_frac(first_pass(wl, records)),
    }
    notes = [
        f"latency_tail_ms is p{pct:.2f} ({TAIL_BEYOND} of every {wl.tail_window} beyond it) "
        f"of {len(lat)} operations in {len(lat) // wl.pass_len} passes",
        f"setup_s is the median of {len(setups)} set-ups",
        f"ops_per_s counts {solves} solves in {len(records)} operations "
        f"({sum(lat):.3f} s in zeigen)",
    ]
    notes += quality_table(wl, records)
    return {"records": records, "values": values, "units": END_TO_END, "notes": notes}


def quality_table(wl, records: list[Record]) -> list[str]:
    """Per method, over the first pass: certified-converged fraction,
    iterations and status histogram next to latency."""
    methods = sorted({r.outcome.method for r in records}, key=lambda m: (m not in METHODS, m))
    head = f"{'method':8} {'solves':>6} {'conv':>7} {'it_p50':>6} {'it_tail':>7} " \
           f"{'lat_p50_ms':>10} {'lat_tail_ms':>11}  statuses"
    lines = ["quality (first pass):", head]
    first = first_pass(wl, records)
    for method in methods:
        rows = [row for r in first if r.outcome.method == method for row in r.outcome.results]
        iters = [it for _, it in rows if it is not None]
        lat = [r.seconds for r in first if r.outcome.method == method]
        hist: dict[str, int] = {}
        for status, _ in rows:
            hist[status] = hist.get(status, 0) + 1
        it_p50 = f"{statistics.median(iters):g}" if iters else "-"
        it_tail = f"{tail(iters)[0]:g}" if iters else "-"
        lines.append(
            f"{method:8} {len(rows):6d} {converged_frac(first, method):7.4f} {it_p50:>6} "
            f"{it_tail:>7} {1e3 * statistics.median(lat):10.3f} {1e3 * tail(lat)[0]:11.3f}  "
            + " ".join(f"{k}={v}" for k, v in sorted(hist.items()))
        )
    return lines


def traced(wl, name: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: an untraced and a traced phase of ``seconds / 2``
    each, per-layer numbers from one traced set-up plus the first traced
    pass, and the tracing overhead between the two phases."""
    timed_setups(wl, seed)
    with spanlib.Tracer() as tracer:
        wl.setup(seed)
    warm_up(wl, True)
    plain = drive(wl, seconds / 2, True)
    window_end = len(tracer.spans)

    def before(i):
        tracer.request = i

    def after(i):
        nonlocal window_end
        if i == wl.pass_len - 1:
            window_end = len(tracer.spans)
        elif i >= wl.pass_len:
            tracer.drop_after(window_end)

    with tracer:
        records = drive(wl, seconds / 2, True, before, after)
    spans = tracer.spans[:window_end]
    values = layer_metrics(spans, first_pass(wl, records))
    p50_plain = statistics.median(r.seconds for r in plain)
    p50_traced = statistics.median(r.seconds for r in records)
    values["trace.overhead_pct"] = 100.0 * (p50_traced / p50_plain - 1.0)
    notes = [f"tracing overhead: median operation {1e3 * p50_plain:.3f} ms untraced, "
             f"{1e3 * p50_traced:.3f} ms traced"]
    if not wl.in_process:
        values["cli.main_s"] = p50_plain
        cli_probes(wl, values, records)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.csv"
    spanlib.write_csv(spans, path)
    notes.append(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    return {"records": plain + records, "values": values, "units": PER_LAYER, "notes": notes}


def cli_probes(wl, values: dict, records: list[Record]) -> None:
    """Startup, import and whole-process times of the ``cli`` layer; the
    process pass is certified like any other operation."""
    def median_child(args, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            proc = python_child(args)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"python {' '.join(args)} failed: {proc.stderr}")
        return statistics.median(times)

    startup = median_child(["-c", "pass"])
    values["cli.interp_startup_s"] = startup
    values["cli.import_s"] = median_child(["-c", "import zeigen"]) - startup
    procs = []
    for i in range(wl.pass_len):
        t0 = time.perf_counter()
        raw = wl.call(i, in_process=False)
        procs.append(time.perf_counter() - t0)
        records.append(Record(i, procs[-1], wl.judge(i, raw)))
    values["cli.process_s"] = statistics.median(procs)


def layer_metrics(spans, first: list[Record]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced window and the
    outcomes of the first pass; what a workload does not exercise reads 0."""
    rows = spanlib.by_name(spans)
    v = {name: 0.0 for name in PER_LAYER}
    for name in COUNTED_SPANS:
        v[f"{name}.calls"] = rows[name]["calls"]
        v[f"{name}.self_s"] = rows[name]["self_s"]
    for name in TOTAL_SPANS:
        v[f"{name}.s"] = rows[name]["s"]
    v["linalg.factorizations"] = sum(rows[name]["calls"] for name in FACTOR_SPANS)
    ensure = [s for s in spans if s[0] == "linalg.ensure_bordered_nonsingular"]
    if ensure:
        v["linalg.perturbed_frac"] = sum(1 for s in ensure if s[5]) / len(ensure)

    flops = nbytes = 0
    for name, _, _, _, _, extra in spans:
        if name == "tensor.apply" and extra:
            nnz, m, n = extra
            flops += nnz * m  # m-1 multiplies and one add per entry
            nbytes += 8 * (nnz * 2 * m + n)  # values, m indices, m-1 gathers; output
        elif name == "tensor.jacobian_T" and extra:
            nnz, m, n = extra
            flops += (m - 1) * nnz * (m - 1)  # per position: m-2 multiplies, one add
            nbytes += 8 * ((m - 1) * nnz * (2 * m - 1) + n * n)
    v["tensor.kernel_flops"] = flops
    v["tensor.kernel_bytes"] = nbytes

    selfs = spanlib.self_times(spans)
    owner = spanlib.solve_owner(spans)
    per = {m: {"self": 0.0, "s": 0.0, "iters": [], "kernels": 0, "factors": 0,
               "status": dict.fromkeys(STATUSES, 0)} for m in METHODS}
    for i, span in enumerate(spans):
        if owner[i] < 0 or spans[owner[i]][5] is None:
            continue
        acc = per[spans[owner[i]][5][0]]
        if span[0] == "solvers.solve":
            _, status, iterations = span[5]
            acc["self"] += selfs[i]
            acc["s"] += span[2] - span[1]
            acc["iters"].append(iterations)
            acc["status"][status] = acc["status"].get(status, 0) + 1
        elif span[0] in KERNEL_SPANS:
            acc["kernels"] += 1
        elif span[0] in FACTOR_SPANS:
            acc["factors"] += 1
    for method, acc in per.items():
        p = f"solvers.{method}"
        steps = sum(acc["iters"])
        v[f"{p}.self_s"] = acc["self"]
        if acc["iters"]:
            v[f"{p}.iterations_p50"] = statistics.median(acc["iters"])
            v[f"{p}.iterations_tail"] = tail(acc["iters"])[0]
        for status in STATUSES:
            v[f"{p}.status.{status}"] = acc["status"][status]
        if steps:
            v[f"{p}.step_us"] = 1e6 * acc["s"] / steps
            v[f"{p}.kernel_calls_per_step"] = acc["kernels"] / steps
            v[f"{p}.factorizations_per_step"] = acc["factors"] / steps
        v[f"converged_frac.{method}"] = converged_frac(first, method)

    v["harness.distinct_pairs"] = sum(
        s[5] for s in spans if s[0] == "harness.multi_start" and s[5]
    )
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(
            own for span, own in zip(spans, selfs) if span[0].startswith(layer + ".")
        )
    v["trace.spans"] = len(spans)
    return v


def measure(name: str, seed: int, seconds: float, trace: bool, wl=None) -> dict:
    """Run one workload and return its result line, notes and records."""
    wl = wl or make_workload(name)
    body = traced(wl, name, seed, seconds) if trace else end_to_end(wl, seed, seconds)
    records = body["records"]
    failures = [r.outcome.failure for r in records if r.outcome.failure]
    metrics = {
        key: {"value": float(body["values"][key]), "unit": unit}
        for key, unit in body["units"].items()
    }
    line = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"line": line, "notes": body["notes"], "failures": failures, "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("machine: " + json.dumps(machine_record(args.seed)))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


def report(result: dict) -> None:
    """Print the notes, failures and metrics; the result line comes last."""
    for note in result["notes"]:
        print(note)
    for reason in result["failures"][:20]:
        print(f"FAILED: {reason}")
    for key, metric in result["line"]["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result["line"]))


if __name__ == "__main__":
    sys.exit(main())
