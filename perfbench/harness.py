"""Shared plumbing for the benchmark workloads.

Everything here measures the repro package from outside: it imports
the package from the checkout's ``src/`` tree, times calls into its
public functions, and checks their outputs against the digests pinned
in ``golden.json``.  Spans reuse :class:`repro.service.telemetry.Tracer`
(no second telemetry system); layers without a public boundary are
measured by cProfile self time, summed per ``repro.<module>``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import itertools
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: scratch space for run records and artifact caches; users remove theirs
WORK_DIR = ROOT / ".perfbench-work"

#: the four execution models of the paper's Figure 5/6 comparison
MODELS = ("mat2c", "nogctd", "mcc", "interp")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing source tree, bad args)."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro source tree under {SRC}")
    if not (ROOT / "examples" / "mfiles").is_dir():
        raise BenchmarkError("no benchmark M-files under examples/mfiles")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0–100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def mean(values) -> float:
    return statistics.fmean(values)


def summary(values) -> dict:
    """Median and quartiles the way the acceptance check computes them."""
    vals = list(values)
    if len(vals) >= 2:
        q1, q2, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q2 = q3 = vals[0]
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}


# -- host speed ------------------------------------------------------------

#: loop iterations in one reference unit (about 3 ms on the reference
#: machine)
REFERENCE_ITERATIONS = 600
#: seconds between two timings of the reference unit
REFERENCE_EVERY_S = 0.5


class _Probe:
    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


def _reference_unit() -> float:
    """A fixed slice of work shaped like the package's own: Python
    calls, objects, dict and list traffic, and small numpy arrays.  Uses
    no repro code, so no change to the package can change its time."""
    import numpy

    base = numpy.arange(16.0)
    table: dict[int, _Probe] = {}
    items = []
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        probe = _Probe(base * 0.5 + i)
        table[i % 97] = probe
        items.append((i, probe))
        total += float(probe.value[i & 15]) + len(table)
    return total + len(sorted(items, key=lambda item: -item[0]))


class HostSpeed:
    """Times the reference unit between a workload's operations.

    The reference machine (2 vCPUs of a shared VM) runs all code up to
    1.7x slower for minutes at a time when its neighbours are busy, so
    a wall time alone says as much about them as about the package.
    Each operation's wall time divided by the reference unit's time
    around it counts the operation in reference units, which such
    phases move far less.  The wall time still includes everything the
    operation waited on.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self._sample()

    def _sample(self) -> None:
        times = []
        # a collection of the workload's garbage is not machine speed
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                start = time.perf_counter()
                _reference_unit()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()

    def unit_seconds(self) -> float:
        """The reference unit's time now, re-timed when it is stale."""
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self._sample()
        return self.samples[-1]

    @contextmanager
    def timed(self):
        """Time the block: its wall seconds, and those in reference
        units (against the unit's time before and after the block)."""
        timing = Timing()
        before = self.unit_seconds()
        start = time.perf_counter()
        yield timing
        timing.wall = time.perf_counter() - start
        timing.units = timing.wall * 2.0 / (before + self.unit_seconds())


@dataclass(slots=True)
class Timing:
    wall: float = 0.0
    units: float = 0.0


# -- spans ---------------------------------------------------------------


class Spans:
    """Benchmark-side spans recorded through a repro ``Tracer``.

    Each span keeps its id, parent id, start offset and request id in
    the ``details`` of the Tracer's record, so one request's spans can
    be stitched together afterwards.  Passing the same ``tracer`` into
    ``compile_program`` puts the pipeline's own pass spans in the same
    list.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._origin = time.perf_counter()
        self._ids = itertools.count()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str | int | None = None):
        stack = self._stack
        span_id = next(self._ids)
        details = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "start": time.perf_counter() - self._origin,
            "request": request,
        }
        stack.append(span_id)
        try:
            with self.tracer.span(name) as record:
                record.details.update(details)
                yield record
        finally:
            stack.pop()

    def records(self, name: str) -> list:
        return [p for p in self.tracer.passes if p.name == name]

    def total(self, name: str) -> float:
        return sum(p.wall_seconds for p in self.records(name))


class _Detached:
    __slots__ = ("details",)

    def __init__(self) -> None:
        self.details: dict = {}


class NullSpans:
    """Stand-in for :class:`Spans` in untraced runs: records nothing."""

    tracer = None

    @contextmanager
    def span(self, name: str, request: str | int | None = None):
        yield _Detached()


NO_SPANS = NullSpans()


def new_spans() -> Spans:
    from repro.service.telemetry import Tracer

    return Spans(Tracer(label="perfbench"))


# -- set-up and memory -----------------------------------------------------

_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.service.telemetry, repro.verify, repro.backend.cgen
from repro.compiler.pipeline import compile_program
from repro.bench.suite import BENCHMARK_NAMES, load_sources
sources = [load_sources(name) for name in BENCHMARK_NAMES]
"""


def process_setup_seconds(repeats: int = 5) -> float:
    """Median wall time to start Python, import repro and load sources."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)], cwd=ROOT
        )
        # a blocking wait: waiting with a timeout polls the child every
        # 50 ms, which rounded every sample up to the next poll
        watchdog = threading.Timer(120.0, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise BenchmarkError(f"set-up child exited {code}")
    return median(samples)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment -----------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the package sources (the checkout has no .git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# -- golden digests ----------------------------------------------------------


def digest(payload) -> str:
    """SHA-256 of a value's canonical JSON (floats via ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_record(plan) -> dict:
    """Every field of an AllocationPlan, in a hash-seed-free form."""
    return {
        "groups": [
            [
                g.gid,
                g.color,
                g.storage.value,
                int(g.intrinsic),
                g.root,
                list(g.members),
                g.static_size,
            ]
            for g in plan.groups
        ],
        "group_of": sorted(plan.group_of.items()),
        "resize_marks": sorted(plan.resize_marks.items()),
        "stats": plan_stats(plan),
    }


def plan_stats(plan) -> dict:
    s = plan.stats
    return {
        name: getattr(s, name)
        for name in (
            "original_variable_count",
            "static_subsumed",
            "dynamic_subsumed",
            "storage_reduction_bytes",
            "group_count",
            "color_count",
            "static_chain_subsumed",
            "dynamic_chain_subsumed",
        )
    }


def simulated_record(result, plan) -> dict:
    """Every simulated number of one model run: report, steps, plan stats."""
    report = result.report
    return {
        "report": {
            name: repr(getattr(report, name))
            for name in type(report).__dataclass_fields__
        },
        "steps": result.steps,
        "plan_stats": plan_stats(plan),
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts attempted/failed operations and remembers why ops failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)
        return not problems

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted
            if self.attempted
            else 0.0,
            "problems": list(self.problems),
        }


# -- cProfile layer attribution ---------------------------------------------


def _module_of(filename: str) -> str | None:
    """``repro.<pkg>.<mod>`` for a file of the package, else None."""
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except (ValueError, OSError):
        return None
    parts = list(rel.with_suffix("").parts)
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class LayerProfile:
    """Self time per ``repro.<module>``, from one cProfile session.

    Time spent in numpy or builtins is charged to the repro module
    that called it (split by the caller's share when several did), so
    a layer's figure covers the native work it asked for.  The timer is
    cProfile's own (wall time): a CPU-time timer costs a system call per
    event and made the profiled pass six times slower than the plain one.
    """

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.unattributed = 0.0

    @classmethod
    @contextmanager
    def collect(cls):
        layers = cls()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield layers
        finally:
            profiler.disable()
            layers._absorb(pstats.Stats(profiler).stats)

    def _absorb(self, stats: dict) -> None:
        modules = {func: _module_of(func[0]) for func in stats}
        for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
            module = modules[func]
            if module is not None:
                self._add(module, tottime)
                key = (module, func[2])
                self.calls[key] = self.calls.get(key, 0) + ncalls
            else:
                self._charge(func, tottime, stats, modules, depth=0)

    def _charge(self, func, amount, stats, modules, depth) -> None:
        callers = stats[func][4] if func in stats else {}
        total = sum(c[2] for c in callers.values())
        if depth > 8 or not callers or total <= 0:
            self.unattributed += amount
            return
        for caller, entry in callers.items():
            share = amount * entry[2] / total
            module = modules.get(caller)
            if module is not None:
                self._add(module, share)
            else:
                self._charge(caller, share, stats, modules, depth + 1)

    def _add(self, module: str, seconds: float) -> None:
        self.self_seconds[module] = self.self_seconds.get(module, 0.0) + seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.self_seconds.values()) + self.unattributed

    def layer(self, prefix: str) -> float:
        """Self seconds of ``repro.<prefix>`` and its submodules."""
        name = "repro." + prefix
        return sum(
            s
            for m, s in self.self_seconds.items()
            if m == name or m.startswith(name + ".")
        )

    def call_count(self, module: str, function: str) -> int:
        return self.calls.get(("repro." + module, function), 0)
