"""compile-cold: every compiler layer, no execution, no artifact cache.

Closed loop, one caller.  Each round compiles every suite program once,
in a seeded order, with ``compile_program(..., verify_plan=True)`` and
then ``generate_c()``.  Whole rounds keep the mix of cheap and dear
programs the same for every seed, so the latency percentiles do not
move with the draw.  A traced run also times the compile service's
``ArtifactCache`` (fingerprint, store, load) on each compiled program.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time

import layers
from harness import (
    NO_SPANS,
    WORK_DIR,
    Checker,
    HostSpeed,
    LayerProfile,
    digest,
    mean,
    median,
    new_spans,
    percentile,
    plan_record,
    process_setup_seconds,
    self_peak_rss_mb,
    text_digest,
)

def compile_once(name, sources, golden, spans=None):
    """Compile + verify + emit C for one program.

    Returns (result, problems).
    """
    from repro.compiler.pipeline import CompilerOptions, compile_program

    spans = spans or NO_SPANS
    with spans.span("compile", request=name):
        result = compile_program(
            sources,
            f"{name}_drv",
            CompilerOptions(),
            tracer=spans.tracer,
            verify_plan=True,
        )
    with spans.span("cgen", request=name) as record:
        c_source = result.generate_c()
        record.details["bytes"] = len(c_source)

    expected = golden["programs"][name]
    problems = []
    if not result.verification.ok:
        problems.append(f"{name}: verifier found violations")
    if digest(plan_record(result.plan)) != expected["plan"]["gctd"]:
        problems.append(f"{name}: allocation plan drifted")
    if text_digest(c_source) != expected["c"]:
        problems.append(f"{name}: emitted C drifted")
    return result, problems


def rounds(names, rng):
    """Endless seeded rounds, each a fresh permutation of ``names``."""
    while True:
        order = list(names)
        rng.shuffle(order)
        yield from order


def closed_loop(
    names, sources, golden, rng, seconds, checker, spans=None, cache=None
):
    """Compile back to back for ``seconds``.

    Returns ({program: [Timing]}, the loop's :class:`HostSpeed`).
    ``cache``, a :class:`CacheTimer`, is handed each compiled program.
    """
    timings: dict[str, list] = {name: [] for name in names}
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    for name in rounds(names, rng):
        with host.timed() as timing:
            result, problems = compile_once(
                name, sources[name], golden, spans
            )
        checker.record(problems)
        timings[name].append(timing)
        if cache is not None:
            checker.record(cache.measure(name, sources[name], result))
        if time.perf_counter() >= deadline:
            return timings, host


class CacheTimer:
    """Times the ``ArtifactCache`` calls the compile server makes per
    request (fingerprint, store, load) on each program it is handed.

    It runs inside the traced compile loop, so its timings share the
    machine's slow and fast phases with the compile timings they are
    compared against.  Each load goes through a fresh cache instance on
    the same directory, so it reads the stored artifact back from disk.
    """

    def __init__(self, root, golden) -> None:
        from repro.compiler.pipeline import CompilerOptions
        from repro.service.cache import ArtifactCache

        self._cache_at = ArtifactCache
        self._writer = ArtifactCache(root)
        self._root = root
        self._options = CompilerOptions()
        self._golden = golden
        self.seconds: dict[str, list[float]] = {
            "fingerprint": [], "put": [], "get": []
        }

    def measure(self, name, sources, result) -> list[str]:
        entry = f"{name}_drv"
        t0 = time.perf_counter()
        self._writer.fingerprint(sources, entry, self._options)
        t1 = time.perf_counter()
        self._writer.put_program(sources, entry, self._options, result)
        t2 = time.perf_counter()
        loaded = self._cache_at(self._root).get_program(
            sources, entry, self._options
        )
        t3 = time.perf_counter()
        self.seconds["fingerprint"].append(t1 - t0)
        self.seconds["put"].append(t2 - t1)
        self.seconds["get"].append(t3 - t2)
        expected = self._golden["programs"][name]["plan"]["gctd"]
        if loaded is None or digest(plan_record(loaded.plan)) != expected:
            return [f"{name}: cache load lost the allocation plan"]
        return []


def run(seed, seconds, trace, golden):
    from repro.bench.suite import BENCHMARK_NAMES, load_sources

    names = list(BENCHMARK_NAMES)
    rng = random.Random(seed)
    sources = {name: load_sources(name) for name in names}
    checker = Checker()
    # one untimed round: lazy imports and first-call set-up happen here
    for name in names:
        checker.record(compile_once(name, sources[name], golden)[1])

    if trace:
        spans = new_spans()
        WORK_DIR.mkdir(exist_ok=True)
        root = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        try:
            cache = CacheTimer(root, golden)
            samples, host = closed_loop(
                names, sources, golden, rng, seconds, checker, spans, cache
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        ops = [t.wall for per in samples.values() for t in per]
        out = layers.empty()
        layers.fill_passes(out, spans, compiles=len(ops))
        for metric, key in (
            ("service.fingerprint_ms", "fingerprint"),
            ("service.cache_put_ms", "put"),
            ("service.cache_get_ms", "get"),
        ):
            out[metric] = mean(cache.seconds[key]) * 1000.0
        with LayerProfile.collect() as profile:
            for name in names:
                checker.record(compile_once(name, sources[name], golden)[1])
        layers.fill_profile(out, profile)
        detail = {
            "traced.compile.p50_ms": percentile(ops, 50) * 1000.0,
            "reference_unit_ms": median(host.samples) * 1000.0,
            "traced.profile_s": profile.total_seconds,
        }
        return out, checker, detail, spans

    setup_s = process_setup_seconds()
    start = time.perf_counter()
    samples, host = closed_loop(
        names, sources, golden, rng, seconds, checker
    )
    elapsed = time.perf_counter() - start
    ops = [t.wall for per in samples.values() for t in per]

    def suite(field):
        """One pass over the suite: each program's mean compile time,
        summed.  Means, not medians, so a change that slows only some
        compiles still shows."""
        return sum(
            mean([getattr(t, field) for t in per])
            for per in samples.values()
            if per
        )

    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "suite_ref": suite("units"),
    }
    detail = {
        "suite_s": suite("wall"),
        "reference_unit_ms": median(host.samples) * 1000.0,
        "compile.p50_ms": percentile(ops, 50) * 1000.0,
        "compile.p95_ms": percentile(ops, 95) * 1000.0,
        "compile.p99_ms": percentile(ops, 99) * 1000.0,
        "compile.per_s": len(ops) / elapsed,
        "compiles": len(ops),
    }
    return metrics, checker, detail, None
