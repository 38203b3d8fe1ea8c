"""suite-execute: the paper's evaluation sweep, closed loop, one caller.

One sweep compiles all eleven suite programs with GCTD on and off,
then runs each under the mat2c VM, the no-GCTD mat2c VM, the mcc
model and the interpreter, each with a fresh seeded RuntimeContext.
It calls the public ``compile_program`` and ``CompilationResult.run_*``
directly, never the pickled BenchRecord side artifact or the
per-process memo in ``repro.bench.experiments``: either would time a
cache load instead of the execution.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
import layers
from harness import (
    MODELS,
    NO_SPANS,
    Checker,
    HostSpeed,
    LayerProfile,
    digest,
    median,
    new_spans,
    percentile,
    plan_record,
    process_setup_seconds,
    self_peak_rss_mb,
    simulated_record,
    text_digest,
)


#: left out of the cProfile pass: fiff is half of a sweep's time, and
#: cProfile triples it, which would push a traced run toward three
#: minutes; the self-time figures cover the other ten programs
PROFILE_SKIP = ("fiff",)


def compile_pair(name: str, sources: dict, tracer=None):
    """Compile one suite program with GCTD on and off."""
    from repro.compiler.pipeline import CompilerOptions, compile_program
    from repro.core.gctd import GCTDOptions

    entry = f"{name}_drv"
    on = compile_program(sources, entry, CompilerOptions(), tracer=tracer)
    off = compile_program(
        sources,
        entry,
        CompilerOptions(gctd=GCTDOptions(enabled=False)),
        tracer=tracer,
    )
    return on, off


def execute(pair, model: str, ctx_seed: int):
    """Run one model; returns (result, plan the model ran with)."""
    from repro.runtime.builtins import RuntimeContext

    on, off = pair
    ctx = RuntimeContext(seed=ctx_seed)
    if model == "mat2c":
        return on.run_mat2c(ctx), on.plan
    if model == "nogctd":
        return off.run_mat2c(ctx), off.plan
    if model == "mcc":
        return on.run_mcc(ctx), on.plan
    return on.run_interpreter(ctx), on.plan


def check_plans(name: str, pair, golden: dict) -> list[str]:
    expected = golden["programs"][name]["plan"]
    problems = []
    for label, result in zip(("gctd", "nogctd"), pair):
        if digest(plan_record(result.plan)) != expected[label]:
            problems.append(f"{name}: {label} allocation plan drifted")
    return problems


def check_runs(name: str, runs: dict, golden: dict) -> list[str]:
    """Simulated numbers per model, and every model's output = interp's."""
    expected = golden["programs"][name]
    problems = []
    oracle = runs["interp"][0].output
    if text_digest(oracle) != expected["output"]:
        problems.append(f"{name}: interpreter output drifted")
    for model, (result, plan) in runs.items():
        if digest(simulated_record(result, plan)) != expected["simulated"][model]:
            problems.append(f"{name}: {model} simulated numbers drifted")
        if result.output != oracle:
            problems.append(f"{name}: {model} output differs from interp")
    return problems


@dataclass(slots=True)
class Sweep:
    """Timings of one sweep, keyed by (program, model) where per run."""

    wall: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: the compiles and executions, summed in reference units
    units: float = 0.0


def sweep(names, sources, ctx_seed, golden, checker, host, spans=None):
    """Compile every program with GCTD on and off, then run each under
    the four models, checking every result against the golden digests.

    ``host`` is the run's :class:`HostSpeed`; returns a :class:`Sweep`.
    """
    spans = spans or NO_SPANS
    out = Sweep()
    start = time.perf_counter()
    cpu_start = time.process_time()
    with spans.span("sweep"):
        pairs = {}
        for name in names:
            with host.timed() as t, spans.span("compile", request=name):
                pairs[name] = compile_pair(name, sources[name], spans.tracer)
            out.units += t.units
            checker.record(check_plans(name, pairs[name], golden))
        for name in names:
            runs = {}
            for model in MODELS:
                key = (name, model)
                with host.timed() as t, spans.span(model, request=name):
                    runs[model] = execute(pairs[name], model, ctx_seed)
                out.wall[key] = t.wall
                out.units += t.units
                out.steps[key] = runs[model][0].steps
            checker.record(check_runs(name, runs, golden))
    out.wall_s = time.perf_counter() - start
    out.cpu_s = time.process_time() - cpu_start
    return out


def _sweeps(names, sources, ctx_seed, golden, checker, seconds, spans=None):
    """Sweep until ``seconds`` is used; never start one that cannot fit."""
    samples = []
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    while True:
        samples.append(
            sweep(names, sources, ctx_seed, golden, checker, host, spans)
        )
        if time.perf_counter() + samples[-1].wall_s > deadline:
            return samples, host


def run(seed, seconds, trace, golden):
    from repro.bench.suite import BENCHMARK_NAMES, load_sources

    names = list(BENCHMARK_NAMES)
    rng = random.Random(seed)
    rng.shuffle(names)
    ctx_seed = rng.randrange(2**31)
    sources = {name: load_sources(name) for name in names}
    checker = Checker()

    if trace:
        spans = new_spans()
        samples, host = _sweeps(
            names, sources, ctx_seed, golden, checker, seconds, spans
        )
        out = layers.empty()
        per_op = {
            key: median([s.wall[key] for s in samples])
            for key in samples[0].wall
        }
        layers.fill_models(out, per_op, samples[0].steps)
        layers.fill_passes(out, spans, compiles=2 * len(names) * len(samples))
        profiled = [n for n in names if n not in PROFILE_SKIP] or names
        with LayerProfile.collect() as profile:
            sweep(profiled, sources, ctx_seed, golden, checker, HostSpeed())
        layers.fill_profile(out, profile)
        detail = {
            "traced.suite_s": median([s.wall_s for s in samples]),
            "reference_unit_ms": median(host.samples) * 1000.0,
            "traced.profile_s": profile.total_seconds,
            "sweeps": len(samples),
            "profiled_programs": profiled,
            "profile_unattributed_s": profile.unattributed,
        }
        return out, checker, detail, spans

    setup_s = process_setup_seconds()
    samples, host = _sweeps(
        names, sources, ctx_seed, golden, checker, seconds
    )
    ops = [t for s in samples for t in s.wall.values()]
    steps = sum(n for s in samples for n in s.steps.values())
    # The operation is one sweep: single executions are too unlike (1 ms
    # to 5 s) for their median to be steady.
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "suite_ref": median([s.units for s in samples]),
    }
    detail = {
        "suite_s": median([s.wall_s for s in samples]),
        "suite_cpu_s": median([s.cpu_s for s in samples]),
        "reference_unit_ms": median(host.samples) * 1000.0,
        "steps_per_s": steps / sum(ops),
        "sweeps": len(samples),
        "executions": len(ops),
        "execution.p50_ms": percentile(ops, 50) * 1000.0,
        "execution.p99_ms": percentile(ops, 99) * 1000.0,
        "order": names,
    }
    return metrics, checker, detail, None
