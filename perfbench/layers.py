"""Per-layer metric names and how each traced run fills them in.

Every traced run reports every name below.  A layer that a workload
does not exercise reads 0 there, which is the prediction table made
visible: e.g. ``vm.mat2c_s`` is 0 on compile-cold, and the compiler
pass timings are small on suite-execute.
"""

from __future__ import annotations

from harness import MODELS, LayerProfile, Spans

#: benchmark span name → per-layer metric, per execution model
MODEL_SPANS = {
    "mat2c": "vm.mat2c_s",
    "nogctd": "vm.nogctd_s",
    "mcc": "mccsim.run_s",
    "interp": "interp.run_s",
}

#: the eleven suite programs (mirrors repro.bench.suite.BENCHMARK_NAMES;
#: listed here so the metric names are fixed without importing repro)
PROGRAMS = (
    "adpt", "capr", "clos", "crni", "diff", "dich",
    "edit", "fdtd", "fiff", "nb1d", "nb3d",
)

#: cProfile self-time metrics: name → (repro module prefix)
SELF_TIME = {
    "runtime.self_s": "runtime",
    "runtime.indexing_self_s": "runtime.indexing",
    "runtime.ops_self_s": "runtime.ops",
    "runtime.marray_self_s": "runtime.marray",
    "runtime.builtins_self_s": "runtime.builtins",
    "memsim.self_s": "memsim",
    "vm.self_s": "vm",
    "mccsim.self_s": "mccsim",
    "interp.self_s": "interp",
}

#: pipeline pass span (as the repro Tracer names it) → per-compile ms
PASS_MS = {
    "frontend.parse_ms": "parse",
    "ir.lower_ms": "lower",
    "ssa.construct_ms": "ssa",
    "ssa.invert_ms": "invert",
    "analysis.cleanup_ms": "cleanup",
    "typing.infer_ms": "infer",
    "typing.shapefold_ms": "shapefold",
    "core.gctd_ms": "gctd",
    "verify.plan_ms": "verify",
    "backend.cgen_ms": "cgen",
}

#: per-compile means of details the pipeline records on its spans
PASS_DETAILS = {
    "analysis.cleanup_iterations": ("cleanup", "iterations"),
    "typing.queries_folded": ("shapefold", "queries_folded"),
    "core.interference_edges": ("gctd", "interference_edges"),
    "core.colors": ("gctd", "colors"),
    "core.groups": ("gctd", "groups"),
}

#: ArtifactCache calls, timed by compile-cold's traced run
SERVICE = (
    "service.fingerprint_ms",
    "service.cache_get_ms",
    "service.cache_put_ms",
)

PER_LAYER: tuple[str, ...] = (
    *MODEL_SPANS.values(),
    *(f"{metric}.{p}" for metric in MODEL_SPANS.values() for p in PROGRAMS),
    *(f"{model}.steps_per_s" for model in MODELS),
    *SELF_TIME,
    "runtime.subsref_calls",
    "memsim.sample_calls",
    *PASS_MS,
    "ir.instructions",
    *PASS_DETAILS,
    "verify.violations",
    "backend.c_bytes",
    *SERVICE,
)

_UNIT_SUFFIXES = (
    ("_per_s", "1/s"),
    ("_ms", "ms"),
    ("_s", "s"),
    ("_bytes", "bytes"),
)


def unit_of(name: str) -> str:
    """Unit from the first name component after the layer's own."""
    for part in name.split(".")[1:]:
        for suffix, unit in _UNIT_SUFFIXES:
            if part.endswith(suffix):
                return unit
    return "count"


def empty() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def fill_models(
    out: dict, seconds: dict[tuple[str, str], float], steps: dict
) -> None:
    """Execution-model wall time (one sweep) and step rates.

    ``seconds`` maps (program, model) to the median wall time of one
    run; ``steps`` maps (program, model) to its executed step count.
    """
    for (program, model), wall in seconds.items():
        metric = MODEL_SPANS[model]
        out[metric] += wall
        out[f"{metric}.{program}"] = wall
    for model in MODELS:
        wall = sum(s for (_p, m), s in seconds.items() if m == model)
        count = sum(n for (_p, m), n in steps.items() if m == model)
        out[f"{model}.steps_per_s"] = count / wall if wall > 0 else 0.0


def fill_profile(out: dict, profile: LayerProfile) -> None:
    for metric, prefix in SELF_TIME.items():
        out[metric] = profile.layer(prefix)
    out["runtime.subsref_calls"] = profile.call_count(
        "runtime.indexing", "subsref"
    )
    out["memsim.sample_calls"] = profile.call_count("memsim.meter", "sample")


def fill_passes(out: dict, spans: Spans, compiles: int) -> None:
    """Per-compile pass timings and IR counts from the Tracer's spans.

    ``compiles`` is the number of ``compile_program`` calls the spans
    cover; the ``cgen`` span is the benchmark's own, around
    ``generate_c``.
    """
    if compiles <= 0:
        return
    for metric, span in PASS_MS.items():
        out[metric] = spans.total(span) * 1000.0 / compiles
    for metric, (span, key) in PASS_DETAILS.items():
        total = sum(r.details.get(key, 0) for r in spans.records(span))
        out[metric] = total / compiles
    # the IR size as SSA construction leaves it (the lowering span
    # itself records no instruction count)
    built = [r.instructions or 0 for r in spans.records("ssa")]
    out["ir.instructions"] = sum(built) / compiles
    out["verify.violations"] = sum(
        r.details.get("violations", 0) for r in spans.records("verify")
    )
    cgen = spans.records("cgen")
    if cgen:
        out["backend.c_bytes"] = sum(
            r.details.get("bytes", 0) for r in cgen
        ) / len(cgen)
