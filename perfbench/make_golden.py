"""Pin (or check) the digests every benchmark run is checked against.

For each suite program it records the digest of every simulated
number per execution model (each MemoryReport field, ``steps`` and the
plan stats), of both allocation plans (GCTD on and off), of the
emitted C and of the interpreter's output.

    python3 perfbench/make_golden.py            # rewrite golden.json
    python3 perfbench/make_golden.py --check    # exit 1 on any drift
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def compute() -> dict:
    from repro.bench.suite import BENCHMARK_NAMES, load_sources
    from repro.compiler.pipeline import PIPELINE_VERSION

    from suite_execute import compile_pair
    from suite_execute import execute as run_model

    programs = {}
    for name in BENCHMARK_NAMES:
        pair = compile_pair(name, load_sources(name))
        on, off = pair
        entry = {
            "plan": {
                "gctd": harness.digest(harness.plan_record(on.plan)),
                "nogctd": harness.digest(harness.plan_record(off.plan)),
            },
            "c": harness.text_digest(on.generate_c()),
        }
        runs = {m: run_model(pair, m, 0) for m in harness.MODELS}
        entry["output"] = harness.text_digest(runs["interp"][0].output)
        entry["simulated"] = {
            m: harness.digest(harness.simulated_record(r, plan))
            for m, (r, plan) in runs.items()
        }
        entry["steps"] = {m: r.steps for m, (r, _p) in runs.items()}
        programs[name] = entry
    return {"pipeline_version": PIPELINE_VERSION, "programs": programs}


def drift(expected: dict, actual: dict, path: str = "") -> list[str]:
    """Every key path where ``actual`` disagrees with ``expected``."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        problems = []
        for key, value in actual.items():
            if key not in expected:
                problems.append(f"{path}{key}: not pinned")
            else:
                problems.extend(drift(expected[key], value, f"{path}{key}."))
        return problems
    return [] if expected == actual else [f"{path.rstrip('.')}: drifted"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    harness.bootstrap()
    actual = compute()
    if not args.check:
        harness.GOLDEN_PATH.write_text(
            json.dumps(actual, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {harness.GOLDEN_PATH}")
        return 0
    problems = drift(harness.load_golden(), actual)
    for problem in problems:
        print(problem)
    print("golden digests:", "DRIFT" if problems else "match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
