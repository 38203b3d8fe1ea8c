"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload suite-execute --seed 1 \
        --seconds 40 --trace 0 [--out RECORD.json]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--out`` also writes the full record (workload-specific figures, the
environment, the operation counts and, for a traced run, every span);
``sweep.py`` collects such records into a results file for
``compare.py``.  Exits 2 without a result when the checkout has no
repro source tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness
import layers

WORKLOADS = ("suite-execute", "compile-cold")

#: end-to-end metrics every workload reports, with their units
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "suite_ref": "ref",
}


def run_workload(name, seed, seconds, trace):
    """Run one workload in this process; returns its full record."""
    harness.bootstrap()
    golden = harness.load_golden()
    if name == "suite-execute":
        import suite_execute as module
    elif name == "compile-cold":
        import compile_cold as module
    else:
        raise harness.BenchmarkError(f"unknown workload {name!r}")
    metrics, checker, detail, spans = module.run(seed, seconds, trace, golden)
    units = (
        {m: layers.unit_of(m) for m in metrics}
        if trace
        else END_TO_END
    )
    counts = checker.counts()
    line = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m: {"value": metrics[m], "unit": units[m]} for m in metrics
        },
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "result": line,
        "detail": detail,
        "counts": counts,
        "env": harness.environment(),
        "spans": spans.tracer.to_dict()["passes"] if spans else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full record")
    args = parser.parse_args(argv)
    try:
        record = run_workload(
            args.workload, args.seed, args.seconds, args.trace
        )
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["counts"]["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
