"""Run the benchmark over several seeds and write one results file.

    python3 perfbench/sweep.py --out results.json \
        [--workloads suite-execute,compile-cold] [--runs 10] \
        [--first-seed 1] [--traced 1] [--seconds 40]

Each run is its own ``run.py`` process, one at a time.  The results
file holds every run's record, the environment (commit, Python and
numpy versions, nproc), the operation counts behind each workload's
error rate, the traced-minus-untraced overhead, and each end-to-end
metric's median and quartile spread next to its bound.  ``compare.py``
takes two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare import REFERENCE_FIGURE, load_manifest
from harness import BENCH_DIR, ROOT, WORK_DIR, median, summary


def run_once(workload, seed, seconds, trace) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(
        dir=WORK_DIR, suffix=".json", delete=False
    ) as tmp:
        out = Path(tmp.name)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--out", str(out),
            ],
            cwd=ROOT,
            check=False,
            timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"{workload} seed {seed} trace {trace}: exit {proc.returncode}"
            )
        record = json.loads(out.read_text())
        record["run_wall_s"] = time.perf_counter() - started
        return record
    finally:
        out.unlink(missing_ok=True)


def _figure(record, name) -> float:
    """A workload figure of a run: an end-to-end metric or a detail."""
    metrics = record["result"]["metrics"]
    return metrics[name]["value"] if name in metrics else record["detail"][name]


def summarize(runs, manifest) -> dict:
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        block = {"metrics": {}, "counts": {}, "overhead": None}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in plain
                      if name in r["result"]["metrics"]]
            if values:
                block["metrics"][name] = {
                    **summary(values), "bound": bound, "values": values
                }
        attempted = sum(r["counts"]["attempted"] for r in runs
                        if r["workload"] == workload)
        failed = sum(r["counts"]["failed"] for r in runs
                     if r["workload"] == workload)
        block["counts"] = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 0.0,
        }
        figure = REFERENCE_FIGURE.get(workload)
        if plain and traced and figure:
            untraced = median([_figure(r, figure) for r in plain])
            with_trace = median(
                [r["detail"][f"traced.{figure}"] for r in traced]
            )
            block["overhead"] = {
                "figure": figure,
                "untraced": untraced,
                "traced": with_trace,
                "difference": with_trace - untraced,
                "share": (with_trace - untraced) / untraced,
            }
        out[workload] = block
    return out


def render(summaries) -> str:
    lines = []
    for workload, block in summaries.items():
        c = block["counts"]
        lines.append(
            f"== {workload}: {c['failed']}/{c['attempted']} failed"
        )
        for name, s in block["metrics"].items():
            steady = "steady" if s["spread"] < s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "TOO NOISY"
            )
            lines.append(
                f"  {name:<18} median {s['median']:<12.5g} "
                f"spread {s['spread']:6.1%} (bound {s['bound']:.0%}) {steady}"
            )
        if block["overhead"]:
            o = block["overhead"]
            lines.append(
                f"  tracing overhead on {o['figure']}: "
                f"{o['untraced']:.4g} -> {o['traced']:.4g} "
                f"({o['share']:+.1%})"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in manifest["workloads"]),
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=1,
                        help="traced runs per workload")
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        plan = [(s, 0) for s in seeds] + [
            (s, 1) for s in list(seeds)[: args.traced]
        ]
        for seed, trace in plan:
            record = run_once(workload, seed, args.seconds, trace)
            line = record["result"]
            print(
                f"{workload} seed={seed} trace={trace} "
                f"correct={line['correct']} failed={line['failed']} "
                f"({record['run_wall_s']:.0f} s)",
                file=sys.stderr,
            )
            runs.append(record)
    summaries = summarize(runs, manifest)
    results = {
        "env": runs[0]["env"] if runs else {},
        "seconds": args.seconds,
        "summary": summaries,
        "runs": runs,
    }
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(render(summaries))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
