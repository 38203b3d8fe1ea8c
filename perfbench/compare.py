"""Compare two results files written by ``sweep.py``.

    python3 perfbench/compare.py OLD.json NEW.json

Each workload gets its own block.  For every end-to-end metric (and the
workload's own figures, e.g. ``compile.p95_ms``) it
prints both sides' median and quartiles and the delta, and a verdict:

* ``REGRESSED`` / ``improved``: the median moved beyond the metric's
  bound from BENCHMARK.json;
* ``unresolved``: either side's quartile spread is wider than the bound
  and the runs do not separate (every run of one side better than every
  run of the other), so no claim either way;
* ``ok``: within the bound.

Then the per-layer table from the two sides' traced runs: medians, the
delta, and the delta in reference units (each time divided by its
run's ``reference_unit_ms``, the time of a fixed slice of work that
uses no repro code; see ``harness.HostSpeed``).  The reference machine
(2 vCPUs of a shared VM) runs all code up to 1.7x slower for minutes at
a time; dividing by the reference unit cancels most of that, so a layer
is flagged only when it moved by more than LAYER_THRESHOLD in reference
units, and by more than its unit's noise floor.  Counts are not
divided.  Exits 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import ROOT, summary

#: workload-specific figures (not gated) → which way is better; each
#: is judged against the bound of ``suite_ref``
DETAIL_METRICS = {
    "suite_s": "lower",
    "steps_per_s": "higher",
    "execution.p99_ms": "lower",
    "compile.p50_ms": "lower",
    "compile.p95_ms": "lower",
    "compile.p99_ms": "lower",
    "compile.per_s": "higher",
}

#: the figure each workload's tracing overhead is measured on (a
#: traced run records it as ``traced.<figure>``)
REFERENCE_FIGURE = {
    "suite-execute": "suite_s",
    "compile-cold": "compile.p50_ms",
}

#: a layer must move by this share in reference units (and beyond its
#: unit's floor) to be flagged
LAYER_THRESHOLD = 0.25
LAYER_FLOOR = {"s": 0.01, "ms": 0.5, "count": 0.5}


def load_manifest(path: Path = ROOT / "BENCHMARK.json") -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _series(runs, workload, trace, source):
    """metric → list of values over the matching runs.

    ``trace=None`` takes traced and untraced runs alike (traced runs
    name their timings ``traced.*``, so figures do not mix).
    """
    out: dict[str, list[float]] = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        if trace is not None and run["trace"] != trace:
            continue
        if source == "metrics":
            items = {
                k: v["value"] for k, v in run["result"]["metrics"].items()
            }
        else:
            items = run["detail"]
        for name, value in items.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.setdefault(name, []).append(float(value))
    return out


def _separated(old, new, better) -> bool:
    """Every run of one side beats every run of the other."""
    if better == "lower":
        return max(new) < min(old) or min(new) > max(old)
    return min(new) > max(old) or max(new) < min(old)


def judge(old, new, better, bound) -> dict:
    a, b = summary(old), summary(new)
    delta = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worse = delta > 0 if better == "lower" else delta < 0
    if max(a["spread"], b["spread"]) > bound and not _separated(
        old, new, better
    ):
        verdict = "unresolved"
    elif abs(delta) > bound:
        verdict = "REGRESSED" if worse else "improved"
    else:
        verdict = "ok"
    return {"old": a, "new": b, "delta": delta, "bound": bound,
            "verdict": verdict}


def _normalized(values, refs, unit):
    """Layer values in units of their run's reference-unit time."""
    if unit in ("s", "ms"):
        return [v / r for v, r in zip(values, refs)]
    if unit == "1/s":
        return [v * r for v, r in zip(values, refs)]
    return list(values)


def judge_layer(old, new, unit, old_refs, new_refs) -> dict:
    a, b = summary(old), summary(new)
    diff = b["median"] - a["median"]
    na = summary(_normalized(old, old_refs, unit))["median"]
    nb = summary(_normalized(new, new_refs, unit))["median"]
    delta = diff / abs(a["median"]) if a["median"] else 0.0
    relative = (nb - na) / abs(na) if na else (0.0 if nb == na else 1.0)
    flagged = (
        abs(relative) > LAYER_THRESHOLD
        and abs(diff) > LAYER_FLOOR.get(unit, 0.0)
    )
    return {"old": a, "new": b, "delta": delta, "relative": relative,
            "flagged": flagged}


def _references(runs, workload) -> list[float]:
    """Per traced run, the reference unit's time its layers divide by."""
    return [
        r["detail"]["reference_unit_ms"]
        for r in runs
        if r["workload"] == workload and r["trace"]
    ]


def compare(old: dict, new: dict, manifest: dict | None = None) -> dict:
    """Per-workload verdicts for two results files."""
    manifest = manifest or load_manifest()
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    report = {}
    workloads = [w["name"] for w in manifest["workloads"]]
    for workload in workloads:
        rows = {}
        old_m = _series(old["runs"], workload, False, "metrics")
        new_m = _series(new["runs"], workload, False, "metrics")
        for name, spec in e2e.items():
            if old_m.get(name) and new_m.get(name):
                rows[name] = judge(
                    old_m[name], new_m[name], spec["better"], spec["bound"]
                )
        old_d = _series(old["runs"], workload, None, "detail")
        new_d = _series(new["runs"], workload, None, "detail")
        for name, better in DETAIL_METRICS.items():
            if old_d.get(name) and new_d.get(name):
                rows[name] = judge(
                    old_d[name], new_d[name], better, e2e["suite_ref"]["bound"]
                )
        units = {
            m: v["unit"]
            for run in old["runs"] + new["runs"]
            if run["workload"] == workload and run["trace"]
            for m, v in run["result"]["metrics"].items()
        }
        old_l = _series(old["runs"], workload, True, "metrics")
        new_l = _series(new["runs"], workload, True, "metrics")
        layer_rows = {
            name: judge_layer(
                old_l[name],
                new_l[name],
                units[name],
                _references(old["runs"], workload),
                _references(new["runs"], workload),
            )
            for name in old_l
            if name in new_l
        }
        if rows or layer_rows:
            report[workload] = {"end_to_end": rows, "layers": layer_rows}
    return report


def flagged(report: dict, workload: str) -> set[str]:
    """Names of every end-to-end or layer row that moved beyond its bound."""
    block = report.get(workload, {})
    names = {
        name
        for name, row in block.get("end_to_end", {}).items()
        if row["verdict"] in ("REGRESSED", "improved")
    }
    names |= {
        name for name, row in block.get("layers", {}).items() if row["flagged"]
    }
    return names


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def render(report: dict) -> str:
    lines = []
    for workload, block in report.items():
        lines.append(f"== {workload}")
        lines.append(
            f"  {'metric':<20} {'old median':>11} {'[q1, q3]':<23}"
            f" {'new median':>11} {'[q1, q3]':<23} {'delta':>7}"
            f" {'bound':>5}  verdict"
        )
        for name, row in block["end_to_end"].items():
            a, b = row["old"], row["new"]
            lines.append(
                f"  {name:<20} {_fmt(a['median']):>11}"
                f" {_quartiles(a):<23} {_fmt(b['median']):>11}"
                f" {_quartiles(b):<23} {row['delta']:+7.1%}"
                f" {row['bound']:5.0%}  {row['verdict']}"
            )
        if block["layers"]:
            first = next(iter(block["layers"].values()))
            lines.append(
                f"  -- per layer, {first['old']['n']} vs {first['new']['n']}"
                f" traced runs: old, new, delta, delta in reference units"
                f" (flag beyond ±{LAYER_THRESHOLD:.0%})"
            )
        for name, row in block["layers"].items():
            if not (row["old"]["median"] or row["new"]["median"]):
                continue  # a layer this workload does not exercise
            mark = "  <-- moved" if row["flagged"] else ""
            lines.append(
                f"  {name:<34} {_fmt(row['old']['median']):>11}"
                f" {_fmt(row['new']['median']):>11}"
                f" {row['delta']:+8.1%} {row['relative']:+8.1%}{mark}"
            )
    return "\n".join(lines)


def _quartiles(s: dict) -> str:
    return f"[{_fmt(s['q1'])}, {_fmt(s['q3'])}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text())
    new = json.loads(args.new.read_text())
    report = compare(old, new)
    print(render(report))
    regressed = any(
        row["verdict"] == "REGRESSED"
        for block in report.values()
        for row in block["end_to_end"].values()
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
