"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/tests -q

The planted-slowdown test runs both workloads in full, alternating
plain and slowed runs, for about fifteen minutes.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

harness.bootstrap()


def test_manifest_lists_every_metric_the_runs_print():
    manifest = compare.load_manifest()
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == (
        run.END_TO_END
    )
    assert [m["name"] for m in manifest["per_layer"]] == list(
        layers.PER_LAYER
    )
    for metric in manifest["per_layer"]:
        assert metric["unit"] == layers.unit_of(metric["name"])
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_plan_and_c_digests_hold_under_any_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "make_golden.py"), "--check"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the compare tool -----------------------------------------------------------


def _results(workload, values, trace=False, layer_values=None):
    runs = []
    for v in values:
        runs.append({
            "workload": workload,
            "trace": False,
            "result": {"metrics": {"suite_ref": {"value": v, "unit": "ref"}}},
            "detail": {},
        })
    for v in layer_values or []:
        runs.append({
            "workload": workload,
            "trace": True,
            "result": {"metrics": {
                "runtime.indexing_self_s": {"value": v, "unit": "s"},
                "vm.self_s": {"value": 1.0, "unit": "s"},
            }},
            "detail": {"reference_unit_ms": 3.0},
        })
    return {"runs": runs}


MANIFEST = {
    "workloads": [{"name": "suite-execute"}],
    "end_to_end": [
        {"name": "suite_ref", "unit": "ref", "better": "lower", "bound": 0.1},
    ],
}


@pytest.mark.parametrize(
    "old, new, verdict",
    [
        ([10, 10.1, 9.9, 10], [10.2, 10.1, 10.3, 10.2], "ok"),
        ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "REGRESSED"),
        ([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "improved"),
        # spread wider than the bound and the runs overlap: no claim
        ([8, 12, 9, 11], [9, 13, 10, 12], "unresolved"),
        # wide spread, but every new run is worse than every old run
        ([8, 9, 8.5, 9.5], [12, 14, 13, 15], "REGRESSED"),
    ],
)
def test_compare_verdicts(old, new, verdict):
    report = compare.compare(
        _results("suite-execute", old), _results("suite-execute", new),
        MANIFEST,
    )
    row = report["suite-execute"]["end_to_end"]["suite_ref"]
    assert row["verdict"] == verdict


def test_compare_flags_a_layer_that_doubled():
    report = compare.compare(
        _results("suite-execute", [10], layer_values=[1.0]),
        _results("suite-execute", [10], layer_values=[2.0]),
        MANIFEST,
    )
    assert compare.flagged(report, "suite-execute") == {
        "runtime.indexing_self_s"
    }
    assert "moved" in compare.render(report)


def test_compare_ignores_a_host_that_got_uniformly_slower():
    old = _results("suite-execute", [10], layer_values=[1.0])
    new = _results("suite-execute", [10], layer_values=[1.4])
    for run in new["runs"]:
        if run["trace"]:
            run["detail"]["reference_unit_ms"] = 4.2
            run["result"]["metrics"]["vm.self_s"]["value"] = 1.4
    report = compare.compare(old, new, MANIFEST)
    assert compare.flagged(report, "suite-execute") == set()


# -- planted slowdown -----------------------------------------------------------


def _interleaved(workload, plant, seeds=(1, 2, 3)):
    """Full runs of ``workload``, baseline and planted alternated so both
    sides see the same phases of a noisy host; one traced run per side."""
    seconds = compare.load_manifest()["run_seconds"]
    sides = {False: [], True: []}
    for seed in seeds:
        for planted in (False, True) if seed % 2 else (True, False):
            with plant(planted):
                sides[planted].append(
                    run.run_workload(workload, seed, seconds, 0)
                )
    for planted in (False, True):
        with plant(planted):
            sides[planted].append(
                run.run_workload(workload, seeds[0], seconds, 1)
            )
    for record in sides[False] + sides[True]:
        assert record["result"]["correct"], record["counts"]["problems"]
    return {"runs": sides[False]}, {"runs": sides[True]}


def test_planted_subsref_slowdown_shows_on_the_right_row():
    import repro.interp.interpreter
    import repro.runtime.indexing
    import repro.vm.base

    original = repro.runtime.indexing.subsref

    def twice(a, subs):
        original(a, subs)
        return original(a, subs)

    @contextlib.contextmanager
    def plant(on):
        # every executor reaches subsref through these two module globals
        with pytest.MonkeyPatch.context() as mp:
            if on:
                mp.setattr(repro.vm.base, "subsref", twice)
                mp.setattr(repro.interp.interpreter, "subsref", twice)
            yield

    report = {}
    report.update(compare.compare(*_interleaved("suite-execute", plant)))
    report.update(compare.compare(*_interleaved("compile-cold", plant)))
    print(compare.render(report))

    # doubling subsref moved suite_ref by +33% and +35% in earlier runs
    # of this test, so the gate has a few points to spare
    suite_ref = report["suite-execute"]["end_to_end"]["suite_ref"]
    assert suite_ref["verdict"] == "REGRESSED"
    assert "runtime.indexing_self_s" in compare.flagged(
        report, "suite-execute"
    )
    assert compare.flagged(report, "compile-cold") == set()
