"""Golden gate: every simulated number, plan and emitted C is pinned.

``perfbench/make_golden.py --check`` recomputes, for each suite
program, the digests of every MemoryReport field, step count and plan
statistic under all four execution models, of both allocation plans,
of the emitted C and of the interpreter's output, and compares them
with the committed ``perfbench/golden.json``.  Any drift fails tier-1:
speeding up the execution models must leave these numbers unchanged,
byte for byte.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_golden_digests_match():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "make_golden.py"), "--check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("golden digests: match")
