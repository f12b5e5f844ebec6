"""The benchmark harness still runs against the current sources.

bench/smoke_test.py drives bench/run.py on a tiny workload, untraced and
traced, and checks the per-layer counters; a change under src/ that breaks
the harness or its counters fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/smoke_test.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
