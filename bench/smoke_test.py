"""Smoke test of the benchmark harness on a tiny configuration.

    python3 bench/smoke_test.py        # or: python3 -m pytest bench/smoke_test.py

interval-grid cut to a <= 4 (seven requests a pass) runs untraced and
traced; every metric of BENCHMARK.json must be printed with its unit.
In a copy of the tree whose expected answers have one value altered, the
wrong answer must show up in failed_frac and in the exit code, and a
directory holding only the benchmark (no sources) must make the harness
fail without a result.  Everything it writes goes under .bench_out/smoke.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra: str, trace: int = 0, cwd: Path = ROOT) -> tuple[int, list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interval-grid", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--amax", "4", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, lines, last


def check_metrics(lines: list[str], last: dict, spec_key: str) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC[spec_key]:
        name, unit = metric["name"], metric["unit"]
        assert last["metrics"][name]["unit"] == unit, name
        assert isinstance(last["metrics"][name]["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), name
    assert set(last["metrics"]) == {m["name"] for m in SPEC[spec_key]}


def test_end_to_end_metrics_printed_with_units():
    rc, lines, last = run("--out", str(OUT / "plain"))
    assert rc == 0 and last["correct"] and last["failed"] == 0 and last["attempted"] >= 7
    check_metrics(lines, last, "end_to_end")
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_per_layer_metrics_printed_with_units():
    rc, lines, last = run("--out", str(OUT / "traced"), trace=1)
    assert rc == 0 and last["correct"]
    check_metrics(lines, last, "per_layer")
    assert last["metrics"]["amenable.sets"]["value"] >= last["metrics"]["amenable.shadows"]["value"] > 0
    result = json.loads((OUT / "traced" / "interval-grid-trace1-seed7.json").read_text())
    assert result["counters_varying"] == [] and result["absent"] == []


def copy_tree(dest: Path, with_sources: bool) -> Path:
    """The benchmark, BENCHMARK.json and optionally src/ copied to dest."""
    shutil.rmtree(dest, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def test_altered_expected_value_counts_as_failure():
    altered = copy_tree(OUT / "altered", with_sources=True)
    path = altered / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["interval"]["3,1"][4] += 1  # E(<3,4>, 5)
    path.write_text(json.dumps(expected))
    rc, lines, last = run("--out", str(OUT / "altered-runs"), cwd=altered)
    assert rc == 1 and not last["correct"]
    result = json.loads((OUT / "altered-runs" / "interval-grid-trace0-seed7.json").read_text())
    # the number request for <3,4> and the grid request are wrong on every pass
    passes = result["run"]["pass_count"]
    assert last["failed"] == 2 * passes
    assert result["failed_frac"] == last["failed"] / last["attempted"] > 0


def test_fails_without_sources():
    rc, lines, last = run(cwd=copy_tree(OUT / "bare", with_sources=False))
    assert rc != 0 and last is None


if __name__ == "__main__":
    tests = [v for k, v in dict(globals()).items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
