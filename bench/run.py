"""Benchmark of the fengrao CLI and library, end to end and per layer.

    python3 bench/run.py --workload deep-r --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each pass of a workload runs in a fresh interpreter (bench/child.py), one
at a time, so every pass pays semigroup construction cold, as a CLI user
does, and no cache carries over from one pass to the next.  A run makes
passes until ``--seconds`` is used up (at least MIN_PASSES of them, unless
RUN_LIMIT_S is reached first) and reports medians.  All children run on
one CPU.

The machine's speed changes by tens of percent within seconds and drifts
over minutes, in CPU time as much as in wall time.  So every pass samples
the speed throughout (child.py times a fixed reference routine every
50 ms), and reported times are scaled to a fixed reference speed: each
request latency by the speed sampled around that request, every other
time of a pass by the pass's mean speed.  The raw times, the CPU time,
the steal time and the speed samples of every pass are stored in the
full result.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result,
with the machine and run description, goes to ``--out``.  The exit code
is 1 when any answer was wrong and 2 when the harness could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2   # so that counters can be compared across passes
RUN_LIMIT_S = 150.0     # no pass starts after this; a run must end within 180 s
KILL_AFTER_S = 175.0    # a child still running this long into the run is killed


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(cfg: dict, budget: float) -> dict:
    """Run one child to completion and return its result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, budget),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a {cfg['workload']} pass did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - started
    result["raw_setup_s"] = result["ready"] - started
    return result


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported instead and labelled so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "max"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f}"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else status != "",
    }


def run_workload(args: argparse.Namespace, workload: str, metric_units: dict) -> dict:
    base = {"root": str(ROOT), "workload": workload, "seed": args.seed,
            "amax": args.amax, "trace": False}
    loadavg_start = os.getloadavg()
    started_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    started = time.monotonic()

    def budget() -> float:
        return KILL_AFTER_S - (time.monotonic() - started)

    # fills the bytecode cache, so that no timed pass compiles; not timed
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/fengrao", "bench"],
                   cwd=ROOT, capture_output=True, timeout=max(1.0, budget()))

    plain, traced, step_costs = [], [], []
    deadline = started + args.seconds
    spans = args.out / f"spans-{workload}.bin"
    while True:
        step = [spawn(base, budget())]
        if args.trace:
            step.append(spawn(dict(base, trace=True, spans=str(spans)), budget()))
            traced.append(step[-1])
        plain.append(step[0])
        step_costs.append(sum(p["elapsed_s"] for p in step))
        done = len(traced) >= MIN_TRACED_PASSES if args.trace else len(plain) >= MIN_PASSES
        # stop before a step that would end past the deadline
        if done and time.monotonic() + statistics.median(step_costs) > deadline:
            break
        if time.monotonic() - started > RUN_LIMIT_S:
            break

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    # Every pass of a run sends the same requests in the same order.  A
    # request's latency is its median over the passes, so the percentiles
    # below fall on the same request whatever the pass count.
    latencies = [statistics.median(p["latencies_ms"][i] * p["request_speed"][i] for p in plain)
                 for i in range(plain[0]["attempted"])]
    tail_ms, tail_label = tail(latencies)
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in plain),
        "request_p50_ms": statistics.median(latencies),
        "request_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(p["raw_setup_s"] * p["speed"] for p in passes),
    }

    layers, varying, absent = {}, [], []
    if args.trace:
        absent = sorted({name for p in traced for name in p["absent"]})
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            if name.endswith("_ms"):
                values = [v * p["speed"] for v, p in zip(values, traced)]
                layers[name] = statistics.median(values)
            else:
                layers[name] = statistics.median_low(values)
                if len(set(values)) > 1:
                    varying.append(name)
        sets, shadows = layers.get("amenable.sets"), layers.get("amenable.shadows")
        if sets and shadows is not None:
            layers["amenable.shadow_yield"] = shadows / sets
        else:
            absent.append("amenable.shadow_yield")
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] * p["speed"] for p in traced)
            / end_to_end["wall_s"] - 1.0)

    shown = layers if args.trace else end_to_end
    metrics = {}
    for name, unit in metric_units.items():
        if name not in shown:
            absent.append(name)
        metrics[name] = {"value": shown.get(name, 0.0), "unit": unit}

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failed_frac": len(failures) / attempted,
        "end_to_end": end_to_end,
        "layers": layers,
        "request_tail": {"percentile": tail_label, "samples": len(latencies),
                         "passes": len(plain)},
        "counters_varying": varying,
        "absent": sorted(set(absent)),
        "failures": failures[:20],
        "passes": {  # raw figures, untraced passes first
            "traced": [p in traced for p in passes],
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "steal_s": [p["steal_s"] for p in passes],
            "setup_s": [p["raw_setup_s"] for p in passes],
            "reference_s": [p["reference_s"] for p in passes],
            "speed": [p["speed"] for p in passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
            "traced_layers": [p["layers"] for p in traced],
        },
        "run": {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(args.trace),
            "pass_count": len(plain),
            "traced_pass_count": len(traced),
            "loadavg_start": loadavg_start,
            "loadavg_end": os.getloadavg(),
            "started_utc": started_utc,
        },
        "machine": machine(),
    }


def report(result: dict) -> None:
    run = result["run"]
    speed = result["passes"]["speed"]
    print(f"{run['workload']}: seed {run['seed']}, {run['pass_count']} passes"
          f" ({run['traced_pass_count']} traced), {result['failed']} of"
          f" {result['attempted']} requests failed, speed {min(speed):.3f}-{max(speed):.3f}"
          f" of reference (times below are scaled to it)")
    tail_info = result["request_tail"]
    over = f"{tail_info['samples']} requests, each the median of {tail_info['passes']} passes"
    notes = {"request_tail_ms": f"{tail_info['percentile']} of {over}",
             "request_p50_ms": over}
    rows = dict(result["metrics"])
    for name, value in result["layers"].items():  # traced, but not in BENCHMARK.json
        if name not in rows:
            rows[name] = {"value": value, "unit": "ms" if name.endswith("_ms") else "count"}
    rows["failed_frac"] = {"value": result["failed_frac"], "unit": "ratio"}
    for name, m in rows.items():
        note = "absent" if name in result["absent"] else notes.get(name, "")
        print(f"  {name:26s} {m['value']:14.6f} {m['unit']:6s} {note}")
    for name in result["counters_varying"]:
        print(f"  warning: counter {name} differs between passes", file=sys.stderr)
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "runs",
                        help="directory for full results and spans")
    parser.add_argument("--amax", type=int, default=12,
                        help="largest a of interval-grid (the smoke test uses 4)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fengrao" / "__init__.py").is_file():
        print(f"error: no fengrao sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Every child inherits this: all passes run on one CPU, the last one,
    # which is the CPU least likely to also serve interrupts and housekeeping.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    args.out.mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = result = run_workload(args, workload, units)
            path = args.out / f"{workload}-trace{args.trace}-seed{args.seed}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            report(result)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({w: {k: r[k] for k in keys} for w, r in results.items()}))
    else:
        print(json.dumps({k: result[k] for k in keys}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
