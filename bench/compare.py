"""Compare two result sets of bench/run.py, base against change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

A result set is the ``--out`` directory of several runs (one file per
workload, trace flag and seed).  For every workload and end-to-end metric
it prints each side's median and quartiles, the share of pairs the change
won (runs paired by seed, ties count for neither side) and a verdict:

* improved:   the change won at least 9/10 of the pairs and the medians
  differ by more than the base's own quartile spread;
* unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound in BENCHMARK.json, and not every change
  run beat every base run;
* regressed:  the change's median is worse than the base's by more than
  the bound;
* no worse:   otherwise.

It then lists the per-layer medians of the traced runs with their deltas,
and flags every counter that is not identical across the runs of a set or
between the two sets.  The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def load(directory: Path, trace: int) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob(f"*-trace{trace}-seed*.json")):
        result = json.loads(path.read_text())
        run = result["run"]
        out.setdefault(run["workload"], {})[run["seed"]] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: dict[int, float], change: dict[int, float]) -> list[tuple[float, float]]:
    """Runs with the same seed; without common seeds, runs in seed order."""
    common = sorted(base.keys() & change.keys())
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip((base[s] for s in sorted(base)), (change[s] for s in sorted(change))))


def verdict(base: list[float], change: list[float], won: float, bound: float,
            lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    q1b, medb, q3b = quartiles(base)
    q1c, medc, q3c = quartiles(change)
    gain = sign * (medb - medc)  # > 0 when the change is better
    if won >= 0.9 and gain > q3b - q1b:
        return "improved"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if ((q3b - q1b) / medb > bound or (q3c - q1c) / medc > bound) and not all_better:
        return "unresolved"
    if -gain / medb > bound:
        return "regressed"
    return "no worse"


def compare_end_to_end(spec: dict, base: dict, change: dict) -> bool:
    regressed = False
    print(f"{'workload':14s} {'metric':16s} {'base median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s} {'won':>7s}  verdict")
    for workload in WORKLOADS:
        if workload not in base or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: r["metrics"][name]["value"] for s, r in base[workload].items()}
            c = {s: r["metrics"][name]["value"] for s, r in change[workload].items()}
            lower = metric["better"] == "lower"
            runs = pairs(b, c)
            wins = sum((y < x) if lower else (y > x) for x, y in runs)
            v = verdict(list(b.values()), list(c.values()), wins / len(runs),
                        metric["bound"], lower)
            regressed |= v == "regressed"
            qb, qc = quartiles(list(b.values())), quartiles(list(c.values()))
            print(f"{workload:14s} {name:16s}"
                  f" {qb[1]:12.4f} [{qb[0]:9.4f}, {qb[2]:9.4f}]"
                  f" {qc[1]:12.4f} [{qc[0]:9.4f}, {qc[2]:9.4f}]"
                  f" {wins:3d}/{len(runs):<3d}  {v}")
    return regressed


def compare_layers(spec: dict, base: dict, change: dict) -> None:
    print(f"{'workload':14s} {'per-layer metric':26s} {'base':>14s} {'change':>14s} {'delta':>9s}  note")
    for workload in WORKLOADS:
        if workload not in base or workload not in change:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload].values()]
            c = [r["metrics"][name]["value"] for r in change[workload].values()]
            mb, mc = statistics.median(b), statistics.median(c)
            delta = f"{(mc - mb) / mb:+.1%}" if mb else "n/a"
            notes = []
            if metric["unit"] in ("count", "bytes"):
                if len(set(b)) > 1:
                    notes.append("varies in base")
                if len(set(c)) > 1:
                    notes.append("varies in change")
                if set(b) != set(c):
                    notes.append("differs")
            print(f"{workload:14s} {name:26s} {mb:14.4f} {mc:14.4f} {delta:>9s}  {', '.join(notes)}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base_dir, change_dir = map(Path, argv)
    regressed = False
    base, change = load(base_dir, 0), load(change_dir, 0)
    if base.keys() & change.keys():
        regressed = compare_end_to_end(spec, base, change)
    base, change = load(base_dir, 1), load(change_dir, 1)
    if base.keys() & change.keys():
        compare_layers(spec, base, change)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
