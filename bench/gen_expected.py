"""Write expected.json, the reference answers of every workload.

Each Feng-Rao number is computed by two independent methods and written
only when they agree: the generic search and the interval closed form for
interval generators, the generic search and brute force for the corpus.
The divisor-window digest (sum of all divisors over the window) comes
from ``divisors`` after every count in the window has passed the
counting law #D(x) = x + 1 - 2g.

    python3 bench/gen_expected.py          # about 20 s

Run it only when a workload changes; the benchmark compares against the
checked-in file.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fengrao import (  # noqa: E402
    brute_force_distance,
    divisors,
    feng_rao_number,
    from_generators,
    interval_feng_rao_number,
    smallest_asymptotic_base,
)

import workloads as wl  # noqa: E402


def interval_numbers(a: int, b: int, rmax: int) -> list[int]:
    sgp = from_generators(range(a, a + b + 1))
    out = []
    for r in range(1, rmax + 1):
        generic = feng_rao_number(sgp, r).e_number
        closed = interval_feng_rao_number(a, b, r)
        if generic != closed:
            raise SystemExit(f"<{a}..{a + b}> r={r}: generic {generic} != closed form {closed}")
        out.append(generic)
    return out


def corpus_entry(gens: tuple[int, ...]) -> dict:
    sgp = from_generators(gens)
    entry = {
        "conductor": sgp.conductor,
        "genus": sgp.genus,
        "largest_generator": sgp.largest_generator,
    }
    lo = max(2 * sgp.conductor - 1, 0)
    total = 0
    for x in range(lo, lo + wl.WINDOW_SPAN * sgp.largest_generator + 1):
        dset = divisors(sgp, x)
        if len(dset) != x + 1 - 2 * sgp.genus:
            raise SystemExit(f"{gens}: #D({x}) = {len(dset)} breaks the counting law")
        total += sum(dset.elements)
    entry["divisor_sum"] = total
    if gens[0] <= wl.ORACLE_MAX_MULTIPLICITY:
        m = smallest_asymptotic_base(sgp)
        numbers = []
        for r in range(1, wl.ORACLE_RMAX + 1):
            generic = feng_rao_number(sgp, r).e_number
            brute = brute_force_distance(sgp, m, r).e_number
            if generic != brute:
                raise SystemExit(f"{gens} r={r}: generic {generic} != brute force {brute}")
            numbers.append(generic)
        entry["e"] = numbers
    return entry


def main() -> None:
    interval = {
        f"{a},{b}": interval_numbers(a, b, wl.GRID_RMAX)
        for a in range(2, 13)
        for b in range(1, a)
    }
    for a, b, rmax in (wl.DEEP_R, wl.WIDE_GROUND):
        interval[f"{a},{b}"] = interval_numbers(a, b, rmax)
    corpus = {wl.gens_key(g): corpus_entry(g) for g in wl.CORPUS}
    out = HERE / "expected.json"
    text = json.dumps({"interval": interval, "corpus": corpus}, indent=1)
    # one line per list keeps the file readable and its diffs small
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m.group())), text)
    out.write_text(text + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
