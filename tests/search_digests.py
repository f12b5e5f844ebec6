"""A differential of the generic search's answers against committed digests.

Not collected by pytest (the name does not start with ``test_``).  Run it
from the repository root:

    PYTHONPATH=src python tests/search_digests.py [--write]

Brute force referees only conductors up to 48 and the genus sweep only
m = 2c - 1, so this pins ``feng_rao_distances`` where no oracle reaches:
other bases, sizes past c + 1 and larger conductors.  Each case is a
(semigroup, m, range of sizes) and its digest covers delta, E and the
witness of every size in the range.  The cases:

- every semigroup of genus <= 11, the test corpus, every <a..a+b> with
  b < a <= 14 and the first 60 semigroups of multiplicity <= 14 and
  conductor <= 80 from a seeded random stream;
- for each, the ranges 1..top, top//2..top and top..top with
  top = min(c + 1, 12), at m = 2c - 1 and at 2c + 6;
- <16, 17> at r 1..1000, <10, 29> at r 1..254 and <11, 13> at r 1..121,
  at m = 2c - 1.

``search_digests.txt`` holds a digest of the case list on its first line
and one digest per case after it, so the file stays small.  The script
prints the semigroup, m, range and both digests of every case that
differs and exits 1; ``--write`` rewrites the file from the search as it
is.  Hook and node counts are left out on purpose: a faster walk changes
them, and only the answers are the contract.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from itertools import islice
from pathlib import Path

# tests/, the script's directory, is on sys.path
from corpus import CORPUS, random_semigroups, semigroups_by_genus

from fengrao import (
    feng_rao_distances,
    from_generators,
    interval_semigroup,
    smallest_asymptotic_base,
)

DIGESTS = Path(__file__).with_name("search_digests.txt")
GENUS = 11
INTERVAL_AMAX = 14
DRAWS = 60
DRAW_SEED = 11
TOP = 12  # the ranges end at min(c + 1, TOP)
OFFSETS = (0, 7)  # m = 2c - 1 and 2c + 6
LONG = [((16, 17), 1000), ((10, 29), 254), ((11, 13), 121)]


def cases() -> list[tuple]:
    """Every (semigroup, m, sizes) the file has a digest for, in file order."""
    semigroups = [s for level in semigroups_by_genus(GENUS) for s in level]
    semigroups += [from_generators(gens) for gens in CORPUS]
    semigroups += [
        interval_semigroup(a, b) for a in range(2, INTERVAL_AMAX + 1) for b in range(1, a)
    ]
    semigroups += islice(
        (s for s in random_semigroups(DRAW_SEED) if s.multiplicity <= 14 and s.conductor <= 80),
        DRAWS,
    )
    out = []
    for s in semigroups:
        top = min(s.conductor + 1, TOP)
        for offset in OFFSETS:
            m = smallest_asymptotic_base(s) + offset
            for lo in (1, max(top // 2, 1), top):
                out.append((s, m, range(lo, top + 1)))
    for gens, rmax in LONG:
        s = from_generators(gens)
        out.append((s, smallest_asymptotic_base(s), range(1, rmax + 1)))
    return out


def label(case: tuple) -> str:
    s, m, sizes = case
    gens = ",".join(map(str, s.minimal_generators))
    return f"<{gens}> m={m} r={sizes.start}..{sizes[-1]}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def answer_digest(case: tuple) -> str:
    s, m, sizes = case
    return digest(repr([
        (res.r, res.delta, res.e_number, res.witness.elements)
        for res in feng_rao_distances(s, m, sizes)
    ]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the digest file from the current search")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    every = cases()
    listed = digest("\n".join(map(label, every)))
    header = f"{len(every)} cases {listed}"
    got = [answer_digest(case) for case in every]
    wall = time.perf_counter() - start
    if args.write:
        DIGESTS.write_text("\n".join([header, *got]) + "\n")
        print(f"wrote {len(every)} digests to {DIGESTS.name} in {wall:.1f} s")
        return 0

    expected_header, *expected = DIGESTS.read_text().splitlines()
    if expected_header != header:
        print(f"case list differs: file has '{expected_header}', script builds '{header}'")
        return 1
    mismatches = [
        (case, want, have) for case, want, have in zip(every, expected, got) if want != have
    ]
    for case, want, have in mismatches:
        print(f"MISMATCH {label(case)}: expected {want}, got {have}")
    print(f"{len(every)} cases, {len(mismatches)} mismatches, {wall:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
