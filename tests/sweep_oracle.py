"""Full sweeps of the interval decomposition and of the brute-force oracle.

Not collected by pytest (the name does not start with ``test_``).  Run it
from the repository root:

    PYTHONPATH=src python tests/sweep_oracle.py [--amax 30] [--rmax 16]

Part one compares the isqrt ``h_decompose`` with the block walk of
``interval_reference.py`` at every b <= 20, r <= 30,000.  Part two
compares brute force at m = 2c - 1 with the interval closed form at every
point of b < a <= amax, r <= rmax.  Part three compares it with the
generic search on the test corpus at the bases 2c - 1, ..., 2c + 5, for
r <= 8 and, on the semigroups with conductor c <= 48, for every r <= c + 1
as well (brute force took 41-56 s for r = 40 alone on <11, 13>, c = 120,
and 46 s for r 1..40 in one walk).  In parts two and three brute force
answers each semigroup and base in one ``brute_force_distances`` walk
over the whole range of r, as the generic search does.  For the same
semigroups and sizes part three also runs the
generic search at m = 2c - 1 + 10^6, past the element guard of the
divisor masks, and checks delta and witness against the 2c - 1 answer
translated by 10^6.  Its second half compares brute force with the
generic search, delta and witness, at m = 2c - 1 and every r <= c + 1 on
every semigroup of genus <= 12 with c >= 2 (1,412 of the 1,413, from
``corpus.semigroups_by_genus``).  Part four compares the bitmask ``divisors`` with
the double loop {p <= x : p in S, x - p in S} at every element
x <= 2c + 2n_e, ``divisors_above(y, x)`` with D(y) cut to [x, inf)
at every c <= x <= y in that range, and ``divisors_of_set`` with the
union of the double loops on every pair of consecutive elements and on
seeded random triples of elements in that range, for every <a..a+b>
with b < a <= 20, every corpus semigroup and eight seeded random
semigroups with 2 to 5 generators and multiplicity <= 40, one with its
conductor in each eighth of (0, 2,000], so both branches of the mask
builder (below c and from c on) are swept at scale.  Each part prints
its range, point count, mismatches and wall time; the exit code is 1 on
any mismatch.  No subset cap applies: the sweep wants every point answered.

Part five is an observation, not a check, and never sets the exit code:
it prints every semigroup where E(S, c) != rho_c, one size below the
r >= c + 1 where E = rho_r is known, and, kept apart, every one where
E(S, c - 1) != rho_(c-1), which fails on <a..2a-1>.  It reads E from the
closed form on <a..a+b> with b < a <= amax, and from the generic search
on the corpus, on the semigroups with c <= 60 among the first 3,000 of a
seeded random stream, and on every semigroup of genus <= 14 with c >= 2.

Part six checks the Farran-Munuera bound E(S, r) <= rho_r, with equality
for r >= c + 1, from the generic search at every r <= c + 2 on <10, 29>
(c = 252) and on four three-generator semigroups with c from 106 to 132,
past the conductors of the tier-1 checks; a violation sets the exit code
too.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

# tests/, the script's directory, is on sys.path
from corpus import CORPUS, random_semigroups, semigroups_by_genus
from interval_reference import block_walk_decompose

from fengrao import (
    as_interval,
    brute_force_distances,
    divisors,
    divisors_above,
    divisors_of_set,
    feng_rao_distances,
    from_generators,
    h_decompose,
    interval_feng_rao_number,
    interval_semigroup,
    smallest_asymptotic_base,
)

NO_CAP = float("inf")
DECOMPOSE_BMAX = 20
DECOMPOSE_RMAX = 30_000
CORPUS_RMAX = 8
CORPUS_CMAX = 48  # r runs to c + 1 up to this conductor
CORPUS_OFFSETS = range(7)
FAR_SHIFT = 10**6
DIVISORS_AMAX = 20
TRIPLES = 20  # random element triples per semigroup
RANDOM_SEMIGROUPS = 8
RANDOM_CMAX = 2_000
OBSERVE_CMAX = 60
OBSERVE_DRAWS = 3_000
GENUS_BRUTE = 12  # brute force against generic on every semigroup up to this genus
GENUS_OBSERVE = 14  # and the E(S, c) observation
# c = 252, 106, 119, 126 and 132
RHO_BOUND_GENS = [(10, 29), (10, 23, 27), (11, 25, 29), (10, 27, 33), (9, 31, 35)]


def sweep_decomposition() -> tuple[int, list[tuple]]:
    points, mismatches = 0, []
    for b in range(1, DECOMPOSE_BMAX + 1):
        for r in range(1, DECOMPOSE_RMAX + 1):
            points += 1
            d = h_decompose(r, b)
            walked = block_walk_decompose(r, b)
            if (d.h, d.k, d.j) != walked:
                mismatches.append((b, r, (d.h, d.k, d.j), walked))
    return points, mismatches


def sweep_closed_form(amax: int, rmax: int) -> tuple[int, list[tuple]]:
    points, mismatches = 0, []
    for a in range(2, amax + 1):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            m = smallest_asymptotic_base(s)
            for res in brute_force_distances(s, m, range(1, rmax + 1), NO_CAP):
                points += 1
                closed = interval_feng_rao_number(a, b, res.r)
                if res.e_number != closed:
                    mismatches.append((a, b, res.r, res.e_number, closed))
    return points, mismatches


def sweep_generic() -> tuple[int, int, list[tuple]]:
    points, shifted, mismatches = 0, 0, []
    for gens in CORPUS:
        s = from_generators(gens)
        rmax = CORPUS_RMAX
        if s.conductor <= CORPUS_CMAX:
            rmax = max(rmax, s.conductor + 1)
        sizes = range(1, rmax + 1)
        base = smallest_asymptotic_base(s)
        for offset in CORPUS_OFFSETS:
            m = base + offset
            pairs = zip(brute_force_distances(s, m, sizes, NO_CAP),
                        feng_rao_distances(s, m, sizes))
            for brute, res in pairs:
                points += 1
                if brute.delta != res.delta:
                    mismatches.append((gens, m, res.r, brute.delta, res.delta,
                                       brute.witness.elements, res.witness.elements))
        # far past the element guard: the 2c - 1 answer translated
        pairs = zip(feng_rao_distances(s, base, sizes),
                    feng_rao_distances(s, base + FAR_SHIFT, sizes))
        for near, far in pairs:
            shifted += 1
            moved = tuple(x + FAR_SHIFT for x in near.witness.elements)
            if far.delta != near.delta + FAR_SHIFT or far.witness.elements != moved:
                mismatches.append((gens, far.m, far.r, near.delta + FAR_SHIFT, far.delta,
                                   moved, far.witness.elements))
    return points, shifted, mismatches


def every_semigroup(max_genus: int) -> list:
    """Every numerical semigroup of genus <= max_genus with c >= 2."""
    return [s for level in semigroups_by_genus(max_genus) for s in level if s.conductor >= 2]


def sweep_genus() -> tuple[int, int, list[tuple]]:
    semigroups = every_semigroup(GENUS_BRUTE)
    points, mismatches = 0, []
    for s in semigroups:
        m = smallest_asymptotic_base(s)
        sizes = range(1, s.conductor + 2)
        pairs = zip(brute_force_distances(s, m, sizes, NO_CAP), feng_rao_distances(s, m, sizes))
        for brute, res in pairs:
            points += 1
            if (brute.delta, brute.witness) != (res.delta, res.witness):
                mismatches.append((s.minimal_generators, res.r, brute.delta, res.delta,
                                   brute.witness.elements, res.witness.elements))
    return len(semigroups), points, mismatches


def banded_semigroups(count: int, cmax: int, seed: int) -> list:
    """From the seeded random stream, the first semigroup with its conductor
    in each of ``count`` equal bands of (0, cmax]."""
    bands: dict = {}
    for s in random_semigroups(seed):
        if 0 < s.conductor <= cmax:
            bands.setdefault((s.conductor - 1) * count // cmax, s)
            if len(bands) == count:
                return [bands[band] for band in sorted(bands)]


def sweep_divisors() -> tuple[int, int, int, list[tuple]]:
    semigroups = [from_generators(gens) for gens in CORPUS] + [
        interval_semigroup(a, b)
        for a in range(2, DIVISORS_AMAX + 1)
        for b in range(1, a)
    ] + banded_semigroups(RANDOM_SEMIGROUPS, RANDOM_CMAX, seed=15)
    rng = random.Random(2024)
    points, cuts, unions, mismatches = 0, 0, 0, []
    for s in semigroups:
        loops = {}  # element y -> the double loop D(y)
        for y in range(2 * s.conductor + 2 * s.largest_generator + 1):
            if not s.contains(y):
                continue
            points += 1
            d = divisors(s, y)
            loop = loops[y] = [p for p in range(y + 1) if s.contains(p) and s.contains(y - p)]
            if list(d) != loop:
                mismatches.append((s.minimal_generators, y, d.elements, tuple(loop)))
            for x in range(s.conductor, y + 1):
                cuts += 1
                above = divisors_above(s, y, x)
                if above.mask != d.mask >> x << x:
                    mismatches.append((s.minimal_generators, y, x, above.elements))
        elements = list(loops)
        configs = list(zip(elements, elements[1:]))
        configs += [rng.sample(elements, 3) for _ in range(TRIPLES)]
        for config in configs:
            unions += 1
            union = sorted({p for y in config for p in loops[y]})
            if list(divisors_of_set(s, config)) != union:
                mismatches.append((s.minimal_generators, config))
    return points, cuts, unions, mismatches


def sweep_rho_bound() -> tuple[int, list[tuple]]:
    """E(S, r) <= rho_r at every r <= c + 2, with equality from r = c + 1."""
    points, mismatches = 0, []
    for gens in RHO_BOUND_GENS:
        s = from_generators(gens)
        c = s.conductor
        results = feng_rao_distances(s, smallest_asymptotic_base(s), range(1, c + 3))
        points += len(results)
        mismatches += [
            (gens, res.r, res.e_number, s.rho(res.r))
            for res in results
            if res.e_number > s.rho(res.r) or (res.r > c and res.e_number != s.rho(res.r))
        ]
    return points, mismatches


def observe_rho_at_conductor(amax: int) -> tuple[int, list[tuple], list[tuple]]:
    """The semigroups with E(S, c) != rho_c and those with E(S, c - 1) != rho_(c-1)."""
    numbers = {}  # generators -> (E(S, c - 1), E(S, c), the semigroup)
    for a in range(2, amax + 1):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            c = s.conductor
            numbers[s.minimal_generators] = (
                interval_feng_rao_number(a, b, c - 1), interval_feng_rao_number(a, b, c), s,
            )
    draws = [from_generators(gens) for gens in CORPUS]
    draws += [s for _, s in zip(range(OBSERVE_DRAWS), random_semigroups(16))]
    draws += every_semigroup(GENUS_OBSERVE)
    for s in draws:
        c = s.conductor
        if c < 2 or c > OBSERVE_CMAX or as_interval(s) or s.minimal_generators in numbers:
            continue
        below, at = feng_rao_distances(s, smallest_asymptotic_base(s), range(c - 1, c + 1))
        numbers[s.minimal_generators] = (below.e_number, at.e_number, s)
    at_c, below_c = [], []
    for gens, (below, at, s) in numbers.items():
        c = s.conductor
        if at != s.rho(c):
            at_c.append((gens, c, at, s.rho(c)))
        if below != s.rho(c - 1):
            below_c.append((gens, c - 1, below, s.rho(c - 1)))
    return len(numbers), at_c, below_c


def report(label: str, points: int, mismatches: list[tuple], seconds: float) -> None:
    print(f"{label}: {points} points, {len(mismatches)} mismatches, {seconds:.1f} s")
    for mismatch in mismatches:
        print(f"  mismatch {mismatch}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--amax", type=int, default=30)
    parser.add_argument("--rmax", type=int, default=16)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    points, decomposed = sweep_decomposition()
    report(f"isqrt vs block walk decomposition, b <= {DECOMPOSE_BMAX}, "
           f"r <= {DECOMPOSE_RMAX}", points, decomposed, time.perf_counter() - t0)
    t0 = time.perf_counter()
    points, closed = sweep_closed_form(args.amax, args.rmax)
    report(f"brute vs closed form, b < a <= {args.amax}, r <= {args.rmax}, m = 2c-1",
           points, closed, time.perf_counter() - t0)
    t0 = time.perf_counter()
    points, shifted, generic = sweep_generic()
    report(f"brute vs generic, {len(CORPUS)} corpus semigroups, r <= {CORPUS_RMAX} "
           f"(r <= c + 1 where c <= {CORPUS_CMAX}), m = 2c-1 + 0..{CORPUS_OFFSETS[-1]} "
           f"({points} x), and generic at m = 2c-1 + {FAR_SHIFT} vs the 2c-1 answer "
           f"translated ({shifted} x)",
           points + shifted, generic, time.perf_counter() - t0)
    t0 = time.perf_counter()
    semigroups, points, genus = sweep_genus()
    report(f"brute vs generic, delta and witness, every semigroup of genus <= "
           f"{GENUS_BRUTE} with c >= 2 ({semigroups}), r <= c + 1, m = 2c-1",
           points, genus, time.perf_counter() - t0)
    t0 = time.perf_counter()
    points, cuts, unions, divs = sweep_divisors()
    report(f"bitmask divisors vs double loop ({points} x), divisors_above vs "
           f"D(y) cut to [x, inf) ({cuts} pairs) and divisors_of_set vs the union "
           f"of double loops ({unions} sets), x <= 2c + 2n_e, corpus, "
           f"<a..a+b> with b < a <= {DIVISORS_AMAX} and {RANDOM_SEMIGROUPS} random "
           f"semigroups with c <= {RANDOM_CMAX}",
           points + cuts + unions, divs, time.perf_counter() - t0)
    t0 = time.perf_counter()
    points, at_c, below_c = observe_rho_at_conductor(args.amax)
    print(f"observed: E(S, c) = rho_c on {points - len(at_c)} of {points} semigroups "
          f"(<a..a+b> with b < a <= {args.amax}, corpus, c <= {OBSERVE_CMAX} among "
          f"{OBSERVE_DRAWS} random, genus <= {GENUS_OBSERVE}), "
          f"{time.perf_counter() - t0:.1f} s")
    for gens, r, e, rho in at_c:
        print(f"  counterexample {gens}: E(S, {r}) = {e}, rho_{r} = {rho}")
    print(f"observed: E(S, c - 1) = rho_(c-1) on {points - len(below_c)} of {points}")
    for gens, r, e, rho in below_c:
        print(f"  miss {gens}: E(S, {r}) = {e}, rho_{r} = {rho}")
    t0 = time.perf_counter()
    points, bound = sweep_rho_bound()
    on = ", ".join("<" + ",".join(map(str, gens)) + ">" for gens in RHO_BOUND_GENS)
    report(f"E(S, r) <= rho_r, equal from r = c + 1, on {on} at every r <= c + 2",
           points, bound, time.perf_counter() - t0)
    return 1 if decomposed or closed or generic or genus or divs or bound else 0


if __name__ == "__main__":
    sys.exit(main())
