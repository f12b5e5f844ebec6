"""Shared test corpus of numerical semigroups.

Generator tuples only; construct on demand.  Multiplicities range from
1 to 19 so the acceptance filters (<= 13 for the counting law, <= 9 for
the brute-force oracle) both have enough members.  ``random_semigroups``
adds a seeded stream of larger ones, for the mask builder's tests and
``sweep_oracle.py``, and ``semigroups_by_genus`` every semigroup up to a
genus.
"""

import random
from math import gcd
from typing import Iterator

from fengrao import NumericalSemigroup, from_generators
# the acceptance criteria, whose file does not change, import it by this name
from fengrao import smallest_asymptotic_base as base_point  # noqa: F401

CORPUS: list[tuple[int, ...]] = [
    (1,),
    (2, 3),
    (3, 4),
    (3, 5),
    (3, 7),
    (4, 5),
    (4, 6, 7),
    (4, 7, 9),
    (5, 6, 7),
    (5, 7, 9),
    (5, 8),
    (6, 7, 8, 9),
    (6, 10, 15),
    (7, 8),
    (7, 10, 12),
    (8, 9, 10, 11, 12),
    (9, 13, 15),
    (10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
    (11, 13),
    (12, 13, 14, 15, 16, 17),
    (13, 14, 15),
    (19, 20, 21, 22, 23),
]


def corpus_semigroups(max_multiplicity: int | None = None) -> list[NumericalSemigroup]:
    out = [from_generators(gens) for gens in CORPUS]
    if max_multiplicity is not None:
        out = [s for s in out if s.multiplicity <= max_multiplicity]
    return out


def random_semigroups(seed: int) -> Iterator[NumericalSemigroup]:
    """An endless seeded stream of semigroups with 2 to 5 generators and
    multiplicity <= 40; the largest conductors reach a few thousand."""
    rng = random.Random(seed)
    while True:
        a = rng.randint(2, 40)
        gens = [a, *rng.sample(range(a + 1, 3 * a + 2), rng.randint(1, 4))]
        if gcd(*gens) == 1:
            yield from_generators(gens)


def semigroups_by_genus(max_genus: int) -> list[list[NumericalSemigroup]]:
    """Every numerical semigroup of genus 0..max_genus, one list per genus.

    Each semigroup of genus g + 1 is S without x for exactly one S of
    genus g and one minimal generator x of S above its Frobenius number
    (Rosales and Garcia-Sanchez, "Numerical Semigroups", 2009).  The
    generators of S without x are among those of S other than x, x plus
    each generator of S, and 3x; ``from_generators`` keeps the minimal ones.
    """
    levels = [[from_generators([1])]]
    for _ in range(max_genus):
        children = []
        for s in levels[-1]:
            gens = s.minimal_generators
            for x in gens:
                if x > s.frobenius:
                    rest = [n for n in gens if n != x] + [x + n for n in gens]
                    children.append(from_generators(rest + [3 * x]))
        levels.append(children)
    return levels
