"""Numerical semigroups: canonical construction and basic invariants.

A numerical semigroup S is a cofinite submonoid of the non-negative
integers.  Everything downstream (divisor sets, amenable sets, Feng-Rao
distances) queries membership heavily, so construction eagerly computes
the least element of S in every residue class modulo the multiplicity;
membership is then a single table lookup, and the conductor, genus and
minimal generators are all read off that table; the gaps and the
Frobenius number are derived from it when read.  Construction also
writes S intersect [0, c] once, one slice per residue class from its
least element, and keeps it as the small elements and as two private
int masks (bit s, and bit c - s, for each small element s), which every
divisor mask is cut or extended from.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidInput

# Desk-scale guards, checked before anything is allocated: construction
# builds a table of a_1 entries, a tuple of the small elements, at most
# c + 1 entries, and two masks of c + 1 bits.  Schur's bound
# c <= (a_1 - 1)(a_j - 1), with a_j the first generator at which the
# running gcd reaches 1, caps c.
_MAX_MULTIPLICITY = 1_000
_MAX_CONDUCTOR_BOUND = 1_000_000
# Largest x a divisor mask is built up to, checked before its x + 1 bits
# exist.
_MAX_ELEMENT = 4_000_000

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # a flag byte to a binary digit


def _check_element(x: int) -> None:
    """Refuse an x above _MAX_ELEMENT, before anything sized by x exists."""
    if x > _MAX_ELEMENT:
        raise InvalidInput(f"element {x} exceeds the guard of {_MAX_ELEMENT}")


def _least_in_residues(gens: Sequence[int], mult: int) -> list[int]:
    """Least element of <gens> in each residue class mod mult (Dijkstra)."""
    dist: list[int] = [-1] * mult
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d != dist[v]:
            continue
        for g in gens:
            nv = (v + g) % mult
            nd = d + g
            if dist[nv] < 0 or nd < dist[nv]:
                dist[nv] = nd
                heapq.heappush(heap, (nd, nv))
    return dist


@dataclass(frozen=True)
class NumericalSemigroup:
    """Canonical form of a numerical semigroup.

    Build instances with :func:`from_generators`; the constructor assumes
    all fields are already consistent.
    """

    minimal_generators: tuple[int, ...]
    multiplicity: int
    conductor: int
    genus: int
    small_elements: tuple[int, ...]
    # least element of S in each residue class mod multiplicity
    _least: tuple[int, ...] = field(repr=False)
    # S intersect [0, c] as bit s, and reversed as bit c - s, for each small
    # element s; both follow from _least, so they take no part in ==
    _small_mask: int = field(repr=False, compare=False)
    _small_rev: int = field(repr=False, compare=False)

    def contains(self, n: int) -> bool:
        """True iff n is an element of S; a negative n is below every _least."""
        return n >= self._least[n % self.multiplicity]

    def rho(self, i: int) -> int:
        """i-th smallest element (1-based): rho(1) = 0, rho(2) = multiplicity."""
        if i < 1:
            raise InvalidInput(f"element index must be >= 1, got {i}")
        small = self.small_elements
        if i <= len(small):
            return small[i - 1]
        # beyond the conductor the elements are consecutive integers
        return self.genus + i - 1

    @property
    def largest_generator(self) -> int:
        """n_e, the largest minimal generator."""
        return self.minimal_generators[-1]

    @property
    def frobenius(self) -> int:
        """Largest gap, c - 1; -1 for S = N."""
        return self.conductor - 1

    @property
    def gaps(self) -> tuple[int, ...]:
        """The g gaps of S, ascending, built on each read."""
        return tuple(n for n in range(self.conductor) if not self.contains(n))


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Construct the numerical semigroup generated by ``gens``.

    The generator list is minimalized (generators that are sums of other
    elements are dropped).  Raises InvalidInput for an empty or non-positive
    list, one with gcd != 1, or one whose multiplicity or conductor bound
    exceeds the guards.
    """
    unique = sorted(set(gens))
    if not unique:
        raise InvalidInput("generator list is empty")
    if unique[0] < 1:
        raise InvalidInput(f"generators must be positive, got {unique[0]}")
    if gcd(*unique) != 1:
        raise InvalidInput(f"gcd of generators is {gcd(*unique)}, not 1")

    mult = unique[0]
    if mult > _MAX_MULTIPLICITY:
        raise InvalidInput(
            f"multiplicity {mult} exceeds the guard of {_MAX_MULTIPLICITY}"
        )
    running = 0
    for a_j in unique:
        running = gcd(running, a_j)
        if running == 1:
            break
    schur = (mult - 1) * (a_j - 1)
    if schur > _MAX_CONDUCTOR_BOUND:
        raise InvalidInput(
            f"conductor bound (a_1 - 1)(a_j - 1) = {schur} exceeds the guard "
            f"of {_MAX_CONDUCTOR_BOUND}"
        )
    # every other generator is the least one of its residue class mod mult
    # plus a multiple of mult, so the least ones alone generate S
    unique = sorted({g % mult: g for g in reversed(unique)}.values())
    least = _least_in_residues(unique, mult)
    conductor = max(least) - mult + 1
    genus = sum(d // mult for d in least)
    # S intersect [0, c], one flag per integer: a residue class mod mult
    # holds its least element d and every d + k * mult, (c - d) // mult + 1
    # of them up to c, which is 0 for d > c because d < c + mult
    flags = bytearray(conductor + 1)
    for d in least:
        flags[d::mult] = b"\x01" * ((conductor - d) // mult + 1)
    digits = flags.translate(_DIGITS)
    # g is a sum of two nonzero elements iff g - h is in S for a minimal
    # generator h inside the first summand; g - h below mult is a gap
    minimal: list[int] = []
    for g in unique:
        below = minimal[: bisect_right(minimal, g - mult)]
        if all(g - h < least[(g - h) % mult] for h in below):
            minimal.append(g)

    sgp = NumericalSemigroup(
        minimal_generators=tuple(minimal),
        multiplicity=mult,
        conductor=conductor,
        genus=genus,
        small_elements=tuple(compress(range(conductor + 1), flags)),
        _least=tuple(least),
        _small_mask=int(digits[::-1], 2),
        _small_rev=int(digits, 2),
    )
    assert sgp.conductor <= 2 * sgp.genus
    return sgp
