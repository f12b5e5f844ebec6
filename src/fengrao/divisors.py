"""Divisor sets D(x) and divisor counts of configurations.

alpha in S divides x in S when x - alpha is again in S, so
D(x) = S intersect (x - S).  Past the conductor c membership is free,
so ``divisors`` tests only the elements below c and takes the block
[c, x - c] whole; an x above the element guard of ``semigroup`` is
refused before anything sized by x is built.  Divisor sets are kept as
sorted tuples, so results are deterministic; ``divisors_of_set`` unions
them as Python sets, and the distance searches in ``distances`` union
them as int bitmasks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidInput
from .semigroup import NumericalSemigroup, _check_element


@dataclass(frozen=True)
class DivisorSet:
    """Sorted divisors of one element or of a configuration."""

    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, n: int) -> bool:
        return n in self.elements


def divisors(sgp: NumericalSemigroup, x: int) -> DivisorSet:
    """D(x) = {s in S | x - s in S}, ascending, in three zones.

    Every s in [c, x - c] divides x, since both s and x - s are at least
    c.  Below and above that block one of s and x - s is an element
    t < c: an element t <= x - c divides x together with x - t, and any
    other element below c is tested for x - t in S.  The work is O(c)
    plus the size of D(x).
    """
    if not sgp.contains(x):
        raise InvalidInput(f"{x} is not an element of the semigroup")
    _check_element(x)
    c = sgp.conductor
    below = sgp.small_elements[:-1]  # the elements below c; the last one is c
    k = bisect_right(below, x - c)
    divs = list(below[:k])
    divs.extend(t for t in below[k:] if t <= x and sgp.contains(x - t))
    divs.extend(range(c, x - c + 1))
    divs.extend([x - t for t in reversed(below[:k])])
    return DivisorSet(elements=tuple(divs))


def divisors_of_set(sgp: NumericalSemigroup, elements: Iterable[int]) -> DivisorSet:
    """Union of the divisor sets of the given semigroup elements."""
    union: set[int] = set()
    for x in sorted(set(elements)):
        union.update(divisors(sgp, x).elements)
    return DivisorSet(elements=tuple(sorted(union)))


def nu(sgp: NumericalSemigroup, elements: Iterable[int]) -> int:
    """Number of divisors of a configuration (cardinality of the union)."""
    return len(divisors_of_set(sgp, elements))


def divisors_above(sgp: NumericalSemigroup, y: int, x: int) -> DivisorSet:
    """D(y) cut to [x, infinity), computed as (y - S) cut to [x, infinity).

    Valid for c <= x <= y; in that range every difference y - s that is
    >= x is automatically an element, so S_y is never enumerated.
    """
    if not sgp.contains(y):
        raise InvalidInput(f"{y} is not an element of the semigroup")
    if not sgp.conductor <= x <= y:
        raise InvalidInput(
            f"need conductor {sgp.conductor} <= x <= y, got x={x}, y={y}"
        )
    divs = tuple(y - s for s in reversed(sgp.elements_up_to(y - x)))
    return DivisorSet(elements=divs)
