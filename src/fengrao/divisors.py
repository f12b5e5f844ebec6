"""Divisor sets D(x) and divisor counts of configurations.

alpha in S divides x in S when x - alpha is again in S, so
D(x) = S intersect (x - S).  A divisor set is one int with bit d set for
each divisor d, and a union of divisor sets is an OR.  D(x) has one
construction, for a window of consecutive x at once, of which ``divisors``
is the one-element case: S intersect [0, x] is written once as binary
digits, "1" at index s for each element s.  Read backwards they are the
mask of S, forwards the mask of x - S, and D(x) is the AND of the two;
the next x shifts the mask of x - S left by one.  Each mask is built in
time linear in its width, and an x above the element guard of
``semigroup`` is refused before anything sized by x is built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from .errors import InvalidInput
from .semigroup import NumericalSemigroup, _check_element

_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class DivisorSet:
    """Divisors as the int ``mask`` with bit d set for each divisor d."""

    mask: int

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = bin(self.mask)[:1:-1].encode().translate(_BIT_VALUES)  # bit d at d
        return compress(range(len(bits)), bits)

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (self.mask >> n) & 1 == 1

    def __repr__(self) -> str:  # a decimal mask fails past 4,300 digits
        return f"DivisorSet(elements={self.elements})"


def _element_digits(sgp: NumericalSemigroup, x: int) -> bytearray:
    """S intersect [0, x] as ASCII binary digits, "1" at index s for s in S."""
    digits = bytearray(b"0") * (x + 1)
    digits[sgp.conductor :] = b"1" * (x + 1 - sgp.conductor)
    for s in sgp.small_elements[: bisect_right(sgp.small_elements, x)]:
        digits[s] = 49  # ord("1")
    return digits


def _divisor_masks(sgp: NumericalSemigroup, lo: int, hi: int) -> list[int]:
    """The masks of D(x) for every x in the nonempty range(lo, hi), 0 off S.

    The digits of S intersect [0, hi - 1] are written once.  The mask of
    x - S is that of x - 1 - S shifted left once, with bit 0 set when x is
    in S, and each D(x) is its AND with the mask of S.  The work is O(c)
    Python steps plus O(hi) machine work per x.
    """
    _check_element(hi - 1)
    digits = _element_digits(sgp, hi - 1)
    elements = int(digits[::-1], 2)
    rev = int(digits, 2) >> (hi - 1 - lo)  # the mask of lo - S
    masks = [elements & rev]
    for x in range(lo + 1, hi):
        rev = rev << 1 | digits[x] - 48  # digits[x] is ord("0") or ord("1")
        masks.append(elements & rev)
    return masks


def divisors(sgp: NumericalSemigroup, x: int) -> DivisorSet:
    """D(x) = S intersect (x - S): the window of _divisor_masks at x alone."""
    if not sgp.contains(x):
        raise InvalidInput(f"{x} is not an element of the semigroup")
    return DivisorSet(_divisor_masks(sgp, x, x + 1)[0])


def divisors_of_set(sgp: NumericalSemigroup, elements: Iterable[int]) -> DivisorSet:
    """Union of the divisor sets of the given semigroup elements."""
    mask = 0
    for x in sorted(set(elements)):
        mask |= divisors(sgp, x).mask
    return DivisorSet(mask)


def nu(sgp: NumericalSemigroup, elements: Iterable[int]) -> int:
    """Number of divisors of a configuration (cardinality of the union)."""
    return len(divisors_of_set(sgp, elements))


def divisors_above(sgp: NumericalSemigroup, y: int, x: int) -> DivisorSet:
    """D(y) cut to [x, infinity), computed as (y - S) cut to [x, infinity).

    Valid for c <= x <= y; in that range every difference y - s that is
    >= x is automatically an element, so the mask is the digits of
    S intersect [0, y - x] shifted left by x.  It is y bits wide, so y
    answers to the element guard.
    """
    if not sgp.contains(y):
        raise InvalidInput(f"{y} is not an element of the semigroup")
    _check_element(y)
    if not sgp.conductor <= x <= y:
        raise InvalidInput(
            f"need conductor {sgp.conductor} <= x <= y, got x={x}, y={y}"
        )
    return DivisorSet(int(_element_digits(sgp, y - x), 2) << x)
