"""Divisor sets D(x) and divisor counts of configurations.

alpha in S divides x in S when x - alpha is again in S, so
D(x) = S intersect (x - S) and D(M) = S intersect (union of x - S, x in M).
A divisor set is one int with bit d set for each divisor d.  Every mask
comes from one build, ``_element_masks(sgp, top)``: the mask of S and
that of top - S, which shifted right by top - x is the mask of x - S for
each x <= top.  So D(x), a window of D(x) and D(M) at top = max(M) each
take one build plus a shift per element.  A build only shifts and ORs
the two masks of S intersect [0, c] that the semigroup keeps, so it
costs O(top / word) machine steps and no Python step per element; a top
above the element guard of ``semigroup`` is refused first.  Results are
stored by ``_trusted``, without a call of ``DivisorSet.__init__``, and
``divisors`` tests membership inline, so D(x) costs one table lookup,
one build and one store.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from .errors import InvalidInput
from .semigroup import _MAX_ELEMENT, NumericalSemigroup, _check_element, _Record

_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class DivisorSet(_Record):
    """Divisors as the int ``mask`` with bit d set for each divisor d."""

    __slots__ = ("mask_",)

    def __init__(self, mask: int) -> None:
        self.mask_ = mask

    @property
    def elements(self) -> tuple[int, ...]:
        """The divisors as an ascending tuple."""
        return tuple(self)

    def __len__(self) -> int:
        return self.mask_.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = bin(self.mask_)[:1:-1].encode().translate(_BIT_VALUES)  # bit d at d
        return compress(range(len(bits)), bits)

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (self.mask_ >> n) & 1 == 1

    def __repr__(self) -> str:  # a decimal mask fails past 4,300 digits
        return f"DivisorSet(elements={self.elements})"


_new = object.__new__


def _trusted(mask: int) -> DivisorSet:
    """The DivisorSet of ``mask``, stored without a call of ``__init__``."""
    result = _new(DivisorSet)
    result.mask_ = mask
    return result


def _element_masks(sgp: NumericalSemigroup, top: int) -> tuple[int, int]:
    """The masks of S and of top - S, both cut to [0, top].

    Shifts of the two masks of S intersect [0, c] that construction keeps:
    below c, the mask of S is cut and the reversed one shifted right by
    c - top; from c on, the run [c, top] is ORed into the first, and the
    second, shifted left by top - c, gets the low bits [0, top - c].
    """
    if top > _MAX_ELEMENT:
        _check_element(top)  # raises, before anything sized by top exists
    c = sgp.conductor_  # slots, not the properties over them: no call per read
    if top < c:
        return sgp._small_mask_ & ((1 << (top + 1)) - 1), sgp._small_rev_ >> (c - top)
    run = (1 << (top - c + 1)) - 1  # bits [0, top - c]
    return sgp._small_mask_ | (run << c), (sgp._small_rev_ << (top - c)) | run


def _divisor_masks(sgp: NumericalSemigroup, lo: int, hi: int) -> list[int]:
    """The masks of D(x) for every x in the nonempty range(lo, hi), 0 off S.

    One build at top = hi - 1, then a shift and an AND per x.
    """
    in_s, rev = _element_masks(sgp, hi - 1)
    return [in_s & (rev >> (hi - 1 - x)) for x in range(lo, hi)]


def divisors(sgp: NumericalSemigroup, x: int) -> DivisorSet:
    """D(x) = S intersect (x - S): the AND of the two masks at top = x.

    Membership is tested inline, by the rule of ``contains``, before any
    build.
    """
    if x < sgp._least_[x % sgp.multiplicity_]:
        raise InvalidInput(f"{x} is not an element of the semigroup")
    in_s, rev = _element_masks(sgp, x)
    return _trusted(in_s & rev)


def divisors_of_set(sgp: NumericalSemigroup, elements: Iterable[int]) -> DivisorSet:
    """D(M), from one build at top = max(M); refuses the least non-element."""
    xs = sorted(set(elements))
    for x in xs:
        if not sgp.contains(x):
            raise InvalidInput(f"{x} is not an element of the semigroup")
    top = xs[-1] if xs else 0
    in_s, rev = _element_masks(sgp, top)
    union = 0
    for x in xs:
        union |= rev >> (top - x)
    return _trusted(in_s & union)


def nu(sgp: NumericalSemigroup, elements: Iterable[int]) -> int:
    """Number of divisors of a configuration (cardinality of the union)."""
    return len(divisors_of_set(sgp, elements))


def divisors_above(sgp: NumericalSemigroup, y: int, x: int) -> DivisorSet:
    """D(y) cut to [x, infinity), computed as (y - S) cut to [x, infinity).

    Valid for c <= x <= y; in that range every difference y - s that is
    >= x is automatically an element, so the mask is that of (y - x) - S
    shifted left by x.  It is y bits wide, so y answers to the element
    guard.
    """
    if not sgp.contains(y):
        raise InvalidInput(f"{y} is not an element of the semigroup")
    _check_element(y)
    if not sgp.conductor <= x <= y:
        raise InvalidInput(
            f"need conductor {sgp.conductor} <= x <= y, got x={x}, y={y}"
        )
    return _trusted(_element_masks(sgp, y - x)[1] << x)
