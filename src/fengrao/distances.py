"""Generalized Feng-Rao distances and Feng-Rao numbers.

The r-th Feng-Rao distance of S at m is the least number of divisors of
an r-element configuration starting at or above m: an OR of the
``DivisorSet.mask`` of each element, and its bit count.  For m >= 2c-1
an optimal configuration can be chosen amenable, the count only depends
on the shadow, and delta^r(m) = m + 1 - 2g + E(S, r) with E the r-th
Feng-Rao number, so E is evaluated once at the smallest admissible base.
The search is a branch and bound on the walk of one amenable set per
shadow and size: the walker counts each set in a c-bit window that ends
at its top, whatever m is, and keeps each size's least count and first
witness in the search's ``_SizeRecord``.  It refuses a set, with its
extensions, before building it, once its count less its size reaches
best[max r] - max r: one number bounds every size, as best[r] - r never
falls as r grows.  A no-theory branch-and-bound
search over the subsets of one window of S, pruned by full divisor mask
counts alone, is the independent oracle, of the window identity too; it
also answers every r of a range in one walk.
"""

from __future__ import annotations

from math import comb

from .amenable import (
    Configuration,
    _one_size,
    _SizeRecord,
    _size_range,
    check_base,
    shadow_representatives,
    smallest_asymptotic_base,
)
from .divisors import _divisor_masks
from .errors import InvalidInput, SearchSpaceTooLarge
from .semigroup import NumericalSemigroup, _check_element, _Record

DEFAULT_SUBSET_CAP = 50_000_000


class FengRaoResult(_Record):
    """Outcome of a distance or Feng-Rao-number computation."""

    __slots__ = ("m_", "r_", "delta_", "e_number_", "witness_")

    def __init__(
        self, m: int, r: int, delta: int, e_number: int, witness: Configuration
    ) -> None:
        assert len(witness) == r
        self.m_ = m
        self.r_ = r
        self.delta_ = delta
        self.e_number_ = e_number
        self.witness_ = witness

    @classmethod
    def _trusted(
        cls, m: int, r: int, delta: int, e_number: int, witness: Configuration
    ) -> FengRaoResult:
        """Build without validation, for the searches, whose witnesses have size r."""
        result = object.__new__(cls)
        result.m_ = m
        result.r_ = r
        result.delta_ = delta
        result.e_number_ = e_number
        result.witness_ = witness
        return result


def _results(
    sgp: NumericalSemigroup,
    m: int,
    sizes: range,
    best: list,
    witnesses: list[tuple[int, ...]],
) -> list[FengRaoResult]:
    """One result per r in sizes from each size's least count and its set."""
    offset = m + 1 - 2 * sgp.genus
    trusted, config = FengRaoResult._trusted, Configuration._trusted
    return [
        trusted(m, r, best[r], best[r] - offset, config(m, witnesses[r]))
        for r in sizes
    ]


def _check_args(sgp: NumericalSemigroup, m: int, r: int | range) -> range:
    sizes = _size_range(r)
    if sizes and sizes.start < 1:
        raise InvalidInput(f"configuration size must be >= 1, got {sizes.start}")
    if not sgp.contains(m):
        raise InvalidInput(f"{m} is not an element of the semigroup")
    check_base(sgp, m)
    return sizes


def feng_rao_distances(
    sgp: NumericalSemigroup, m: int, rs: range
) -> list[FengRaoResult]:
    """delta^r(m) for every r in the step-1 range rs, from one search.

    The walker draws the amenable sets up to size max(rs), one per shadow
    and size, and counts each k-set's divisors n (see
    ``enumerate_amenable``).  It keeps each admitted set below the best
    of its size as that size's best, in the search's ``_SizeRecord``, and
    refuses a set, with its extensions, when n - k reaches the limit
    best[hi] - hi, hi = max(rs).  The results are read from the record.

    Branch and bound: every element added to a set P of size k is
    larger than all of P, so it is a new divisor, and a set of size j
    under P has at least #D(P) + (j - k) divisors.  One number is
    enough, as best[j] - j never falls as j grows over 1..hi:
    best[j+1] only takes the count of an admitted (j+1)-set Q, whose
    j-prefix P was admitted before and compared with best[j], so
    best[j] <= #D(P) <= #D(Q) - 1 (Q's largest element divides itself
    and no smaller element), and best[j] only falls afterwards.  So
    neither a refused set nor its extensions can beat best[j] at any
    requested j >= k, and the limit only falls.  Sets of one shadow and
    size share one count, so the one set per shadow and size that the
    walker draws is the first of its group in lexicographic order, and a
    set it skips could not win: it has the count of a set the walker
    reaches earlier.  Nor can an extension that the walker's exchange
    rule cuts (see ``enumerate_amenable``).  Only a strictly smaller
    count replaces the best, so each size keeps its first minimum in
    lexicographic order, the witness the unbounded search gives.
    """
    sizes = _check_args(sgp, m, rs)
    if not sizes:
        return []
    hi = sizes[-1]

    record = _SizeRecord(hi)
    for _ in shadow_representatives(sgp, m, hi, record=record):
        pass
    return _results(sgp, m, sizes, record.best, record.witnesses)


def feng_rao_distance(sgp: NumericalSemigroup, m: int, r: int) -> FengRaoResult:
    """delta^r(m): feng_rao_distances for the one size r."""
    return feng_rao_distances(sgp, m, _one_size(r))[0]


def feng_rao_number(sgp: NumericalSemigroup, r: int) -> FengRaoResult:
    """E(S, r), evaluated as delta^r at the smallest asymptotic base."""
    return feng_rao_distance(sgp, smallest_asymptotic_base(sgp), r)


def brute_force_distances(
    sgp: NumericalSemigroup,
    m: int,
    rs: range,
    max_subsets: int = DEFAULT_SUBSET_CAP,
) -> list[FengRaoResult]:
    """Exact delta^r(m) for every r in the step-1 range rs, from one search
    over the subsets of S in [m, m + rho_hi], hi = max(rs).

    The window is enough because some optimal configuration satisfies
    m_i <= m + rho_i, so a k-set counts for size k only when its top is at
    most m + rho_k.  The k-sets are {m} plus the (k-1)-subsets of
    (m, m + rho_hi], walked depth first in lexicographic order with the
    divisor union of each prefix; a slot leaves room for the hi - k
    elements still to come, as the walk for hi alone would.  Each node is
    tested as a k-set first, then extended: only a strictly smaller count
    replaces best[k], so each size keeps the first minimal subset in
    lexicographic order, the witness of a walk for k alone.  A k-set is
    extended only while its count less k stays below reach[k+1], the
    largest best[i] - i over the requested i > k: each added x is larger
    than every element already chosen, so x itself is a new divisor, and
    a subtree past that limit cannot beat any size.

    The masks of D(m) and of the candidates are one ``_divisor_masks``
    window.  The search is what keeps this the independent oracle for
    feng_rao_distances: its bound uses nothing but the count, with no
    amenability, no shadows and no closed form.  Raises InvalidInput for
    a negative ``max_subsets``.  Before any divisor set is built, it takes
    each r in turn and raises SearchSpaceTooLarge when the number of
    candidate subsets C(rho_r, r-1) exceeds the cap, then InvalidInput
    when m + rho_r is above the element guard; the subsets the search
    visits are usually far fewer.
    """
    if max_subsets < 0:
        raise InvalidInput(f"subset cap must be >= 0, got {max_subsets}")
    sizes = _check_args(sgp, m, rs)
    if not sizes:
        return []
    lo, hi = sizes.start, sizes[-1]
    rooms = [0] * (hi + 1)  # rooms[k] = rho_k: a counted k-set's top is <= m + rho_k
    for r in sizes:
        rooms[r] = n = sgp.rho(r)  # every integer >= m is in S
        total = comb(n, r - 1)
        if total > max_subsets:
            raise SearchSpaceTooLarge(
                f"{total} candidate subsets exceed the cap of {max_subsets}"
            )
        _check_element(m + n)
    n = rooms[hi]  # the candidates m + 1 .. m + n

    base_mask, *masks = _divisor_masks(sgp, m, m + n + 1)
    # size -> least count so far and its set.  The count is 0 for the sizes
    # below lo, which never count, and, for a size not reached yet, more
    # than any count (at most m + n + 1) plus any size.  Ints, not
    # infinities: an int compares faster with an int than with a float
    unreached = m + n + hi + 2
    best = [0] * lo + [unreached] * (hi + 1 - lo)
    witnesses = [(m,)] * (hi + 1)
    reach = [unreached] * (hi + 1)  # reach[k]: the largest best[i] - i over i >= k
    if lo == 1:
        best[1] = base_mask.bit_count()
    chosen = [0] * hi  # the element taken at each depth
    # one (indices left to try, prefix union) slot per depth, not
    # recursion, because hi may run into the thousands
    stack = [(iter(range(n - hi + 2)), base_mask)] if hi > 1 else []
    while stack:
        k = len(stack) + 1  # the size of the sets this slot tries
        indices, union = stack[-1]
        # a k-set counts below least, with its index below room, and is
        # extended below limit, 0 for the last size; best[k] does not move
        # limit, as reach[k+1] leaves it out
        least, room, limit = best[k], rooms[k], reach[k + 1] + k if k < hi else 0
        for i in indices:
            grown = union | masks[i]
            count = grown.bit_count()
            if count < least and i < room:
                best[k] = least = count
                witnesses[k] = (m, *chosen[: k - 2], m + 1 + i)
                j, above = k, limit - k  # reach[k+1], or below any count at hi
                while j > 1:  # down to the first reach that stays
                    value = max(best[j] - j, above)
                    if value == reach[j]:
                        break
                    reach[j] = above = value
                    j -= 1
            if count < limit:
                chosen[k - 2] = m + 1 + i
                stack.append((iter(range(i + 1, n - hi + k + 1)), grown))
                break
        else:
            stack.pop()
    return _results(sgp, m, sizes, best, witnesses)


def brute_force_distance(
    sgp: NumericalSemigroup,
    m: int,
    r: int,
    max_subsets: int = DEFAULT_SUBSET_CAP,
) -> FengRaoResult:
    """Exact delta^r(m): brute_force_distances for the one size r."""
    return brute_force_distances(sgp, m, _one_size(r), max_subsets)[0]
