"""The base rule, shadows, and enumeration of amenable sets.

A configuration M = {m = m_1 < ... < m_r} inside S is amenable when it
is closed under taking divisors that stay >= m.  By the generator
criterion this only has to be checked against the minimal generators:
for every x in M and every minimal generator n, x - n >= m implies
x - n in M.  Amenable sets satisfy two hard bounds that make exhaustive
search feasible: m_i <= m + rho_i and consecutive gaps are at most
rho_2.  Enumeration below is an iterative depth-first search over
sorted element offsets with those bounds as pruning.  A table ``need``
gives, for each offset t, the mask of the offsets t - n (n a minimal
generator) that must already be present, so checking a candidate is one
mask test.  The search keeps one slot per depth (element, mask, next
candidate, bound, and in a counted walk the window and top offset) and
``need``, about rho_r^2 / 16 bytes.  Every prefix of an amenable set is
amenable, so the search to depth r passes every amenable set of each
size below r on its way; it builds a tuple only for the sets of size r,
which it yields in lexicographic order, with ``Configuration._trusted``,
which skips the validation the search already guarantees.  Sizes above
``_MAX_SIZE``, and a rho_r above ``_MAX_RHO``, are refused before the
tables sized by them exist.  Given a ``_SizeRecord``, the walker counts
each candidate in a c-bit window, refuses it, with its extensions, once
its count less its size reaches best[r] - r, and keeps each size's least
count and first witness in the record itself, with its work counts.  It
also admits but does not extend a set whose top less one, x, is missing
from it and above the rest, when every proper divisor of x already
divides the set: any extension can swap its largest element for x and
get a set earlier in lexicographic order with no more divisors.  The
distance search reads its answers there.

The ground is the integer window [m, m + n_e) where n_e is the largest
minimal generator; the shadow of M is its intersection with the ground.
The number of divisors of an amenable set only depends on its shadow
(plus the count of elements above the ground), so the distance search
draws one set per shadow and size, which the walker gives by stopping
each depth's scan after its first admitted candidate above the ground.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Iterator

from .divisors import _element_masks
from .errors import InvalidInput
from .semigroup import NumericalSemigroup, _Record

# Largest configuration size a search accepts.  Far above the sizes a
# search finishes: the amenable command's unbounded walk visits half a
# million sets of <14, 15> at r = 14, and the bounded distance search on
# <16, 17> took 0.016-0.027 s for r 1..60, 0.08-0.17 s for r 1..200 and
# 0.10-0.16 s for r 1..1000 (ten runs each, 2-vCPU Xeon VM).  The bound
# refuses absurd sizes before the per-depth lists are allocated.
_MAX_SIZE = 10_000
# Largest rho_r a walk accepts.  ``need`` holds rho_r + 1 masks of up to
# rho_r bits, about rho_r^2 / 16 bytes: 64 MB at most here, in line with
# the conductor guard.  It refuses <1000, 1001> from r = 562.
_MAX_RHO = 1 << 15


class Configuration(_Record):
    """A finite sorted subset of S cut to [base, infinity)."""

    __slots__ = ("base_", "elements_")

    def __init__(self, base: int, elements: Iterable[int]) -> None:
        elements = tuple(elements)
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise InvalidInput("configuration elements must be strictly increasing")
        if elements and elements[0] != base:
            raise InvalidInput(
                f"least element {elements[0]} differs from base {base}"
            )
        self.base_ = base
        self.elements_ = elements

    @classmethod
    def _trusted(cls, base: int, elements: tuple[int, ...]) -> Configuration:
        """Build without validation, for callers that guarantee the invariants."""
        config = object.__new__(cls)
        config.base_ = base
        config.elements_ = elements
        return config

    def __len__(self) -> int:
        return len(self.elements_)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements_)

    def offsets(self) -> tuple[int, ...]:
        """The elements minus the base, so the base is offset 0."""
        return tuple(x - self.base_ for x in self.elements_)


def smallest_asymptotic_base(sgp: NumericalSemigroup) -> int:
    """Least element where delta^r(m) = m + 1 - 2g + E(S, r) is guaranteed."""
    return max(2 * sgp.conductor - 1, 0)


def check_base(sgp: NumericalSemigroup, m: int) -> None:
    """Raise InvalidInput for m < 2c-1, the one base rule of the package."""
    base = smallest_asymptotic_base(sgp)
    if m < base:
        raise InvalidInput(
            f"base {m} is below max(2c-1, 0) = {base}; the identity "
            "delta(m) = m + 1 - 2g + E is only guaranteed from there on"
        )


def shadow(sgp: NumericalSemigroup, config: Configuration) -> Configuration:
    """Restriction of a configuration to its ground."""
    check_base(sgp, config.base)
    upper = config.base + sgp.largest_generator
    return Configuration(
        base=config.base,
        elements=tuple(x for x in config.elements if x < upper),
    )


def is_amenable(sgp: NumericalSemigroup, config: Configuration) -> bool:
    """Divisor-closure check via the minimal-generator criterion.

    The empty configuration counts as amenable (the r = 0 convention).
    """
    check_base(sgp, config.base)
    if not config.elements:
        return True
    m = config.base
    members = set(config.elements)
    for x in config.elements:
        for n in sgp.minimal_generators:
            d = x - n
            if d >= m and d not in members:
                return False
    return True


def _size_range(r: int | range) -> range:
    """The sizes asked for, as a range; refuses what the search cannot take.

    Sizes above _MAX_SIZE are refused before anything is allocated for them.
    """
    sizes = range(r, r + 1) if isinstance(r, int) else r
    if not isinstance(sizes, range) or sizes.step != 1:
        raise InvalidInput(f"sizes must be an int or a step-1 range, got {r!r}")
    if sizes and sizes.start < 0:
        raise InvalidInput(f"configuration size must be >= 0, got {sizes.start}")
    if sizes and sizes[-1] > _MAX_SIZE:
        raise InvalidInput(
            f"configuration size {sizes[-1]} is above the limit of {_MAX_SIZE}"
        )
    return sizes


def _one_size(r: int) -> range:
    """The one size r, as a range; refuses a non-int before any work starts."""
    if not isinstance(r, int):
        raise InvalidInput(f"configuration size must be an int, got {r!r}")
    return _size_range(r)


class _SizeRecord:
    """What a counting walk to depth r keeps per size, filled by the walker.

    ``best[k]`` is the least divisor count #D of the k-sets admitted so
    far, ``inf`` before the first, and ``witnesses[k]`` the first of them
    in lexicographic order, for k in 1..r: a count replaces the best only
    when strictly smaller; both are current at each yield.  ``sets``
    counts the sets admitted and ``scanned`` the candidate offsets the
    scans tested, added when the walk ends.  A caller may seed ``best``
    before the walk, which lowers the limit from the start.
    """

    __slots__ = ("best", "witnesses", "sets", "scanned")

    def __init__(self, r: int) -> None:
        self.best: list[float] = [inf] * (r + 1)
        self.witnesses: list[tuple[int, ...]] = [()] * (r + 1)
        self.sets = 0
        self.scanned = 0


def enumerate_amenable(
    sgp: NumericalSemigroup,
    m: int,
    r: int,
    *,
    record: _SizeRecord | None = None,
    one_per_shadow: bool = False,
) -> Iterator[Configuration]:
    """All (S, m, r)-amenable sets, in lexicographic element order.

    Elements are kept as offsets from m in a bitmask.  ``need[t]`` has a
    bit for every generator difference t - n >= 0, so a candidate offset
    t extends a partial set exactly when ``mask & need[t] == need[t]``.

    With a ``record`` (a ``_SizeRecord`` for size r), the walker counts
    each candidate that passes the mask test.  A set M with top T has
    #D(M) = (m - c + 1 - g) + (T - m) + popcount(V), V its window: bit i
    is set when T - c + 1 + i divides an element of M.  Elements up to
    m - c divide every x >= m, the integers in (m - c, T - c] are in S
    and divide T, and y > T - c divides x <= T only as x - s with s < c.
    So a child at offset t > top, its prefix's top offset, has V' =
    (V >> (t - top)) | R, R with bit c - 1 - s for each element s < c:
    one shift, one OR and one bit count in c bits per candidate, whatever
    m and T are.  The empty prefix has V = 0 and top 0.  A k-set whose
    count n has n - k >= best[r] - r, the limit, is refused with its
    extensions.  Each set admitted is kept as its size's best when its
    count is below it, before it is built, yielded or extended, and only
    then is the limit recomputed; the shared m - c + 1 - g is added once
    per admitted set, never per candidate.  With no record, the scan is
    the bare mask test and every amenable set of size r is yielded.

    A counted walk also admits but does not extend P + t when u = t - 1
    is above top and every proper divisor of m + u in the window of top t
    is set in V': the constant ``hole`` is R >> 1 less u's own bit, and
    the test is one AND per admitted set with a gap.  The divisors of
    m + u below that window divide m + t anyway.  Take any extension
    Q = P + t + N, N not empty, and let Q'' = P + u + t + (N less max N).
    Q'' is amenable, as the divisors >= m of m + u other than itself
    divide P + t and so lie in P; it meets the walker's bounds, element
    by element and gap by gap; it comes before Q in lexicographic order;
    and it has no more divisors, as max N divides Q alone and u adds at
    most itself.  So no extension cut this way is the first least set of
    its size.  The gap must be real: with u = top, Q'' would repeat an
    element.

    With ``one_per_shadow``, a depth's scan stops after its first
    admitted offset t >= n_e, so only the first set of each shadow and
    size is yielded.  A later candidate t' after the same prefix P gives
    P + t' the shadow of P + t.  Drop the largest element of any amenable
    Q' under P + t' and add t: the result Q is amenable (the divisors of
    t in range are in P), has the size and shadow of Q', so its divisor
    count, sits under P + t, and meets the walker's bounds, as each
    element and gap of Q is at most one of Q' or P + t'.  Each prefix of
    Q has the count of the prefix of Q' of its size and is met first,
    under a limit no lower, so Q is refused only where Q' would be.
    """
    check_base(sgp, m)
    _one_size(r)
    trusted = Configuration._trusted
    if r == 0:
        yield trusted(m, ())
        return

    rho2 = sgp.multiplicity
    rho = [sgp.rho(i) for i in range(1, r + 1)]  # rho[i-1] = rho_i
    if rho[-1] > _MAX_RHO:
        raise InvalidInput(f"rho_{r} = {rho[-1]} is above the limit of {_MAX_RHO}")
    # a depth's scan ends at its first admitted t >= stop; no t reaches rho_r + 1
    stop = sgp.largest_generator if one_per_shadow else rho[-1] + 1
    # need[t] = gens >> (size - t), gens with bit size - n for each generator n
    size = rho[-1] + 1
    gens = 0
    for n in sgp.minimal_generators:
        if n < size:
            gens |= 1 << (size - n)
    need = [gens >> (size - t) for t in range(size)]

    # slot d describes the prefix of d elements: its offset mask, the next
    # candidate offset and the largest one allowed; elems[d] is the element
    # it last took.  Slot 0 is the empty prefix, whose one candidate is
    # offset 0, m itself.
    last = r - 1
    elems = [0] * r
    masks = [0] * r
    nexts = [0] * r
    bounds = [0] * r
    depth = 0
    # with a record, slot d also keeps its prefix's window V and top offset;
    # with none, the scan is the bare mask test and nothing is read for it.
    # A slot scans every offset from its first candidate to its bound, less
    # those a stop skips, so ``scanned`` takes each slot's span as it is
    # pushed and gives the skipped offsets back, one add per slot, not per
    # candidate; a walk with no record counts it too and drops it
    scanned = 1  # slot 0 scans offset 0
    if record is not None:
        c = sgp.conductor
        rev = _element_masks(sgp, c - 1)[1]  # R
        # the proper divisors of m + t - 1 in the window of top t
        hole = (rev >> 1) & ~(1 << (c - 2)) if c > 1 else 0
        windows = [0] * (r + 1)
        tops = [0] * (r + 1)
        shared = m - c + 1 - sgp.genus  # the divisors up to m - c
        best, witnesses = record.best, record.witnesses
        limit = best[r] - r - shared  # on counts less the shared divisors
        sets = 0
    while depth >= 0:
        mask = masks[depth]
        bound = bounds[depth]
        t = nexts[depth]
        if record is not None:
            window, top, cut = windows[depth], tops[depth], limit + depth + 1
        while t <= bound:
            req = need[t]
            if mask & req == req:
                if record is None:
                    break
                grown = (window >> (t - top)) | rev
                count = t + grown.bit_count()
                if count < cut:  # count - k < limit, k = depth + 1
                    break
            t += 1
        else:
            depth -= 1
            continue
        elems[depth] = m + t
        k = depth + 1
        if record is not None:
            sets += 1
            count += shared
            if count < best[k]:
                best[k] = count
                witnesses[k] = tuple(elems[:k])
                limit = best[r] - r - shared
            windows[k], tops[k] = grown, t
        if t < stop:
            nexts[depth] = t + 1
        else:
            nexts[depth] = bound + 1
            scanned -= bound - t
        if depth == last:
            yield trusted(m, tuple(elems))
        # in a counted walk, a hole at t - 1 > top whose proper divisors all
        # divide the set already leaves no extension that is a first least set
        elif record is None or t - 1 <= top or hole & ~grown:
            depth = k
            masks[k] = mask | (1 << t)
            nexts[k] = t + 1
            bound = t + rho2
            bounds[k] = bound = bound if bound < rho[k] else rho[k]
            scanned += bound - t
    if record is not None:
        record.sets += sets
        record.scanned += scanned


def shadow_representatives(
    sgp: NumericalSemigroup, m: int, r: int, *, record: _SizeRecord | None = None
) -> Iterator[Configuration]:
    """One amenable set per distinct shadow and size, first in lexicographic order.

    enumerate_amenable with ``one_per_shadow``: the walker draws these
    sets itself and drops none.  With a ``record``, the walker scans and
    admits only the sets under the record's limit; the limit only falls,
    and sets of one shadow and size share one count, so each set the
    walker draws is still the first of its group.
    """
    yield from enumerate_amenable(sgp, m, r, record=record, one_per_shadow=True)
