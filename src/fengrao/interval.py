"""Semigroups generated by an integer interval <a, a+1, ..., a+b>, 0 < b < a.

For these semigroups membership, divisor counts of ground subsets, and
the Feng-Rao numbers all have closed forms.  The skeleton:

* an integer ka + v with 0 <= v < a belongs to S iff v <= kb;
* the divisors a configuration gains over D(m) are two explicit
  parameter families, which collapse to ceiling sums for ground subsets;
* sums sum_{j=1..x} ceil((y-j)/b) have a closed form;
* every r decomposes uniquely as r = h + b*h*(h-1)/2 + k*h + j with
  -1 <= k <= b-1 and 0 < j <= h, which pins down the shadow of the
  "ordered" amenable sets; those are optimal, giving the closed form
  for E(r, S).

All ceilings are true integer ceilings; terms ceil((a-i)/b) with
i >= a vanish because a - i stays in (-b, 0] for i < a + b.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from .amenable import Configuration, check_base, is_amenable
from .divisors import DivisorSet, _trusted, divisors_above
from .errors import InvalidInput
from .semigroup import NumericalSemigroup, _check_element, _Record, from_generators


def _ceildiv(p: int, q: int) -> int:
    return -((-p) // q)


def _check_interval(a: int, b: int) -> None:
    if not 0 < b < a:
        raise InvalidInput(f"need 0 < b < a, got a={a}, b={b}")


def interval_semigroup(a: int, b: int) -> NumericalSemigroup:
    """The numerical semigroup minimally generated by [a, a+b]."""
    _check_interval(a, b)
    return from_generators(range(a, a + b + 1))


def as_interval(sgp: NumericalSemigroup) -> tuple[int, int] | None:
    """(a, b) if the minimal generators form an interval with 0 < b < a."""
    gens = sgp.minimal_generators
    a, b = gens[0], gens[-1] - gens[0]
    if len(gens) == b + 1 and 0 < b < a:
        return a, b
    return None


def interval_contains(a: int, b: int, n: int) -> bool:
    """Membership of n in <a, ..., a+b>: with n = ka + v, true iff v <= kb."""
    _check_interval(a, b)
    if n < 0:
        return False
    k, v = divmod(n, a)
    return v <= k * b


def ceil_sum(x: int, y: int, b: int) -> int:
    """Closed form of sum_{j=1..x} ceil((y - j) / b).

    Writing y = cb + r with 0 <= r < b and k = floor((x - r) / b), the
    sum telescopes over blocks of b consecutive j into the two cases
    below (r nonzero / zero).
    """
    if x < 1 or y < 1 or b < 1:
        raise InvalidInput(f"need x, y, b >= 1, got x={x}, y={y}, b={b}")
    c, r = divmod(y, b)
    k = (x - r) // b
    if r != 0:
        return x * (c - k) + (k + 1) * (r - 1) + b * k * (k + 1) // 2
    return (x + 1) * (c - k) + b * k * (k + 1) // 2 - c


def _ceil_sum0(x: int, y: int, b: int) -> int:
    """ceil_sum extended by the empty sum at x = 0."""
    return 0 if x == 0 else ceil_sum(x, y, b)


class HDecomposition(_Record):
    """The unique (h, k, j) with r = h + b*h*(h-1)/2 + k*h + j."""

    __slots__ = ("h_", "k_", "j_")

    def __init__(self, h: int, k: int, j: int) -> None:
        self.h_ = h
        self.k_ = k
        self.j_ = j


def h_decompose(r: int, b: int) -> HDecomposition:
    """Split r against the block starts h + b*h*(h-1)/2.

    h is the last block whose start is <= r: the floored positive root
    of b*h^2 + (2-b)*h - 2r, which isqrt gives exactly for every integer
    input.  The remainder s in [0, h*b] splits as k*h + j with
    0 < j <= h, where s = 0 comes out as k = -1, j = h.
    """
    if r < 1 or b < 1:
        raise InvalidInput(f"need r, b >= 1, got r={r}, b={b}")
    h = (b - 2 + isqrt((b - 2) ** 2 + 8 * b * r)) // (2 * b)
    s = r - h - b * h * (h - 1) // 2
    k = (s - 1) // h
    return HDecomposition(h=h, k=k, j=s - k * h)


def ordered_shadow_size(a: int, b: int, r: int) -> int:
    """Shadow cardinality b(h-1) + k + 2 of an ordered set of size r.

    Nondecreasing in r; capped at nothing here, so values >= a + b mean
    the optimal shadows have outgrown the ground.
    """
    _check_interval(a, b)
    dec = h_decompose(r, b)
    return b * (dec.h - 1) + dec.k + 2


def rho_equality_predicted(a: int, b: int, r: int) -> bool:
    """Predicted E(r, S) = rho_r cases: one r of _interval_numbers.

    Read off the ordered shadow size s = b(h-1) + k + 2: true when r has
    k = -1 (r starts a block) or k = b - 1 (one of the h values before
    the next block), the runs {b*sigma(p)+1, ..., b*sigma(p)+p+1} with
    sigma(p) = p(p+1)/2; as 0 <= k + 1 <= b, those are the r with
    s = 1 mod b.  Also true from the first r whose shadow covers every
    residue mod a (s >= a) onward.
    """
    return next(_interval_numbers(a, b, range(r, r + 1)))[1]


def interval_feng_rao_number(a: int, b: int, r: int) -> int:
    """E(r, <a, ..., a+b>) in closed form: one r of _interval_numbers.

    With (h, k, j) the decomposition of r, the optimal shadow is the
    interval of size b(h-1) + k + 2; the sum is capped at a + b - 1 once
    that would reach the whole ground.
    """
    return next(_interval_numbers(a, b, range(r, r + 1)))[0]


def _interval_numbers(a: int, b: int, rs: range) -> Iterator[tuple[int, bool]]:
    """(interval_feng_rao_number, rho_equality_predicted) for each r in rs.

    The one engine of both closed forms; a single r is a run of one.  rs
    is a step-1 range.  After (a, b) is checked, one h_decompose of its
    start seeds r = h + b*h*(h-1)/2 + s with 0 <= s <= b*h, which is then
    stepped once per r: s grows by one, and past b*h, h grows and s
    restarts at 0.  The ordered shadow size is b(h-1) + (s-1)//h + 2
    (s = 0 is the k = -1 of h_decompose); both answers change only with it.
    """
    _check_interval(a, b)
    dec = h_decompose(rs.start, b)
    h, s, size = dec.h, dec.k * dec.h + dec.j, 0
    for r in rs:
        shadow = b * (h - 1) + (s - 1) // h + 2
        if shadow != size:
            size = shadow
            tail = _ceil_sum0(min(size - 1, a + b - 1), a, b)
            predicted = (size - 1) % b == 0 or size >= a
        yield r - 1 + tail, predicted
        s += 1
        if s > b * h:
            h, s = h + 1, 0


def interval_shadow_divisor_count(
    a: int, b: int, m: int, offsets: tuple[int, ...] | list[int], *, check: bool = True
) -> int:
    """#D(m, m+i_1, ..., m+i_t) for a ground subset, by formula alone.

    Offsets must start at 0, increase strictly and stay below a + b.
    Each consecutive offset pair brings the fresh divisors
    sum_{j=i_prev+1..i_cur} ceil((a+b-j)/b) - ceil((i_cur-j)/b); the first
    terms telescope to F(i_t) with F(x) = ceil_sum(x, a+b, b), and the
    second are ceil_sum(d, d, b) for the gap d = i_cur - i_prev.  The
    formula counts divisors only for amenable sets, which is verified
    unless ``check`` is disabled (the raw value is still defined and is
    what the interval-minimality inequality is about).
    """
    sgp = interval_semigroup(a, b)
    offs = tuple(offsets)
    if not offs or offs[0] != 0:
        raise InvalidInput("offsets must be nonempty and start at 0")
    gaps = [y - x for x, y in zip(offs, offs[1:])]
    if min(gaps, default=1) < 1 or offs[-1] >= a + b:
        raise InvalidInput("offsets must increase strictly and stay below a+b")
    check_base(sgp, m)
    if check:
        config = Configuration(base=m, elements=tuple(m + i for i in offs))
        if not is_amenable(sgp, config):
            raise InvalidInput(f"offsets {offs} do not give an amenable set")
    total = m + 1 - 2 * sgp.genus + _ceil_sum0(offs[-1], a + b, b)
    return total - sum(ceil_sum(d, d, b) for d in gaps)


def interval_extra_divisors(a: int, b: int, m: int, q: int, j: int) -> DivisorSet:
    """D(m, m + qa + j) minus D(m) as its two explicit parameter families.

    The new divisors are the m - (ka + v) with 0 <= v < a, kb < v (so the
    difference is a gap) and m + qa + j - (m - (ka + v)) in S; splitting on
    whether v + j wraps past a gives the two disjoint k-ranges below.
    """
    sgp = interval_semigroup(a, b)
    if q < 0 or not 0 <= j <= a - 1:
        raise InvalidInput(f"need q >= 0 and 0 <= j < a, got q={q}, j={j}")
    check_base(sgp, m)
    _check_element(m + q * a + j)  # the result lies inside D(m + qa + j)

    digits = bytearray(b"0") * (m + q * a + j + 1)  # "1" at each new divisor
    for v in range(0, a - j):
        for k in range(_ceildiv(v + j, b) - q, _ceildiv(v, b)):
            digits[m - (k * a + v)] = 49
    for v in range(a - j, a):
        for k in range(_ceildiv(v + j - (a + b), b) - q, _ceildiv(v, b)):
            digits[m - (k * a + v)] = 49
    return _trusted(int(digits[::-1], 2))


def ordered_amenable_set(a: int, b: int, m: int, r: int) -> Configuration:
    """The explicit ordered (S, m, r)-amenable set, when one exists.

    Three-part union: the divisors of m + (h-1)(a+b) from m on, then k
    full columns of height h at offsets b(h-1)+1 .. b(h-1)+k, then j
    elements in the column at offset b(h-1)+k+1.  Requires
    b(h-1) + k + 1 < a + b - 1; past that bound the optimal shadows fill
    the ground and no ordered set of size r exists.
    """
    sgp = interval_semigroup(a, b)
    dec = h_decompose(r, b)
    edge = b * (dec.h - 1) + dec.k + 1
    if edge >= a + b - 1:
        raise InvalidInput(
            f"r={r} needs shadow edge {edge} < a+b-1 = {a + b - 1}"
        )
    check_base(sgp, m)

    elements = set(divisors_above(sgp, m + (dec.h - 1) * (a + b), m))
    for v in range(b * (dec.h - 1) + 1, b * (dec.h - 1) + dec.k + 1):
        for u in range(dec.h):
            elements.add(m + u * a + v)
    for u in range(dec.j):
        elements.add(m + u * a + edge)
    return Configuration(base=m, elements=tuple(sorted(elements)))


class WagonPivot(_Record):
    """Rightmost occupied column of a configuration and its top element."""

    __slots__ = ("wagon_", "pivot_")

    def __init__(self, wagon: tuple[int, ...], pivot: int) -> None:
        self.wagon_ = wagon
        self.pivot_ = pivot


def wagon_pivot(a: int, b: int, config: Configuration) -> WagonPivot:
    """Wagon and pivot of a configuration over <a, ..., a+b>.

    Columns are residue classes counted from the cut at m + b; only
    elements >= m + b pick the rightmost index j0.  When the whole
    configuration sits below m + b its maximum plays the pivot role.
    """
    _check_interval(a, b)
    if not config.elements:
        raise InvalidInput("wagon of an empty configuration")
    m = config.base
    uppers = [x for x in config.elements if x >= m + b]
    if not uppers:
        top = config.elements[-1]
        return WagonPivot(wagon=(top,), pivot=top)
    j0 = max((x - m - b) % a for x in uppers)
    wagon = tuple(x for x in config.elements if (x - m - b) % a == j0)
    return WagonPivot(wagon=wagon, pivot=wagon[-1])


def is_ordered_amenable(a: int, b: int, config: Configuration) -> bool:
    """Orderedness check straight from the definition.

    The shadow has to be an interval {m, ..., m+t} with t < a+b-1, the
    set amenable, and the only element addable without touching the
    ground has to be pivot + a (a = rho_2 here).
    """
    sgp = interval_semigroup(a, b)
    if not config.elements or not is_amenable(sgp, config):
        return False
    m = config.base
    width = a + b
    shadow = [x for x in config.elements if x < m + width]
    t = len(shadow) - 1
    if t >= width - 1 or shadow != list(range(m, m + t + 1)):
        return False
    pivot = wagon_pivot(a, b, config).pivot
    members = set(config.elements)
    top = config.elements[-1]
    for x in range(m + width, top + a + 1):
        if x in members:
            continue
        if all(x - n < m or x - n in members for n in sgp.minimal_generators):
            if x != pivot + a:
                return False
    return True
