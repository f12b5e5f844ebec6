"""Grounds, shadows, and enumeration of amenable sets.

A configuration M = {m = m_1 < ... < m_r} inside S is amenable when it
is closed under taking divisors that stay >= m.  By the generator
criterion this only has to be checked against the minimal generators:
for every x in M and every minimal generator n, x - n >= m implies
x - n in M.  Amenable sets satisfy two hard bounds that make exhaustive
search feasible: m_i <= m + rho_i and consecutive gaps are at most
rho_2.  Enumeration below is a depth-first search over sorted element
offsets with those bounds as pruning, so memory stays proportional to
the depth r.

The ground is the integer window [m, m + n_e) where n_e is the largest
minimal generator; the shadow of M is its intersection with the ground.
The number of divisors of an amenable set only depends on its shadow
(plus the count of elements above the ground), so the distance search
keeps one representative per shadow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BaseTooSmall, InvalidInput
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class Configuration:
    """A finite sorted subset of S cut to [base, infinity)."""

    base: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise InvalidInput("configuration elements must be strictly increasing")
        if self.elements and self.elements[0] != self.base:
            raise InvalidInput(
                f"least element {self.elements[0]} differs from base {self.base}"
            )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def offsets(self) -> tuple[int, ...]:
        return tuple(x - self.base for x in self.elements)


@dataclass(frozen=True)
class Ground:
    """The window [base, base + width); width is the largest generator."""

    base: int
    width: int

    @property
    def upper(self) -> int:
        return self.base + self.width

    def __contains__(self, n: int) -> bool:
        return self.base <= n < self.upper


def smallest_asymptotic_base(sgp: NumericalSemigroup) -> int:
    """Least element where delta^r(m) = m + 1 - 2g + E(S, r) is guaranteed."""
    return max(2 * sgp.conductor - 1, 0)


def check_base(sgp: NumericalSemigroup, m: int) -> None:
    """Raise BaseTooSmall for m < 2c-1, the one base rule of the package."""
    base = smallest_asymptotic_base(sgp)
    if m < base:
        raise BaseTooSmall(
            f"base {m} is below max(2c-1, 0) = {base}; the identity "
            "delta(m) = m + 1 - 2g + E is only guaranteed from there on"
        )


def ground(sgp: NumericalSemigroup, m: int) -> Ground:
    """The (S, m)-ground [m, m + n_e)."""
    check_base(sgp, m)
    return Ground(base=m, width=sgp.largest_generator)


def shadow(sgp: NumericalSemigroup, config: Configuration) -> Configuration:
    """Restriction of a configuration to its ground."""
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


def enumerate_amenable(
    sgp: NumericalSemigroup, m: int, r: int
) -> Iterator[Configuration]:
    """All (S, m, r)-amenable sets, in lexicographic element order.

    Elements are kept as offsets from m in a bitmask; a candidate offset
    t extends a partial set when every generator difference t - n that
    is still >= 0 is already present.
    """
    check_base(sgp, m)
    if r < 0:
        raise InvalidInput(f"configuration size must be >= 0, got {r}")
    if r == 0:
        yield Configuration(base=m, elements=())
        return

    gens = sgp.minimal_generators
    rho2 = sgp.multiplicity
    rho = [sgp.rho(i) for i in range(1, r + 1)]  # rho[i-1] = rho_i

    def extend(offsets: list[int], mask: int) -> Iterator[Configuration]:
        depth = len(offsets)
        if depth == r:
            yield Configuration(base=m, elements=tuple(m + t for t in offsets))
            return
        last = offsets[-1]
        bound = min(last + rho2, rho[depth])
        for t in range(last + 1, bound + 1):
            for n in gens:
                d = t - n
                if d >= 0 and not (mask >> d) & 1:
                    break
            else:
                offsets.append(t)
                yield from extend(offsets, mask | (1 << t))
                offsets.pop()

    yield from extend([0], 1)


def shadow_representatives(
    sgp: NumericalSemigroup, m: int, r: int
) -> Iterator[Configuration]:
    """One amenable set per distinct shadow, first in lexicographic order."""
    upper = m + sgp.largest_generator
    seen: set[tuple[int, ...]] = set()
    for config in enumerate_amenable(sgp, m, r):
        key = tuple(x - m for x in config.elements if x < upper)
        if key not in seen:
            seen.add(key)
            yield config
