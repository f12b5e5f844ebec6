"""Unbounded reference for the generic Feng-Rao search.

This is the minimization that the branch-and-bound search replaced: it
walks every amenable set of each size in rs, one walk per size, with no
cut and no rule that skips sets of a shadow already seen, and sums the
ground divisor union and the elements above the ground of each.  Sets of one shadow and
size have equal counts, and only a strictly smaller count replaces the
best, so each size keeps its first minimum in lexicographic order.  The
tests hold ``feng_rao_distances`` against it, delta and witness.
"""

from fengrao.amenable import enumerate_amenable
from fengrao.divisors import _divisor_masks


def reference_distances(sgp, m: int, rs: range) -> list[tuple[int, tuple[int, ...]]]:
    """(delta, witness elements) for each r in rs, by the unbounded search."""
    upper = m + sgp.largest_generator
    ground_masks = _divisor_masks(sgp, m, min(upper, m + sgp.rho(rs[-1]) + 1))
    results = []
    for r in rs:
        best = None
        for config in enumerate_amenable(sgp, m, r):
            elements = config.elements
            union = 0
            above = r
            for x in elements:
                if x >= upper:
                    break
                union |= ground_masks[x - m]
                above -= 1
            count = above + union.bit_count()
            if best is None or count < best[0]:
                best = (count, elements)
        results.append(best)
    return results
