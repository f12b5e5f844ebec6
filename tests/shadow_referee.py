"""Shadow-table referee for the generic Feng-Rao search, past brute force's reach.

Brute force pays for the subsets of its whole window, so it referees the
generic search only at small conductors.  This referee uses the amenable
reduction, that the divisor count of an amenable set is its shadow's
count plus one per element above the ground, and none of the search's
machinery: no ``need`` table, no one-set-per-shadow rule, no bound and
no c-bit window.  Its cost follows the number of shadows, not c, so it
is cheap where brute force fails (few generators, large c).  With the
ground [0, n_e) of offsets from m >= 2c - 1, n_e the largest minimal
generator, it

* walks every amenable subset L of the ground that holds 0, by
  include-or-skip over the offsets 1 .. n_e - 1, taking t only when every
  t - n >= 0, n a minimal generator, is in L;
* takes #D(L) from ``nu``;
* allows an offset u >= n_e above L when u - t is not in S for every
  ground offset t missing from L, that is, when no missing m + t divides
  m + u: u is not set in the OR of S << t over the missing t.  None is
  allowed from min(missing) + c on, and every u when nothing is missing.
  L plus the first k allowed offsets is amenable, as each u - n >= 0 is
  in L or allowed whenever u is allowed, and it is the first amenable set
  in lexicographic order with shadow L and size |L| + k;
* gives each size r from |L| to |L| + #allowed the count #D(L) + r - |L|
  and L plus the first r - |L| allowed offsets, and keeps per size the
  least (count, offsets); tuple order is lexicographic witness order.

The tests hold ``feng_rao_distances`` against it, delta and witness.
"""

from fengrao.divisors import nu


def _ground_subsets(sgp) -> list[tuple[int, int]]:
    """(L, blocked) for every amenable subset L of the ground that holds 0.

    L is an offset mask, built by include-or-skip one offset at a time;
    blocked is the OR of S ∩ [0, c) shifted by each offset L skips.
    """
    gens, small = sgp.minimal_generators, 0
    for s in range(sgp.conductor):
        if sgp.contains(s):
            small |= 1 << s
    subsets = [(1, 0)]
    for t in range(1, sgp.largest_generator):
        grown = []
        for mask, blocked in subsets:
            if all(t < n or mask >> (t - n) & 1 for n in gens):
                grown.append((mask | 1 << t, blocked))
            grown.append((mask, blocked | small << t))
        subsets = grown
    return subsets


def referee_distances(sgp, m: int, rs: range) -> list[tuple[int, tuple[int, ...]]]:
    """(delta, witness elements) for each r in the step-1 range rs, from the shadow table."""
    ne, c = sgp.largest_generator, sgp.conductor
    lo, hi = rs.start, rs[-1]
    full = (1 << ne) - 1
    counts = [float("inf")] * (hi + 1)
    witnesses: list[tuple[int, ...]] = [()] * (hi + 1)
    for mask, blocked in _ground_subsets(sgp):
        ground = tuple(t for t in range(ne) if mask >> t & 1)
        if mask == full:  # nothing missing: every u >= ne is allowed
            free = (1 << ne + hi) - (1 << ne)
        else:
            least = (mask + 1 & ~mask).bit_length() - 1  # min(missing)
            free = ~blocked & (1 << least + c) - (1 << ne)
        count = nu(sgp, [m + t for t in ground])
        allowed = None  # read from free only once a size needs it
        for r in range(max(lo, len(ground)), min(hi, len(ground) + free.bit_count()) + 1):
            delta = count + r - len(ground)
            if delta > counts[r]:
                continue
            if allowed is None:
                allowed = [u for u in range(ne, free.bit_length()) if free >> u & 1]
            offsets = ground + tuple(allowed[: r - len(ground)])
            if (delta, offsets) < (counts[r], witnesses[r]):
                counts[r], witnesses[r] = delta, offsets
    return [(counts[r], tuple(m + t for t in witnesses[r])) for r in rs]
