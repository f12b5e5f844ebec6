import random
import tracemalloc
from itertools import combinations
from math import inf

import pytest

import fengrao.amenable as amenable
from fengrao import (
    Configuration,
    InvalidInput,
    NumericalSemigroup,
    brute_force_distance,
    divisors,
    divisors_of_set,
    enumerate_amenable,
    feng_rao_distance,
    feng_rao_number,
    from_generators,
    interval_extra_divisors,
    interval_semigroup,
    interval_shadow_divisor_count,
    is_amenable,
    nu,
    ordered_amenable_set,
    shadow,
    shadow_representatives,
    smallest_asymptotic_base,
)

from corpus import CORPUS, corpus_semigroups

FIG_AMENABLE_SET = (
    tuple(range(189, 198)) + (199,) + tuple(range(201, 211))
    + tuple(range(212, 217)) + tuple(range(224, 230)) + (235, 247)
)


def def_amenable(sgp, config):
    """Amenability straight from the definition: divisor closure above m."""
    if not config.elements:
        return True
    m = config.base
    members = set(config.elements)
    return m in members and all(
        set(d for d in divisors(sgp, x).elements if d >= m) <= members
        for x in config.elements
    )


def cfg(m, elements):
    return Configuration(base=m, elements=tuple(elements))


# ------------------------------------------------------------- shadow


def test_shadow_of_ground_subset_is_identity():
    s = from_generators([5, 6, 7])
    m = smallest_asymptotic_base(s)
    config = cfg(m, [m, m + 2, m + 6])
    assert shadow(s, config) == config


def test_shadow_figure():
    s = from_generators(range(19, 24))
    config = cfg(189, FIG_AMENABLE_SET)
    expected = tuple(range(189, 198)) + (199,) + tuple(range(201, 211))
    assert shadow(s, config).elements == expected


def test_shadow_is_filter():
    s = from_generators([5, 6, 7])
    m = smallest_asymptotic_base(s)
    rng = random.Random(3)
    for _ in range(30):
        extra = sorted(rng.sample(range(m + 1, m + 30), 4))
        config = cfg(m, [m] + extra)
        assert shadow(s, config).elements == tuple(
            x for x in config.elements if x < m + 7
        )


# --------------------------------------------------------- is_amenable


def test_singleton_and_interval_are_amenable():
    for s in corpus_semigroups(max_multiplicity=9):
        m = smallest_asymptotic_base(s)
        assert is_amenable(s, cfg(m, [m]))
        for r in (2, 4):
            assert is_amenable(s, cfg(m, range(m, m + r)))


def test_base_plus_width_alone_is_not_amenable():
    # over <a..a+b> with b >= 1 the element m + n_e needs m + 1 present
    for a, b in [(4, 1), (5, 2), (7, 3), (9, 4)]:
        s = interval_semigroup(a, b)
        m = smallest_asymptotic_base(s)
        assert not is_amenable(s, cfg(m, [m, m + a + b]))


def test_figure_amenable_set():
    s = from_generators(range(19, 24))
    assert is_amenable(s, cfg(189, FIG_AMENABLE_SET))


def test_is_amenable_matches_definition():
    rng = random.Random(17)
    for s in corpus_semigroups(max_multiplicity=7):
        m = smallest_asymptotic_base(s)
        for _ in range(60):
            extra = sorted(rng.sample(range(m + 1, m + 2 * s.largest_generator + 8), 3))
            config = cfg(m, [m] + extra)
            assert is_amenable(s, config) == def_amenable(s, config)


def test_empty_configuration_is_amenable():
    s = from_generators([4, 5])
    assert is_amenable(s, Configuration(base=smallest_asymptotic_base(s), elements=()))


# ---------------------------------------------------- enumerate_amenable


def test_enumerate_r1_and_r0():
    s = from_generators([5, 6, 7])
    m = smallest_asymptotic_base(s)
    assert [c.elements for c in enumerate_amenable(s, m, 1)] == [(m,)]
    assert [c.elements for c in enumerate_amenable(s, m, 0)] == [()]


def test_enumerate_4_5_pairs():
    # at the smallest valid base m = 23 (the example's m = 13 is below 2c-1)
    s = from_generators([4, 5])
    got = [c.elements for c in enumerate_amenable(s, 23, 2)]
    assert got == [(23, 24), (23, 25), (23, 26), (23, 27)]


# the envelope checked against the definition: the corpus with multiplicity
# <= 9 up to r = 5 and every interval <a..a+b> with a <= 8 up to r = 6
EXHAUSTIVE_ENVELOPE = {
    **{gens: 5 for gens in CORPUS if gens[0] <= 9},
    **{tuple(range(a, a + b + 1)): 6 for a in range(2, 9) for b in range(1, a)},
}


def exhaustive_amenable(sgp, m, r):
    """Every r-subset of [m, m + rho_r] through m that is divisor-closed above m."""
    window = range(m + 1, m + sgp.rho(r) + 1)
    above = {x: {d for d in divisors(sgp, x).elements if d >= m} for x in (m, *window)}
    found = []
    for combo in combinations(window, r - 1):
        members = {m, *combo}
        if all(above[x] <= members for x in members):
            found.append((m,) + combo)
    return sorted(found)


def test_enumerate_matches_exhaustive_definition():
    for gens, rmax in EXHAUSTIVE_ENVELOPE.items():
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        for r in range(1, rmax + 1):
            configs = list(enumerate_amenable(s, m, r))
            assert [c.elements for c in configs] == exhaustive_amenable(s, m, r), (gens, r)
            assert all(is_amenable(s, c) for c in configs)
            assert configs == [Configuration(m, c.elements) for c in configs]
            seen, first = set(), []
            for c in configs:
                key = shadow(s, c).elements
                if key not in seen:
                    seen.add(key)
                    first.append(c)
            assert list(shadow_representatives(s, m, r)) == first, (gens, r)


def pre_order(sgp, m, r):
    """Every amenable set of size 1..r, a prefix before its extensions.

    Tuple order puts a prefix before its extensions, so this is the
    order in which the walker to depth r meets them.
    """
    return sorted(c.elements for k in range(1, r + 1) for c in enumerate_amenable(sgp, m, k))


def reference_walk(sgp, m, r, seed):
    """What a counted walk to depth r does, from ``nu`` alone.

    The sets of size 1..r come in pre-order.  A set is refused, with its
    extensions, once its count less its size reaches best[r] - r; an
    admitted set becomes its size's best when its count is strictly
    below.  An admitted set e below size r whose top less one, u, is above
    the element before it keeps its extensions out when adding u adds
    one divisor, u itself.  Returns the admitted sets, each size's best and
    its witness.
    """
    best, witnesses = list(seed), [()] * (r + 1)
    admitted, dropped = [], set()
    for e in pre_order(sgp, m, r):
        k, count = len(e), nu(sgp, e)
        if e[:-1] in dropped or count - k >= best[r] - r:
            dropped.add(e)
            continue
        admitted.append(e)
        if count < best[k]:
            best[k], witnesses[k] = count, e
        if 1 < k < r and e[-1] - 1 > e[-2] and nu(sgp, e + (e[-1] - 1,)) == count + 1:
            dropped.add(e)
    return admitted, best, witnesses


def first_least(sgp, m, r):
    """Each size's least count over every amenable set, and its first set."""
    best, witnesses = [inf] * (r + 1), [()] * (r + 1)
    for e in pre_order(sgp, m, r):
        count = nu(sgp, e)
        if count < best[len(e)]:
            best[len(e)], witnesses[len(e)] = count, e
    return best, witnesses


def test_no_record_gives_the_bare_stream():
    for gens, rmax in EXHAUSTIVE_ENVELOPE.items():
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        for r in range(rmax + 1):
            every = exhaustive_amenable(s, m, r) if r else [()]
            firsts = {}
            for e in every:
                firsts.setdefault((shadow(s, Configuration(m, e)).elements, len(e)), e)
            for source, expected in [(enumerate_amenable, every),
                                     (shadow_representatives, list(firsts.values()))]:
                bare = [c.elements for c in source(s, m, r, record=None)]
                assert bare == [c.elements for c in source(s, m, r)] == expected, (gens, r)
                # a counted walk drops sets, and keeps the rest in order
                counted = iter(bare)
                for config in source(s, m, r, record=amenable._SizeRecord(r)):
                    assert config.elements in counted, (gens, r)


def test_record_keeps_each_sizes_first_least_count():
    for gens, rmax in EXHAUSTIVE_ENVELOPE.items():
        s = from_generators(gens)
        base = smallest_asymptotic_base(s)
        for m in (base, base + 7):
            for r in (3, rmax):
                best, witnesses = first_least(s, m, r)
                for source in (enumerate_amenable, shadow_representatives):
                    record = amenable._SizeRecord(r)
                    for config in source(s, m, r, record=record):
                        # the set is kept before it is yielded
                        assert record.best[r] <= nu(s, config.elements)
                    assert record.best[1:] == best[1:], (gens, m, r, source)
                    assert record.witnesses[1:] == witnesses[1:], (gens, m, r, source)


def test_seeded_record_refuses_sets_and_their_extensions():
    for gens, rmax in EXHAUSTIVE_ENVELOPE.items():
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        slack = [nu(s, e) - len(e) for e in pre_order(s, m, rmax)]
        # each limit best[r] - r from below every set's slack to above all,
        # and none: the walk then starts with the limit infinite
        seeds = [limit + rmax for limit in range(min(slack) - 1, max(slack) + 2)]
        for seeded in [inf, *seeds]:
            record = amenable._SizeRecord(rmax)
            record.best[rmax] = seeded
            got = [c.elements for c in enumerate_amenable(s, m, rmax, record=record)]
            admitted, best, witnesses = reference_walk(s, m, rmax, [inf] * rmax + [seeded])
            assert got == [e for e in admitted if len(e) == rmax], (gens, seeded)
            assert record.sets == len(admitted), (gens, seeded)
            assert (record.best, record.witnesses) == (best, witnesses), (gens, seeded)


def test_size_bound_refuses_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def refuse(self, i):
        raise Allocated(i)

    # the per-depth tables start with rho_1..rho_r; refuse to reach them
    monkeypatch.setattr(NumericalSemigroup, "rho", refuse)
    s = from_generators([4, 5])
    m = smallest_asymptotic_base(s)
    for r in (10**12, amenable._MAX_SIZE + 1):
        with pytest.raises(InvalidInput, match="limit"):
            next(enumerate_amenable(s, m, r))
        with pytest.raises(InvalidInput, match="limit"):
            next(shadow_representatives(s, m, r))
    with pytest.raises(Allocated):
        list(enumerate_amenable(s, m, amenable._MAX_SIZE))
    # a range of sizes is refused before rho is reached, like any non-int,
    # by the walker and by every function that takes one size
    for r in (range(1, 4), range(3, 4), range(1, 10**12 + 1), range(1, 6, 2), 2.0):
        with pytest.raises(InvalidInput, match="must be an int"):
            next(enumerate_amenable(s, m, r))
        with pytest.raises(InvalidInput, match="must be an int"):
            next(shadow_representatives(s, m, r))
        with pytest.raises(InvalidInput, match="must be an int"):
            feng_rao_distance(s, m, r)
        with pytest.raises(InvalidInput, match="must be an int"):
            feng_rao_number(s, r)
        with pytest.raises(InvalidInput, match="must be an int"):
            brute_force_distance(s, m, r)
    with pytest.raises(InvalidInput, match=">= 0"):
        next(enumerate_amenable(s, m, -1))


def test_offset_bound_refuses_before_the_table(monkeypatch):
    # <1000, 1001> at r = 562 has rho_r = 33,000: its table of offsets
    # would take about 68 MB, where _MAX_SIZE alone admits it
    s = from_generators([1000, 1001])
    m = smallest_asymptotic_base(s)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="rho_562 = 33000 is above the limit of 32768"):
            next(enumerate_amenable(s, m, 562))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # a rho_r equal to the limit is walked, one above it is refused
    s = from_generators([4, 5])
    m = smallest_asymptotic_base(s)
    walked = list(enumerate_amenable(s, m, 7))
    monkeypatch.setattr(amenable, "_MAX_RHO", s.rho(7))
    assert list(enumerate_amenable(s, m, 7)) == walked
    with pytest.raises(InvalidInput, match=f"rho_8 = {s.rho(8)} is above the limit"):
        next(enumerate_amenable(s, m, 8))


def test_enumerate_is_lexicographic():
    s = from_generators([5, 6, 7])
    m = smallest_asymptotic_base(s)
    got = [c.elements for c in enumerate_amenable(s, m, 3)]
    assert got == sorted(got)


def test_element_bounds():
    # m_i <= m + rho_i and consecutive gaps at most rho_2
    for s in corpus_semigroups(max_multiplicity=7):
        m = smallest_asymptotic_base(s)
        for config in enumerate_amenable(s, m, 4):
            elems = config.elements
            assert all(x <= m + s.rho(i + 1) for i, x in enumerate(elems))
            assert all(y - x <= s.multiplicity for x, y in zip(elems, elems[1:]))


# (amenable sets, shadow representatives) at 2c-1 for the benchmark's
# deep-r and wide-ground semigroups; a change to the work done shows here
ENUMERATION_WORK = {
    (14, 15): {3: (92, 92), 5: (1237, 1202), 7: (7067, 5250)},
    tuple(range(16, 25)): {3: (121, 121), 5: (1941, 1941), 7: (9949, 9949)},
}


def first_per_shadow(configs, upper):
    """The first set of each shadow and size in a lexicographic stream,
    the ground ending at upper.

    A set of one size sorted between two of one shadow has that shadow
    too, so comparing each shadow with the previous one of its size is
    enough.
    """
    previous = {}
    for config in configs:
        key = tuple(x for x in config.elements if x < upper)
        if previous.get(len(config)) != key:
            previous[len(config)] = key
            yield config


@pytest.mark.parametrize("gens", sorted(ENUMERATION_WORK), ids=lambda g: f"{g[0]}..{g[-1]}")
def test_enumeration_work_is_pinned(gens):
    s = from_generators(gens)
    m = smallest_asymptotic_base(s)
    for r, (sets, shadows) in ENUMERATION_WORK[gens].items():
        every = list(enumerate_amenable(s, m, r))
        assert len(every) == sets, r
        reps = list(shadow_representatives(s, m, r))
        assert len(reps) == shadows, r
        assert reps == list(first_per_shadow(every, m + s.largest_generator)), r


def test_enumerate_base_too_small():
    s = from_generators([4, 5])
    with pytest.raises(InvalidInput, match=r"base 13 is below max\(2c-1, 0\) = 23"):
        list(enumerate_amenable(s, 13, 2))


# ------------------------------------------------- shadow_representatives


def test_representatives_r1():
    s = from_generators([5, 6, 7])
    m = smallest_asymptotic_base(s)
    assert [c.elements for c in shadow_representatives(s, m, 1)] == [(m,)]


def test_representative_counts_and_minimum():
    for gens, r in [((4, 5), 3), ((5, 6, 7), 4), ((4, 6, 7), 3)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        all_sets = list(enumerate_amenable(s, m, r))
        reps = list(shadow_representatives(s, m, r))
        assert len(reps) <= len(all_sets)
        shadows = {shadow(s, c).elements for c in all_sets}
        assert len(reps) == len(shadows)
        # one representative per shadow is enough for the minimization
        assert min(nu(s, c.elements) for c in reps) == min(
            nu(s, c.elements) for c in all_sets
        )


# ------------------------------------------- ground decomposition


def sample_amenable(sgp, m, r, count, seed):
    pool = list(enumerate_amenable(sgp, m, r))
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(min(count, 3 * len(pool)))]


def test_shadow_decomposition():
    # D(M) = (M \ L) disjoint-union D(L), hence nu(M) = #(M\L) + nu(L)
    for gens in [(4, 5), (5, 6, 7), (4, 6, 7)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        for config in sample_amenable(s, m, 4, 25, seed=5):
            L = shadow(s, config).elements
            above = set(config.elements) - set(L)
            d_m = set(divisors_of_set(s, config.elements).elements)
            d_l = set(divisors_of_set(s, L).elements)
            assert d_m == above | d_l
            assert not (above & d_l)
            assert nu(s, config.elements) == len(above) + nu(s, L)


def test_shadow_monotonicity():
    # equal cardinality, nested shadows -> ordered divisor counts
    for gens in [(4, 5), (5, 6, 7)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        pool = list(enumerate_amenable(s, m, 4))
        for ca in pool:
            la = set(shadow(s, ca).elements)
            for cb in pool:
                if la <= set(shadow(s, cb).elements):
                    assert nu(s, ca.elements) <= nu(s, cb.elements)


def test_shift_and_closure_transformations():
    # push right / push left / prepend / drop maximum, spot versions
    s = from_generators([5, 6, 7])
    m = 2 * s.conductor  # one past the smallest base, so push-left stays valid
    for config in sample_amenable(s, m, 4, 20, seed=9):
        elems = config.elements
        assert is_amenable(s, cfg(m + 1, [x + 1 for x in elems]))
        assert is_amenable(s, cfg(m - 1, [x - 1 for x in elems]))
        assert is_amenable(s, cfg(m - 1, [m - 1, *elems]))
        assert is_amenable(s, cfg(m, elems[:-1]))


# ------------------------------------------------------ base rule m >= 2c-1

# every entry point that takes a base m, called with a small valid rest
BASE_RULE_CALLS = {
    "is_amenable": lambda s, m: is_amenable(s, cfg(m, [m])),
    "enumerate_amenable": lambda s, m: list(enumerate_amenable(s, m, 2)),
    "feng_rao_distance": lambda s, m: feng_rao_distance(s, m, 2),
    "brute_force_distance": lambda s, m: brute_force_distance(s, m, 2),
    "shadow": lambda s, m: shadow(s, cfg(m, [m])),
}
INTERVAL_BASE_RULE_CALLS = {
    "interval_shadow_divisor_count": lambda a, b, m: interval_shadow_divisor_count(a, b, m, (0,)),
    "interval_extra_divisors": lambda a, b, m: interval_extra_divisors(a, b, m, 1, 1),
    "ordered_amenable_set": lambda a, b, m: ordered_amenable_set(a, b, m, 2),
}


@pytest.mark.parametrize("name", sorted(BASE_RULE_CALLS))
@pytest.mark.parametrize("s", [from_generators([9, 13, 15]), interval_semigroup(5, 2)])
def test_base_rule_generic_entry_points(s, name):
    call = BASE_RULE_CALLS[name]
    m0 = 2 * s.conductor - 1
    assert s.contains(m0 - 1)  # refused for the base, not for membership
    with pytest.raises(InvalidInput, match=rf"base {m0 - 1} is below max\(2c-1, 0\) = {m0}"):
        call(s, m0 - 1)
    call(s, m0)


@pytest.mark.parametrize("name", sorted(INTERVAL_BASE_RULE_CALLS))
def test_base_rule_interval_entry_points(name):
    call = INTERVAL_BASE_RULE_CALLS[name]
    m0 = 2 * interval_semigroup(5, 2).conductor - 1
    with pytest.raises(InvalidInput, match=rf"base {m0 - 1} is below max\(2c-1, 0\) = {m0}"):
        call(5, 2, m0 - 1)
    call(5, 2, m0)
