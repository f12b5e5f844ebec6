import importlib
import random
import tracemalloc
from itertools import combinations, islice
from math import comb, gcd

import pytest

import fengrao.amenable as amenable
import fengrao.distances as distances
import fengrao.semigroup as semigroup
from fengrao import (
    InvalidInput,
    SearchSpaceTooLarge,
    brute_force_distance,
    brute_force_distances,
    divisors,
    feng_rao_distance,
    feng_rao_distances,
    feng_rao_number,
    from_generators,
    interval_feng_rao_number,
    interval_semigroup,
    is_amenable,
    nu,
    smallest_asymptotic_base,
)

from corpus import corpus_semigroups, random_semigroups, semigroups_by_genus
from search_reference import reference_distances

# the package re-exports the function divisors under the module's name
divisors_module = importlib.import_module("fengrao.divisors")


def test_r1_is_counting_law():
    s = from_generators([9, 13, 15])
    res = feng_rao_distance(s, 95, 1)
    assert res.delta == 48 == 95 + 1 - 2 * s.genus
    assert res.e_number == 0
    assert res.witness.elements == (95,)


def test_argument_validation():
    with pytest.raises(InvalidInput, match="47 is not an element of the semigroup"):
        feng_rao_distance(from_generators([9, 13, 15]), 47, 2)
    s = from_generators([4, 5])
    with pytest.raises(InvalidInput, match=r"base 13 is below max\(2c-1, 0\) = 23"):
        feng_rao_distance(s, 13, 2)
    with pytest.raises(InvalidInput):
        feng_rao_distance(s, 23, 0)
    assert feng_rao_distances(s, 23, range(3, 3)) == []
    assert brute_force_distances(s, 23, range(3, 3)) == []
    for sizes in (range(1, 5, 2), [1, 2]):
        with pytest.raises(InvalidInput, match="sizes must be an int or a step-1 range"):
            feng_rao_distances(s, 23, sizes)
    with pytest.raises(InvalidInput, match=r"base 13 is below max\(2c-1, 0\) = 23"):
        brute_force_distance(s, 13, 2)


def test_generic_search_counts_in_one_frame(monkeypatch):
    # the search builds no divisor mask window, and one mask builder call at
    # top = c - 1, in the walker, gives R, which each c-bit window it counts
    # in ORs, whatever m and the set's top are
    def refused(*args):
        raise AssertionError("the generic search built a divisor mask window")

    real_build = divisors_module._element_masks
    tops = []

    def counted(sgp, top):
        tops.append(top)
        return real_build(sgp, top)

    small = from_generators([2, 9999])
    m = smallest_asymptotic_base(small)
    monkeypatch.setattr(distances, "_divisor_masks", refused)
    monkeypatch.setattr(divisors_module, "_divisor_masks", refused)
    monkeypatch.setattr(amenable, "_element_masks", counted)
    monkeypatch.setattr(divisors_module, "_element_masks", counted)
    results = feng_rao_distances(small, m, range(1, 4))
    assert tops == [small.conductor - 1]

    # windows of c bits: on <1000, 1001> a divisor mask window from m would
    # hold D(m) and each candidate's mask, 2 million bits each
    s = from_generators([1000, 1001])
    tops.clear()
    tracemalloc.start()
    try:
        feng_rao_distances(s, smallest_asymptotic_base(s), range(1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert tops == [s.conductor - 1]
    assert peak < 2_000_000, peak
    for res in results:
        assert res.delta == brute_force_distance(small, m, res.r).delta, res.r


def test_brute_force_builds_one_window_and_no_single_divisor_set(monkeypatch):
    # D(m) and every candidate mask come from the window [m, m + rho_r], and
    # a range's from the one window of its largest r
    real_masks = distances._divisor_masks
    windows = []

    def counted(sgp, lo, hi):
        windows.append((lo, hi))
        return real_masks(sgp, lo, hi)

    def refused(*args):
        raise AssertionError("brute force called divisors")

    for s in corpus_semigroups(max_multiplicity=7):
        m = smallest_asymptotic_base(s) + 2
        for r in (1, 2, 4):
            expected = brute_force_distance(s, m, r)
            windows.clear()
            monkeypatch.setattr(distances, "_divisor_masks", counted)
            monkeypatch.setattr(distances, "divisors", refused, raising=False)
            monkeypatch.setattr(divisors_module, "divisors", refused)
            assert brute_force_distance(s, m, r) == expected
            monkeypatch.undo()
            assert windows == [(m, m + s.rho(r) + 1)], (s.minimal_generators, r)
        expected = brute_force_distances(s, m, range(2, 5))
        windows.clear()
        monkeypatch.setattr(distances, "_divisor_masks", counted)
        assert brute_force_distances(s, m, range(2, 5)) == expected
        monkeypatch.undo()
        assert windows == [(m, m + s.rho(4) + 1)], s.minimal_generators


def test_translation_identity():
    # delta(m + k) = delta(m) + k past 2c-1, with the witness translated by k,
    # also at bases far past the element guard of the divisor masks
    for gens in [(4, 5), (5, 6, 7), (4, 6, 7)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        far = [10**6, semigroup._MAX_ELEMENT + 1 - m, 10**10]
        base = feng_rao_distances(s, m, range(1, 4))
        for r in (1, 2, 3):
            for k in range(1, 2 * s.largest_generator + 1):
                assert feng_rao_distance(s, m + k, r).delta == base[r - 1].delta + k
        for k in far:
            for res, at_base in zip(feng_rao_distances(s, m + k, range(1, 4)), base):
                assert res.delta == at_base.delta + k, (gens, k, res.r)
                assert res.witness.elements == tuple(
                    x + k for x in at_base.witness.elements
                ), (gens, k, res.r)


def test_e_number_first_is_zero():
    for s in corpus_semigroups(max_multiplicity=13):
        assert feng_rao_number(s, 1).e_number == 0


def test_e_number_examples():
    assert feng_rao_number(from_generators([4, 5]), 2).e_number == 4
    assert feng_rao_number(from_generators([5, 6, 7]), 3).e_number == 6


def test_e_number_naturals():
    s = from_generators([1])
    assert smallest_asymptotic_base(s) == 0
    for r in range(1, 6):
        assert feng_rao_number(s, r).e_number == r - 1


def test_witness_is_optimal_and_amenable():
    for gens in [(4, 5), (5, 6, 7), (9, 13, 15)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        for r in (2, 3, 4):
            res = feng_rao_distance(s, m, r)
            assert len(res.witness) == r
            assert nu(s, res.witness.elements) == res.delta
            assert is_amenable(s, res.witness)


def test_witness_tie_break_is_first_lexicographic_representative():
    from fengrao import shadow_representatives

    for gens in [(4, 5), (5, 6, 7)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        for r in (2, 3, 4):
            res = feng_rao_distance(s, m, r)
            attaining = [
                c.elements
                for c in shadow_representatives(s, m, r)
                if nu(s, c.elements) == res.delta
            ]
            assert res.witness.elements == min(attaining)


def test_strictly_increasing_in_r():
    for gens in [(4, 5), (5, 6, 7), (4, 7, 9)]:
        s = from_generators(gens)
        values = [feng_rao_number(s, r).e_number for r in range(1, 8)]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_brute_force_r1():
    s = from_generators([5, 6, 7])
    m = smallest_asymptotic_base(s)
    assert brute_force_distance(s, m, 1).delta == m + 1 - 2 * s.genus


def test_brute_force_example_4_5():
    # the smallest valid base for <4,5> is 23; E_2 = 4 there
    s = from_generators([4, 5])
    res = brute_force_distance(s, 23, 2)
    assert res.delta == 23 + 1 - 2 * s.genus + 4
    assert res.e_number == 4


def test_brute_force_cap():
    s = from_generators([9, 13, 15])
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_distance(s, 95, 5, max_subsets=10)
    with pytest.raises(InvalidInput, match="subset cap"):
        brute_force_distance(s, 95, 1, max_subsets=-1)
    # the cap counts the candidate subsets C(rho_r, r-1), not those visited
    assert comb(s.rho(5), 4) == 3060
    with pytest.raises(SearchSpaceTooLarge, match="^3060 candidate"):
        brute_force_distance(s, 95, 5, max_subsets=3059)
    assert brute_force_distance(s, 95, 5, max_subsets=3060).r == 5


def combinations_brute_force(sgp, m, r):
    """(delta, witness) over every (r-1)-subset in combinations order.

    The oracle before branch and bound, kept as the reference: no
    pruning, the first minimal subset wins.
    """
    candidates = range(m + 1, m + sgp.rho(r) + 1)
    base_mask = divisors(sgp, m).mask
    mask_of = {x: divisors(sgp, x).mask for x in candidates}
    best = witness = None
    for combo in combinations(candidates, r - 1):
        union = base_mask
        for x in combo:
            union |= mask_of[x]
        count = union.bit_count()
        if best is None or count < best:
            best, witness = count, (m,) + combo
    return best, witness


def test_brute_force_matches_the_combinations_reference():
    # random semigroups of multiplicity <= 14, r <= 7, bases 2c-1 + 0..6;
    # same delta and same witness, the first minimum in lexicographic order
    rng = random.Random(7)
    points = []
    while len(points) < 400:
        a = rng.randint(1, 14)
        rest = rng.sample(range(a + 1, 3 * a + 3), rng.randint(0, min(3, 2 * a + 2)))
        if gcd(a, *rest) != 1:
            continue
        s = from_generators([a, *rest])
        r = rng.randint(1, 7)
        if comb(s.rho(r), r - 1) > 300_000:
            continue
        points.append((s, smallest_asymptotic_base(s) + rng.randint(0, 6), r))
    for s, m, r in points:
        res = brute_force_distance(s, m, r)
        expected = combinations_brute_force(s, m, r)
        assert (res.delta, res.witness.elements) == expected, (s.minimal_generators, m, r)


def test_brute_force_ranges_match_the_combinations_reference():
    # one walk serves lo..hi, hi <= 7, at bases 2c-1 + 0..6: every r has the
    # reference's delta and witness, in ranges from 1, ranges from above 1
    # and single sizes
    rng = random.Random(30)
    ranges = []
    while len(ranges) < 240:
        a = rng.randint(1, 14)
        rest = rng.sample(range(a + 1, 3 * a + 3), rng.randint(0, min(3, 2 * a + 2)))
        if gcd(a, *rest) != 1:
            continue
        s = from_generators([a, *rest])
        lo = rng.choice([1, rng.randint(2, 7)])
        hi = rng.choice([lo, rng.randint(lo, 7)])
        if sum(comb(s.rho(r), r - 1) for r in range(lo, hi + 1)) > 100_000:
            continue
        ranges.append((s, smallest_asymptotic_base(s) + rng.randint(0, 6), lo, hi))
    shapes = {(lo == 1, lo == hi) for _, _, lo, hi in ranges}
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}
    for s, m, lo, hi in ranges:
        results = brute_force_distances(s, m, range(lo, hi + 1))
        assert [res.r for res in results] == list(range(lo, hi + 1))
        for res in results:
            expected = combinations_brute_force(s, m, res.r)
            assert (res.delta, res.witness.elements) == expected, (
                s.minimal_generators, m, lo, hi, res.r,
            )


def test_brute_force_range_equals_its_single_sizes_up_to_genus_10():
    # r 1..c+1 in one walk against one walk per r, delta and witness
    points = 0
    for level in semigroups_by_genus(10):
        for s in level:
            if s.conductor < 2:
                continue
            m = smallest_asymptotic_base(s)
            results = brute_force_distances(s, m, range(1, s.conductor + 2), float("inf"))
            for res in results:
                single = brute_force_distance(s, m, res.r, max_subsets=float("inf"))
                assert res == single, (s.minimal_generators, res.r)
                points += 1
    assert points == 7278


def test_brute_force_depth_is_not_bound_by_the_recursion_limit():
    # <2,3> has C(rho_r, r-1) = r candidate subsets, so r passes any cap;
    # E(S, r) = rho_r for two generators
    s = from_generators([2, 3])
    res = brute_force_distance(s, 3, 1500)
    assert res.e_number == s.rho(1500)
    assert res.witness.elements == tuple(range(3, 1503))


def test_brute_force_equals_closed_form_on_the_acceptance_grid():
    # all 792 points of b < a <= 12, r <= 12; <12,13> at r = 12 has about
    # 2.9 * 10^10 candidate subsets, so the cap is raised past that
    for a in range(2, 13):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            m = smallest_asymptotic_base(s)
            for r in range(1, 13):
                res = brute_force_distance(s, m, r, max_subsets=10**11)
                assert res.e_number == interval_feng_rao_number(a, b, r), (a, b, r)


def test_two_generator_rho_comparison_report():
    # E(S, r) = rho_r for every two-generator semigroup (Delgado, Farran,
    # Garcia-Sanchez and Llena, 2014), a property in test_properties.py;
    # report the comparison for the corpus pairs, assert nothing about it.
    lines = []
    for gens in [(3, 5), (3, 7), (4, 7), (5, 8), (7, 10)]:
        s = from_generators(gens)
        for r in range(1, 6):
            e = feng_rao_number(s, r).e_number
            rho = s.rho(r)
            lines.append(f"<{gens[0]},{gens[1]}> r={r}: E={e} rho={rho} "
                         f"{'==' if e == rho else '!='}")
    print("\n".join(lines))
    assert len(lines) == 25


def test_oracle_equivalence_small():
    # the full sweep is acceptance criterion 3; keep a quick slice here
    for gens in [(3, 4), (4, 5), (5, 6, 7), (4, 7, 9)]:
        s = from_generators(gens)
        m = smallest_asymptotic_base(s)
        for r in (1, 2, 3, 4):
            assert (
                feng_rao_distance(s, m, r).delta
                == brute_force_distance(s, m, r).delta
            )


def test_bounded_search_equals_the_unbounded_reference():
    # delta and witness: the cut keeps the first minimum in lexicographic order
    semigroups = [
        s
        for s in corpus_semigroups()
        + [interval_semigroup(a, b) for a in range(2, 13) for b in range(1, a)]
        + list(islice(random_semigroups(11), 60))
        if s.multiplicity <= 13
    ]
    points = 0
    for s in semigroups:
        for m in (smallest_asymptotic_base(s), 2 * s.conductor + 2):
            for rs in (range(1, 9), range(3, 7)):
                got = feng_rao_distances(s, m, rs)
                assert [(res.delta, res.witness.elements) for res in got] == (
                    reference_distances(s, m, rs)
                ), (s.minimal_generators, m, rs)
                points += len(rs)
    assert points == 2640


# (sets the walker admits, sets of the largest size it yields, candidate
# offsets it scans) at 2c-1 for r 1..14 on the benchmark's deep-r and
# wide-ground semigroups, summed for r 1..12 over the acceptance grid
# b < a <= 12, and for r 1..20 on <20..39>.  With no bound the two first
# drew 549,299 and 213,544 sets; cutting after each prefix was yielded
# drew 496 and 4,691 candidates and 130 and 557 sets.  Before the walk
# stopped extending a set whose hole under its top fills for free, the
# first three admitted 116, 556 and 9,773 sets and scanned 667, 6,541 and
# 65,069 offsets, and <20..39> admitted 262,145.  Of the offsets scanned,
# 234, 232, 7,321 and 381 pass the mask test and are counted
SEARCH_WORK = {
    "14..15": ([(14, 15)], 14, (112, 10, 560)),
    "16..24": ([tuple(range(16, 25))], 14, (90, 4, 302)),
    "grid": (
        [tuple(range(a, a + b + 1)) for a in range(2, 13) for b in range(1, a)],
        12,
        (3737, 160, 11721),
    ),
    "20..39": ([tuple(range(20, 40))], 20, (173, 1, 381)),
}


@pytest.mark.parametrize("case", sorted(SEARCH_WORK))
def test_bounded_search_work_is_pinned(monkeypatch, case):
    work = {"sets": 0, "shadows": 0}
    records = []

    def counted(source, key):
        def through(*args, **kwargs):
            if key == "shadows":
                records.append(kwargs["record"])
            for config in source(*args, **kwargs):
                work[key] += 1
                yield config

        return through

    monkeypatch.setattr(
        amenable, "enumerate_amenable", counted(amenable.enumerate_amenable, "sets")
    )
    monkeypatch.setattr(
        distances, "shadow_representatives",
        counted(distances.shadow_representatives, "shadows"),
    )
    gens_list, rmax, expected = SEARCH_WORK[case]

    def walk(lo):
        records.clear()
        for gens in gens_list:
            s = from_generators(gens)
            feng_rao_distances(s, smallest_asymptotic_base(s), range(lo, rmax + 1))
        # one record per search, handed to the walk the search drains
        assert len(records) == len(gens_list)
        return sum(r.sets for r in records), sum(r.scanned for r in records)

    sets, scanned = walk(1)
    assert (sets, work["shadows"], scanned) == expected
    # the walker draws one set per shadow itself: nothing is left to drop
    assert work["sets"] == work["shadows"]
    # only max(rs) steers the bound: the bottom of the range changes no work
    for lo in (rmax, rmax // 2):
        assert walk(lo) == (expected[0], expected[2]), lo


def test_generic_equals_brute_force_up_to_c_plus_1():
    # a seeded sample of the semigroups with c <= 22 and multiplicity <= 10,
    # at every r up to c + 1, against the uncapped oracle
    sample = {}
    for s in random_semigroups(16):
        if s.conductor <= 22 and s.multiplicity <= 10:
            sample.setdefault(s.minimal_generators, s)
            if len(sample) == 160:
                break
    for s in sample.values():
        m = smallest_asymptotic_base(s)
        for res in feng_rao_distances(s, m, range(1, s.conductor + 2)):
            brute = brute_force_distance(s, m, res.r, max_subsets=float("inf"))
            assert res.delta == brute.delta, (s.minimal_generators, res.r)


def test_generic_equals_brute_force_on_every_semigroup_up_to_genus_10():
    # delta and witness at every r up to c + 1, against the uncapped oracle
    envelope = [s for level in semigroups_by_genus(10) for s in level]
    assert len(envelope) == 478
    points = 0
    for s in envelope:
        if s.conductor < 2:
            continue
        m = smallest_asymptotic_base(s)
        results = feng_rao_distances(s, m, range(1, s.conductor + 2))
        for res in results:
            brute = brute_force_distance(s, m, res.r, max_subsets=float("inf"))
            assert (res.delta, res.witness) == (brute.delta, brute.witness), (
                s.minimal_generators, res.r,
            )
            points += 1
        # the invariant behind the search's one-number bound
        for below, above in zip(results, results[1:]):
            assert above.delta >= below.delta + 1, (s.minimal_generators, above.r)
    assert points == 7278


def test_feng_rao_number_at_most_rho_up_to_genus_12():
    # the Goppa-like bound of Farran and Munuera (2003): E(S, r) <= rho_r,
    # with equality for r >= c + 1, at every r up to c + 2
    envelope = [s for level in semigroups_by_genus(12) for s in level]
    assert len(envelope) == 1413
    points = 0
    for s in envelope:
        results = feng_rao_distances(
            s, smallest_asymptotic_base(s), range(1, s.conductor + 3)
        )
        for res in results:
            assert res.e_number <= s.rho(res.r), (s.minimal_generators, res.r)
            if res.r >= s.conductor + 1:
                assert res.e_number == s.rho(res.r), (s.minimal_generators, res.r)
            points += 1
    assert points == 27172


def test_witness_above_the_conductor_is_the_initial_interval_up_to_genus_10():
    # for r > c the first minimum in lexicographic order is {m, ..., m + r - 1},
    # the least r-set of all, and E(S, r) = rho_r
    envelope = [s for level in semigroups_by_genus(10) for s in level]
    points = 0
    for s in envelope:
        m = smallest_asymptotic_base(s)
        for res in feng_rao_distances(s, m, range(s.conductor + 1, s.conductor + 4)):
            assert res.witness.elements == tuple(range(m, m + res.r)), (
                s.minimal_generators, res.r,
            )
            assert res.e_number == s.rho(res.r), (s.minimal_generators, res.r)
            points += 1
    assert points == 1434
