import random
import time
import tracemalloc

import pytest

from fengrao import (
    Configuration,
    InvalidInput,
    as_interval,
    ceil_sum,
    divisors,
    divisors_above,
    divisors_of_set,
    enumerate_amenable,
    feng_rao_distances,
    feng_rao_number,
    from_generators,
    h_decompose,
    interval_contains,
    interval_extra_divisors,
    interval_feng_rao_number,
    interval_semigroup,
    interval_shadow_divisor_count,
    is_amenable,
    is_ordered_amenable,
    nu,
    ordered_amenable_set,
    ordered_shadow_size,
    rho_equality_predicted,
    smallest_asymptotic_base,
    wagon_pivot,
)
from fengrao.interval import _ceildiv, _interval_numbers
from interval_reference import (
    block_walk_decompose,
    block_walk_feng_rao_number,
    run_walk_rho_equality_predicted,
)

PAIRS = [(4, 1), (5, 2), (7, 3), (9, 4)]


def loop_ceil_sum(x, y, b):
    return sum(_ceildiv(y - j, b) for j in range(1, x + 1))


def base_for(a, b):
    return smallest_asymptotic_base(interval_semigroup(a, b))


# ------------------------------------------------------------ membership


def test_interval_contains_examples():
    assert interval_contains(9, 4, 35)  # 35 = 3*9 + 8, 8 <= 12
    assert interval_contains(9, 4, 0)
    assert not interval_contains(9, 4, 17)  # 17 = 9 + 8, 8 > 4
    assert not interval_contains(9, 4, -5)
    with pytest.raises(InvalidInput, match="need 0 < b < a, got a=4, b=4"):
        interval_contains(4, 4, 10)
    with pytest.raises(InvalidInput, match="need 0 < b < a, got a=4, b=0"):
        interval_contains(4, 0, 10)


def test_interval_contains_matches_semigroup():
    for a in range(2, 13):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            for n in range(4 * (a + b) + 1):
                assert interval_contains(a, b, n) == s.contains(n)


def test_interval_conductor_and_genus_closed_forms():
    for a in range(2, 13):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            assert s.conductor == _ceildiv(a - 1, b) * a
            assert s.genus == sum(_ceildiv(v, b) for v in range(1, a))
            assert s.minimal_generators == tuple(range(a, a + b + 1))


def test_interval_semigroup_type():
    with pytest.raises(InvalidInput, match="need 0 < b < a, got a=4, b=4"):
        interval_semigroup(4, 4)
    assert as_interval(from_generators([5, 6, 7])) == (5, 2)
    assert as_interval(from_generators([4, 7])) is None
    assert as_interval(from_generators([1])) is None


# -------------------------------------------------------------- ceil_sum


def test_ceil_sum_examples():
    assert ceil_sum(6, 6, 2) == 9
    for y in (3, 7, 12):
        for b in (1, 2, 5):
            assert ceil_sum(1, y, b) == _ceildiv(y - 1, b)
    with pytest.raises(InvalidInput, match="need x, y, b >= 1, got x=0, y=5, b=2"):
        ceil_sum(0, 5, 2)


def test_ceil_sum_spot_against_loop():
    # the full x, y <= 200, b <= 20 sweep is acceptance criterion 7
    for x in (1, 2, 7, 19, 40):
        for y in (1, 3, 8, 25, 60):
            for b in (1, 2, 3, 7):
                assert ceil_sum(x, y, b) == loop_ceil_sum(x, y, b)


# ----------------------------------------------------------- h_decompose


def test_h_decompose_examples():
    d = h_decompose(1, 3)
    assert (d.h, d.k, d.j) == (1, -1, 1)
    d = h_decompose(2, 1)
    assert (d.h, d.k, d.j) == (1, 0, 1)
    d = h_decompose(7, 2)
    assert (d.h, d.k, d.j) == (2, 1, 1)


@pytest.mark.parametrize("b", [1, 2, 3, 5, 8])
def test_h_decompose_invariants(b):
    for r in range(1, 300):
        d = h_decompose(r, b)
        assert r == d.h + b * d.h * (d.h - 1) // 2 + d.k * d.h + d.j
        assert -1 <= d.k <= b - 1
        assert 0 < d.j <= d.h
        if d.k == -1:
            assert d.j == d.h
        lo = d.h + b * d.h * (d.h - 1) // 2
        hi = 1 + d.h + b * d.h * (d.h + 1) // 2
        assert lo <= r < hi


def test_h_decompose_equals_the_block_walk():
    for b in range(1, 13):
        for r in range(1, 3001):
            d = h_decompose(r, b)
            assert (d.h, d.k, d.j) == block_walk_decompose(r, b), (r, b)


def test_closed_forms_equal_the_block_walk():
    for a in range(2, 40):
        for b in range(1, a):
            for r in range(1, 300):
                assert rho_equality_predicted(a, b, r) == run_walk_rho_equality_predicted(a, b, r), (a, b, r)
                assert interval_feng_rao_number(a, b, r) == block_walk_feng_rao_number(a, b, r), (a, b, r)


def test_interval_numbers_from_any_start_equal_the_block_walk():
    # one h_decompose of the range's start seeds the stepping, so every
    # start lo in 1..60 must give the block walk's values from lo on
    points = 0
    for a in range(2, 13):
        for b in range(1, a):
            expected = [
                (block_walk_feng_rao_number(a, b, r), run_walk_rho_equality_predicted(a, b, r))
                for r in range(1, 61)
            ]
            for lo in range(1, 61):
                got = list(_interval_numbers(a, b, range(lo, 61)))
                assert got == expected[lo - 1:], (a, b, lo)
                points += len(got)
    assert points == 120_780


@pytest.mark.parametrize("b", [1, 2, 7, 40])
def test_h_decompose_is_exact_at_huge_block_edges(b):
    # isqrt leaves no rounding slack, even at r = 10^100 and next to a block start
    for q in (10**30, 10**45 + 7):
        start = q + b * q * (q - 1) // 2
        for r in (start - 1, start, start + 1, 10**100):
            d = h_decompose(r, b)
            assert r == d.h + b * d.h * (d.h - 1) // 2 + d.k * d.h + d.j
            assert -1 <= d.k <= b - 1 and 0 < d.j <= d.h
            assert d.k > -1 or d.j == d.h
            # a shadow far narrower than a leaves the k test alone to decide
            assert rho_equality_predicted(10**60, b, r) == (d.k in (-1, b - 1))
        assert h_decompose(start, b).h == q and h_decompose(start - 1, b).h == q - 1


def test_closed_forms_take_constant_time_in_r():
    r = 10**100
    t0 = time.perf_counter()
    e = interval_feng_rao_number(5, 2, r)
    predicted = rho_equality_predicted(5, 2, r)
    assert time.perf_counter() - t0 < 0.01
    # the shadow fills the ground of width a + b = 7 long before r = 10^100
    assert e == r - 1 + ceil_sum(6, 5, 2)
    assert predicted


# ------------------------------------------------- closed-form E(r, S)


# a bad (a, b) is named before any other bad argument; the valid pair
# <5,6,7> shows that each second argument is refused on its own
REFUSALS = {
    "ordered_shadow_size": (lambda a, b, m: ordered_shadow_size(a, b, 0), "need r, b >= 1"),
    "rho_equality_predicted": (lambda a, b, m: rho_equality_predicted(a, b, 0), "need r, b >= 1"),
    "interval_feng_rao_number": (lambda a, b, m: interval_feng_rao_number(a, b, 0), "need r, b >= 1"),
    "interval_shadow_divisor_count": (
        lambda a, b, m: interval_shadow_divisor_count(a, b, m, [1, 2]),
        "offsets must be nonempty and start at 0",
    ),
    "interval_extra_divisors": (lambda a, b, m: interval_extra_divisors(a, b, m, -1, 0), "need q >= 0"),
    "ordered_amenable_set r = 0": (lambda a, b, m: ordered_amenable_set(a, b, m, 0), "need r, b >= 1"),
    "ordered_amenable_set no ordered set": (
        lambda a, b, m: ordered_amenable_set(a, b, m, 10**6),
        "needs shadow edge",
    ),
    "wagon_pivot": (
        lambda a, b, m: wagon_pivot(a, b, Configuration(base=m, elements=())),
        "wagon of an empty configuration",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_bad_interval_is_refused_before_any_other_argument(name):
    call, own = REFUSALS[name]
    with pytest.raises(InvalidInput, match=own):
        call(5, 2, base_for(5, 2))
    for a, b in [(4, 4), (3, 5), (4, 0)]:
        with pytest.raises(InvalidInput, match=f"need 0 < b < a, got a={a}, b={b}"):
            call(a, b, 40)


def test_feng_rao_number_examples():
    for a, b in PAIRS:
        assert interval_feng_rao_number(a, b, 1) == 0
    assert interval_feng_rao_number(4, 1, 2) == 4
    assert interval_feng_rao_number(5, 2, 3) == 6
    with pytest.raises(InvalidInput, match="need 0 < b < a, got a=4, b=4"):
        interval_feng_rao_number(4, 4, 2)


def test_formula_vs_generic_spot():
    # full a <= 12, r <= 12 sweep is acceptance criterion 4
    for a, b in PAIRS:
        s = interval_semigroup(a, b)
        for r in range(1, 7):
            assert interval_feng_rao_number(a, b, r) == feng_rao_number(s, r).e_number


def test_formula_vs_generic_on_every_interval_up_to_a_24():
    # every <a..a+b>, b < a <= 24, at r 1..a+1: wide grounds at r near a,
    # where the walk's exchange rule cuts most, among them <a..2a-1> at
    # r = a-1 and a
    points = 0
    for a in range(2, 25):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            rs = range(1, a + 2)
            m = smallest_asymptotic_base(s)
            got = [res.e_number for res in feng_rao_distances(s, m, rs)]
            assert got == [interval_feng_rao_number(a, b, r) for r in rs], (a, b)
            points += len(rs)
    assert points == 4876


# --------------------------------------------- shadow divisor counting


def amenable_offset_sets(a, b):
    """All amenable subsets of the ground, as offset tuples."""
    s = interval_semigroup(a, b)
    m = base_for(a, b)
    out = []
    for size in range(1, a + b + 1):
        for config in enumerate_amenable(s, m, size):
            offs = config.offsets()
            if offs[-1] < a + b:
                out.append(offs)
    return out


def test_shadow_count_single_and_interval():
    for a, b in PAIRS:
        s = interval_semigroup(a, b)
        m = base_for(a, b)
        assert interval_shadow_divisor_count(a, b, m, [0]) == m + 1 - 2 * s.genus
        for t in range(1, a + b):
            expected = (m + 1 - 2 * s.genus) + sum(
                _ceildiv(a + b - j, b) for j in range(1, t + 1)
            )
            got = interval_shadow_divisor_count(a, b, m, list(range(t + 1)))
            assert got == expected


def test_shadow_count_matches_enumeration():
    # acceptance criterion 8 runs the randomized version
    for a, b in [(5, 2), (7, 3)]:
        s = interval_semigroup(a, b)
        m = base_for(a, b)
        for offs in amenable_offset_sets(a, b):
            formula = interval_shadow_divisor_count(a, b, m, offs)
            direct = nu(s, [m + i for i in offs])
            assert formula == direct, (a, b, offs)


def test_shadow_count_rejects_non_amenable():
    # {m, m+6} over <5,6,7>: 6 is a generator but m+6-5 = m+1 is missing
    with pytest.raises(InvalidInput, match=r"offsets \(0, 6\) do not give an amenable set"):
        interval_shadow_divisor_count(5, 2, base_for(5, 2), [0, 6])
    assert interval_shadow_divisor_count(5, 2, base_for(5, 2), [0, 6], check=False) >= 0


def test_shadow_count_validation():
    with pytest.raises(InvalidInput, match="offsets must be nonempty and start at 0"):
        interval_shadow_divisor_count(5, 2, base_for(5, 2), [1, 2])
    with pytest.raises(InvalidInput, match=r"offsets must increase strictly and stay below a\+b"):
        interval_shadow_divisor_count(5, 2, base_for(5, 2), [0, 7])


def test_shadow_count_is_the_per_pair_sum_on_every_offset_set():
    # every {0} + T, T a subset of [1, a+b), amenable or not, against the
    # per-pair sum of fresh divisors written out with _ceildiv loops
    for a in range(2, 7):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            m = base_for(a, b)
            for bits in range(1 << (a + b - 1)):
                offs = (0,) + tuple(i for i in range(1, a + b) if bits >> (i - 1) & 1)
                expected = m + 1 - 2 * s.genus
                for prev, cur in zip(offs, offs[1:]):
                    for j in range(prev + 1, cur + 1):
                        expected += _ceildiv(a + b - j, b) - _ceildiv(cur - j, b)
                got = interval_shadow_divisor_count(a, b, m, offs, check=False)
                assert got == expected, (a, b, offs)


def test_interval_minimality_spot():
    # formula count of any offset set >= count of the initial interval
    rng = random.Random(23)
    for a, b in [(5, 2), (9, 4)]:
        m = base_for(a, b)
        for _ in range(60):
            size = rng.randrange(1, a + b - 1)
            offs = (0,) + tuple(sorted(rng.sample(range(1, a + b), size)))
            free = interval_shadow_divisor_count(a, b, m, offs, check=False)
            packed = interval_shadow_divisor_count(
                a, b, m, range(len(offs)), check=False
            )
            assert free >= packed


# ------------------------------------------------------ extra divisors


def test_extra_divisors_empty_case():
    assert interval_extra_divisors(9, 4, base_for(9, 4), 0, 0).elements == ()


def test_extra_divisors_element_guard_refuses_before_allocating():
    # D(m + qa + j) holds the result, so it answers to the divisors guard;
    # unguarded, this call built about a*q ints (286 MB)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="guard"):
            interval_extra_divisors(5, 2, 19, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("a,b", [(9, 4), (5, 2)])
def test_extra_divisors_match_enumeration(a, b):
    s = interval_semigroup(a, b)
    m = base_for(a, b)
    base = set(divisors(s, m).elements)
    for q in range(0, 3):
        for j in range(0, a):
            got = interval_extra_divisors(a, b, m, q, j)
            expected = set(divisors_of_set(s, [m, m + q * a + j]).elements) - base
            assert set(got.elements) == expected, (q, j)
            # the two families name one distinct divisor per (v, k) pair
            pairs = sum(
                len(range(_ceildiv(v + j, b) - q, _ceildiv(v, b))) for v in range(a - j)
            ) + sum(
                len(range(_ceildiv(v + j - (a + b), b) - q, _ceildiv(v, b)))
                for v in range(a - j, a)
            )
            assert len(got) == pairs, (q, j)


def test_extra_divisors_accumulate_like_consecutive_counts():
    a, b = 9, 4
    m = base_for(a, b)
    s = interval_semigroup(a, b)
    for t in range(1, a):
        gained = set()
        for j in range(1, t + 1):
            gained |= set(interval_extra_divisors(a, b, m, 0, j).elements)
        expected = sum(_ceildiv(a + b - j, b) for j in range(1, t + 1))
        assert len(gained) == expected
        assert nu(s, range(m, m + t + 1)) == (m + 1 - 2 * s.genus) + expected


# ------------------------------------------------- ordered amenable sets


def all_ordered_r(a, b, r_max=40):
    out = []
    for r in range(1, r_max):
        d = h_decompose(r, b)
        if b * (d.h - 1) + d.k + 1 < a + b - 1:
            out.append(r)
    return out


def test_ordered_r1():
    for a, b in PAIRS:
        m = base_for(a, b)
        assert ordered_amenable_set(a, b, m, 1).elements == (m,)


def test_ordered_sets_are_ordered_amenable_of_size_r():
    for a, b in PAIRS:
        s = interval_semigroup(a, b)
        m = base_for(a, b)
        for r in all_ordered_r(a, b):
            config = ordered_amenable_set(a, b, m, r)
            assert len(config) == r
            assert is_amenable(s, config)
            assert is_ordered_amenable(a, b, config)
            # shadow is the initial interval of the predicted size
            size = ordered_shadow_size(a, b, r)
            in_ground = [x for x in config.elements if x < m + a + b]
            assert in_ground == list(range(m, m + size))


def test_ordered_set_rejects_filled_ground():
    # (4,1): h=4, k=0 pushes the shadow edge to a+b-1
    with pytest.raises(InvalidInput, match=r"r=11 needs shadow edge 4 < a\+b-1 = 4"):
        ordered_amenable_set(4, 1, base_for(4, 1), 11)


def test_interval_shadow_count_closed_form():
    # amenable sets whose shadow is an initial interval of length l:
    # nu = m - 2g + #M + sum_{j<l} ceil((a-j)/b)
    for a, b in PAIRS:
        s = interval_semigroup(a, b)
        m = base_for(a, b)
        for r in all_ordered_r(a, b):
            config = ordered_amenable_set(a, b, m, r)
            l = sum(1 for x in config.elements if x < m + a + b)
            expected = m - 2 * s.genus + r + sum(
                _ceildiv(a - j, b) for j in range(1, l)
            )
            assert nu(s, config.elements) == expected


def test_ordered_sets_are_optimal_spot():
    # acceptance criterion 6 runs every admitting r; spot-check here
    for a, b in [(4, 1), (5, 2)]:
        s = interval_semigroup(a, b)
        m = base_for(a, b)
        for r in all_ordered_r(a, b)[:6]:
            config = ordered_amenable_set(a, b, m, r)
            assert nu(s, config.elements) == m + 1 - 2 * s.genus + interval_feng_rao_number(a, b, r)


def pivot_removal_construction(a, b, m, r):
    """The proof-style construction: strip pivots off D(m + h(a+b))."""
    s = interval_semigroup(a, b)
    h = h_decompose(r, b).h
    current = list(divisors_above(s, m + h * (a + b), m).elements)
    while len(current) > r:
        pivot = wagon_pivot(a, b, Configuration(base=m, elements=tuple(current))).pivot
        current.remove(pivot)
    return tuple(current)


def test_explicit_union_equals_pivot_removal_construction():
    for a, b in PAIRS:
        m = base_for(a, b)
        for r in all_ordered_r(a, b):
            assert (
                ordered_amenable_set(a, b, m, r).elements
                == pivot_removal_construction(a, b, m, r)
            )


def test_divisor_cone_cardinality_closed_form():
    # #(D(m + q(a+b)) cut to [m, inf)) = 1 + q + b q(q+1)/2 while qb < a
    for a, b in PAIRS:
        s = interval_semigroup(a, b)
        m = base_for(a, b)
        q = 1
        while q * b < a:
            count = len(divisors_above(s, m + q * (a + b), m))
            assert count == 1 + q + b * q * (q + 1) // 2
            q += 1


# ----------------------------------------------------------- wagon/pivot


def test_wagon_of_singleton():
    m = base_for(5, 2)
    wp = wagon_pivot(5, 2, Configuration(base=m, elements=(m,)))
    assert wp.wagon == (m,)
    assert wp.pivot == m


def test_pivot_column_index():
    for a, b in PAIRS:
        m = base_for(a, b)
        for r in all_ordered_r(a, b)[2:8]:
            config = ordered_amenable_set(a, b, m, r)
            wp = wagon_pivot(a, b, config)
            if wp.pivot >= m + b:
                j0 = max((x - m - b) % a for x in config.elements if x >= m + b)
                assert (wp.pivot - m - b) % a == j0


def test_pivot_removal_preserves_orderedness():
    for a, b in PAIRS:
        m = base_for(a, b)
        for r in all_ordered_r(a, b):
            if r == 1:
                continue
            config = ordered_amenable_set(a, b, m, r)
            pivot = wagon_pivot(a, b, config).pivot
            rest = tuple(x for x in config.elements if x != pivot)
            assert is_ordered_amenable(a, b, Configuration(base=m, elements=rest))


def test_is_ordered_amenable_refusals():
    # one set per refusal on <4, 5>: ground [m, m + 4], rho_2 = 4
    s = interval_semigroup(4, 1)
    m = base_for(4, 1)
    not_amenable = (m, m + 8)  # m + 8 - 4 is missing
    assert not is_amenable(s, Configuration(base=m, elements=not_amenable))
    assert not is_ordered_amenable(4, 1, Configuration(base=m, elements=not_amenable))
    for elements in [
        (m, m + 2),  # the shadow is not an interval
        tuple(range(m, m + 5)),  # the shadow fills the ground
        (m, m + 1, m + 2),  # pivot m + 2, yet m + 5 can be added, not only m + 6
    ]:
        config = Configuration(base=m, elements=elements)
        assert is_amenable(s, config), elements
        assert not is_ordered_amenable(4, 1, config), elements


def test_ordered_shadows_coincide():
    # sets of equal size from the two constructions share their shadow
    for a, b in PAIRS:
        m = base_for(a, b)
        for r in all_ordered_r(a, b):
            explicit = ordered_amenable_set(a, b, m, r)
            via_removal = pivot_removal_construction(a, b, m, r)
            cut = m + a + b
            assert (
                tuple(x for x in explicit.elements if x < cut)
                == tuple(x for x in via_removal if x < cut)
            )


# ---------------------------------------------------- rho-equality cases


def test_rho_equality_prediction_matches_its_definition():
    # every b < a <= 40, r <= 40 (31,200 points); acceptance criterion 11
    # checks the advertised pairs against the generic search
    for a in range(2, 41):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            for r in range(1, 41):
                actual = interval_feng_rao_number(a, b, r) == s.rho(r)
                assert rho_equality_predicted(a, b, r) == actual, (a, b, r)
