import importlib
import random
import tracemalloc
from itertools import islice

import pytest

import fengrao.semigroup as semigroup
from fengrao import (
    InvalidInput,
    NumericalSemigroup,
    divisors,
    divisors_above,
    divisors_of_set,
    from_generators,
    nu,
    smallest_asymptotic_base,
)
from fengrao.divisors import DivisorSet, _divisor_masks, _element_masks

from corpus import CORPUS, corpus_semigroups, random_semigroups
from mask_reference import digit_element_masks

# the package re-exports the function divisors under the module's name
divisors_module = importlib.import_module("fengrao.divisors")

FIG_DIVISORS_60 = (0, 9, 15, 18, 24, 27, 30, 33, 36, 42, 45, 51, 60)

# Divisors of {199, 229, 235, 247} in <19..23> that are >= 189 (figure data).
FIG_AMENABLE = (
    tuple(range(189, 198)) + (199,) + tuple(range(201, 211))
    + tuple(range(212, 217)) + tuple(range(224, 230)) + (235, 247)
)


def brute_divisors(sgp, x):
    return [p for p in range(x + 1) if sgp.contains(p) and sgp.contains(x - p)]


def test_figure_divisors_of_60():
    s = from_generators([9, 13, 15])
    d = divisors(s, 60)
    assert d.elements == FIG_DIVISORS_60
    assert len(d) == 13


def test_divisors_trivial_cases(monkeypatch):
    s = from_generators([9, 13, 15])
    assert divisors(s, 0).elements == (0,)
    assert divisors(s, 9).elements == (0, 9)
    with pytest.raises(InvalidInput, match="47 is not an element of the semigroup"):
        divisors(s, 47)

    # a gap or a negative x is refused by the membership test, before a build
    def fail(sgp, top):
        raise AssertionError(f"built masks up to {top}")

    monkeypatch.setattr(divisors_module, "_element_masks", fail)
    for x in (47, 1, -1, -9):
        with pytest.raises(InvalidInput, match=f"^{x} is not an element of the semigroup$"):
            divisors(s, x)


def test_divisors_symmetry():
    s = from_generators([9, 13, 15])
    for x in (60, 48, 95):
        d = set(divisors(s, x).elements)
        assert all((x - a) in d for a in d)


@pytest.mark.parametrize("gens", [g for g in CORPUS if g[0] <= 9])
def test_divisors_against_double_loop(gens):
    s = from_generators(gens)
    for x in range(2 * s.conductor + 2 * s.largest_generator + 1):
        if s.contains(x):
            assert list(divisors(s, x).elements) == brute_divisors(s, x)


def test_divisor_window_against_double_loop():
    # the ground windows [2c - 1, 2c - 1 + n_e) of the generic search, and
    # windows from below c, gaps included, which get the empty mask
    for s in corpus_semigroups(max_multiplicity=13):
        m, width = smallest_asymptotic_base(s), s.largest_generator
        for lo, hi in [(m, m + width), (0, m + width), (s.conductor // 2, s.conductor + 3),
                       (max(s.conductor - 1, 0), s.conductor + 1)]:
            masks = _divisor_masks(s, lo, hi)
            assert len(masks) == hi - lo
            for x, mask in zip(range(lo, hi), masks):
                expected = brute_divisors(s, x) if s.contains(x) else []
                assert list(DivisorSet(mask)) == expected, (s.minimal_generators, x)


def test_divisor_window_guards_its_largest_element_first():
    s = from_generators([5, 6, 7, 9])
    tracemalloc.start()
    try:
        for lo, hi in [(0, semigroup._MAX_ELEMENT + 2), (10**10, 10**10 + 3)]:
            with pytest.raises(InvalidInput, match="guard"):
                _divisor_masks(s, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    top = semigroup._MAX_ELEMENT
    assert _divisor_masks(s, top, top + 1) == [divisors(s, top).mask]


def test_element_masks_against_digit_reference():
    # every top in [0, 3c + n_e] crosses both branches of the builder, cut
    # below c and extended from c on; the corpus holds <1> and <2,3>
    sample = corpus_semigroups() + list(islice(random_semigroups(seed=15), 25))
    assert max(s.conductor for s in sample) > 1_000
    for s in sample:
        small = tuple(n for n in range(s.conductor + 1) if s.contains(n))
        assert s.small_elements == small, s.minimal_generators
        for top in range(3 * s.conductor + s.largest_generator + 1):
            assert _element_masks(s, top) == digit_element_masks(s, top), (
                s.minimal_generators, top)


def test_element_masks_at_the_conductor_of_a_large_semigroup():
    s = from_generators([1000, 1001])
    c = s.conductor
    for top in (c - 1, c, c + 1, 2 * c - 1):
        assert _element_masks(s, top) == digit_element_masks(s, top), top


class Unreadable:
    """A stand-in for ``small_elements`` that fails on any read."""

    def __getitem__(self, index):
        raise AssertionError("small_elements was read")

    def __len__(self):
        raise AssertionError("small_elements was read")


def test_divisor_masks_never_read_the_small_elements():
    # every mask is a shift of the masks construction keeps, so a semigroup
    # whose small_elements cannot be read still answers every divisor query
    for s in corpus_semigroups(max_multiplicity=13):
        blind = NumericalSemigroup(
            minimal_generators=s.minimal_generators,
            multiplicity=s.multiplicity,
            conductor=s.conductor,
            genus=s.genus,
            small_elements=Unreadable(),
            _least=s._least,
            _small_mask=s._small_mask,
            _small_rev=s._small_rev,
        )
        c, m = s.conductor, smallest_asymptotic_base(s)
        elements = [x for x in range(2 * c + 2 * s.largest_generator + 1) if s.contains(x)]
        for x in elements:
            assert list(divisors(blind, x)) == brute_divisors(s, x), (s.minimal_generators, x)
        lo, hi = max(c - 3, 0), m + s.largest_generator
        for x, mask in zip(range(lo, hi), _divisor_masks(blind, lo, hi)):
            expected = brute_divisors(s, x) if s.contains(x) else []
            assert list(DivisorSet(mask)) == expected, (s.minimal_generators, x)
        config = elements[:: max(len(elements) // 5, 1)]
        union = {p for x in config for p in brute_divisors(s, x)}
        assert nu(blind, config) == len(union)
        y = elements[-1]
        assert divisors_above(blind, y, c).elements == tuple(
            p for p in brute_divisors(s, y) if p >= c)


def test_element_guard_refuses_before_allocating():
    # the block [c, x - c] alone would take about 32 MB at the guard
    s = from_generators([5, 6, 7, 9])
    tracemalloc.start()
    try:
        for x in (semigroup._MAX_ELEMENT + 1, 10**10):
            with pytest.raises(InvalidInput, match="guard"):
                divisors(s, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_divisor_set_repr_lists_the_elements():
    # a 20,001-bit mask has over 6,000 decimal digits, past CPython's limit
    d = divisors(from_generators([9, 13, 15]), 20000)
    assert repr(d) == f"DivisorSet(elements={d.elements})"
    assert repr(d).startswith("DivisorSet(elements=(0, 9, 13, 15, 18, ")


def test_divisor_set_length_and_membership_match_elements():
    for s in corpus_semigroups(max_multiplicity=9):
        for x in range(0, 2 * s.conductor + s.largest_generator, 7):
            if not s.contains(x):
                continue
            d = divisors(s, x)
            assert len(d) == len(d.elements)
            for n in range(-3, x + 4):
                assert (n in d) == (n in d.elements), (s.minimal_generators, x, n)


def test_divisor_closure():
    # s in D(x) implies D(s) subset of D(x)
    s = from_generators([5, 7, 9])
    for x in (35, 40, 52):
        dx = set(divisors(s, x).elements)
        for d in dx:
            assert set(divisors(s, d).elements) <= dx


def test_divisors_of_set_singleton_matches():
    s = from_generators([9, 13, 15])
    assert divisors_of_set(s, [60]).elements == divisors(s, 60).elements


@pytest.mark.parametrize("gens", [g for g in CORPUS if g[0] <= 9])
def test_divisors_of_set_against_double_loop_union(gens):
    s = from_generators(gens)
    pool = [x for x in range(2 * s.conductor + 2 * s.largest_generator + 1) if s.contains(x)]
    below_c = [x for x in pool if x < s.conductor]
    rng = random.Random(len(pool))
    configs = [rng.sample(pool, min(size, len(pool))) for size in range(7) for _ in range(5)]
    configs += [[0, max(pool)], [0, *rng.sample(pool, min(3, len(pool)))]]  # sparse, from 0
    configs += [rng.sample(below_c, min(size, len(below_c))) for size in (1, 2, 3)]
    for config in configs:
        config = config + config[:1]  # a repeated element counts once
        expected = sorted({p for x in config for p in brute_divisors(s, x)})
        assert list(divisors_of_set(s, config)) == expected, (gens, config)
        assert nu(s, iter(config)) == len(expected), (gens, config)


def test_divisors_of_set_refuses_the_least_non_element():
    s = from_generators([9, 13, 15])
    for refuse in (divisors_of_set, nu):
        with pytest.raises(InvalidInput, match="^11 is not an element of the semigroup$"):
            refuse(s, [60, 47, 11])


def test_divisors_of_set_builds_once(monkeypatch):
    s = from_generators([9, 13, 15])
    m = smallest_asymptotic_base(s)
    config = range(m, m + 50)
    real_build = divisors_module._element_masks
    tops = []

    def counted(sgp, top):
        tops.append(top)
        return real_build(sgp, top)

    monkeypatch.setattr(divisors_module, "_element_masks", counted)
    union = divisors_of_set(s, config)
    monkeypatch.undo()
    assert tops == [m + 49]
    expected = 0
    for x in config:
        expected |= divisors(s, x).mask
    assert union.mask == expected


def test_divisors_of_set_memory_stays_flat():
    # 1,000 masks of up to 400,000 bits would hold about 50 MB at once
    s = from_generators([5, 6, 7, 9])
    config = range(0, 400_000, 400)
    tracemalloc.start()
    try:
        union = divisors_of_set(s, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert 0 in union and all(x in union for x in config)


def test_figure_amenable_divisor_union():
    s = from_generators(range(19, 24))
    d = divisors_of_set(s, [235, 199, 247, 229])
    assert tuple(x for x in d.elements if x >= 189) == FIG_AMENABLE


def test_divisors_of_set_consecutive_pair():
    # direct union against the consecutive-shadow counting formula
    s = from_generators([4, 5])
    m = smallest_asymptotic_base(s)
    a, b = 4, 1
    assert nu(s, [m, m + 1]) == (m + 1 - 2 * s.genus) + -(-(a + b - 1) // b)


def test_divisor_set_contains_zero_and_sources():
    s = from_generators([9, 13, 15])
    for source in ([60], [60, 95], [95, 96, 108]):
        d = divisors_of_set(s, source)
        assert 0 in d
        assert all(x in d for x in source)


def test_nu_values():
    s = from_generators([9, 13, 15])
    assert nu(s, [60]) == 13
    assert nu(s, [0]) == 1
    assert nu(s, [95]) == 95 + 1 - 2 * 24


def test_monotone_under_inclusion():
    s = from_generators([5, 6, 7])
    rng = random.Random(7)
    m = smallest_asymptotic_base(s)
    for _ in range(50):
        small = sorted(rng.sample(range(m, m + 25), 3))
        big = sorted(set(small) | {rng.randrange(m, m + 25)})
        assert set(divisors_of_set(s, small).elements) <= set(
            divisors_of_set(s, big).elements
        )


def test_counting_law_spot():
    # nu({x}) = x + 1 - 2g from 2c-1 on
    for s in corpus_semigroups(max_multiplicity=9):
        m = smallest_asymptotic_base(s)
        for x in (m, m + 1, m + s.largest_generator):
            assert nu(s, [x]) == x + 1 - 2 * s.genus


def test_divisors_above_golden():
    s = from_generators([9, 13, 15])
    assert divisors_above(s, 60, 48).elements == (51, 60)
    assert divisors_above(s, 60, 60).elements == (60,)
    with pytest.raises(InvalidInput, match="need conductor 48 <= x <= y, got x=30, y=60"):
        divisors_above(s, 60, 30)  # 30 < conductor
    with pytest.raises(InvalidInput, match="need conductor 48 <= x <= y, got x=61, y=60"):
        divisors_above(s, 60, 61)
    with pytest.raises(InvalidInput, match="47 is not an element of the semigroup"):
        divisors_above(s, 47, 47)


def test_divisors_above_element_guard_refuses_before_allocating():
    # the mask is y bits wide; unguarded, y = 10^9 would build 125 MB of mask
    s = from_generators([4, 5])
    tracemalloc.start()
    try:
        for y in (semigroup._MAX_ELEMENT + 1, 10**9):
            with pytest.raises(InvalidInput, match="guard"):
                divisors_above(s, y, y - 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_divisors_above_matches_filter():
    rng = random.Random(11)
    pool = corpus_semigroups(max_multiplicity=13)
    for _ in range(100):
        s = rng.choice(pool)
        c = s.conductor
        x = rng.randrange(c, c + 40)
        y = rng.randrange(x, x + 40)
        expected = tuple(d for d in divisors(s, y).elements if d >= x)
        assert divisors_above(s, y, x).elements == expected
