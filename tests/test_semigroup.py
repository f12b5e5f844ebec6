import random
from math import gcd

import pytest

import fengrao.semigroup as semigroup
from fengrao import DivisorSet, InvalidInput, from_generators
from fengrao.divisors import _element_masks

from corpus import CORPUS, corpus_semigroups, semigroups_by_genus


def reachable_oracle(gens, limit):
    """Dynamic-programming reachability: which n <= limit are sums of gens."""
    hit = [False] * (limit + 1)
    hit[0] = True
    for n in range(1, limit + 1):
        hit[n] = any(n >= g and hit[n - g] for g in gens)
    return hit


def test_paper_semigroup_9_13_15():
    s = from_generators([9, 13, 15])
    assert s.conductor == 48
    assert 47 in s.gaps
    assert all(s.contains(n) for n in range(48, 63))
    assert s.genus == 24
    assert s.multiplicity == 9


def test_paper_semigroup_19_to_23():
    s = from_generators([19, 20, 21, 22, 23])
    assert s.conductor == 95
    assert s.minimal_generators == (19, 20, 21, 22, 23)


def test_naturals():
    s = from_generators([1])
    assert s.conductor == 0
    assert s.genus == 0
    assert s.frobenius == -1
    assert s.gaps == ()
    assert s.small_elements == (0,)


def test_construction_errors():
    with pytest.raises(InvalidInput, match="gcd of generators is 2, not 1"):
        from_generators([4, 6])
    with pytest.raises(InvalidInput):
        from_generators([])
    with pytest.raises(InvalidInput):
        from_generators([0, 3])
    with pytest.raises(InvalidInput):
        from_generators([2, 2**31 + 1])


class Allocated(Exception):
    pass


def test_size_guards_refuse_before_allocating(monkeypatch):
    # every input here either is refused by a guard or reaches the first
    # allocation, which the patch turns into an exception instead
    def refuse(gens, mult):
        raise Allocated(gens)

    monkeypatch.setattr(semigroup, "_least_in_residues", refuse)
    refused = [
        ([2, 2**31 - 1], "conductor"),       # multiplicity 2, but c = 2^31 - 2
        ([1001, 1002], "multiplicity"),
        ([1000, 1002, 1003], "conductor"),   # gcd reaches 1 only at 1003
    ]
    for gens, guard in refused:
        with pytest.raises(InvalidInput, match=guard):
            from_generators(gens)
    admitted = [
        [1000, 1001],          # 999 * 1000, both guards at their edge
        [2, 3, 2**31 - 1],     # a redundant huge generator costs nothing
    ]
    for gens in admitted:
        with pytest.raises(Allocated):
            from_generators(gens)


def test_element_guard_refuses_before_allocating():
    # the generic search asks for elements up to m + n_e - 1 at the base
    # m = 2c - 1, and n_e <= F + a_1, so every admitted semigroup is served;
    # every mask build calls the guard before its digits exist
    bound = semigroup._MAX_ELEMENT
    assert 3 * semigroup._MAX_CONDUCTOR_BOUND + semigroup._MAX_MULTIPLICITY <= bound
    semigroup._check_element(bound)
    for x in (bound + 1, 10**10):
        with pytest.raises(InvalidInput, match="guard"):
            semigroup._check_element(x)


def test_generator_minimalization():
    s = from_generators([4, 5, 9, 13, 14])
    assert s.minimal_generators == (4, 5)


def test_minimalization_against_the_definition():
    # g is reducible iff g = s + t with s and t nonzero elements of S; the
    # seeded sample adds large generators, most of them redundant, and sums
    rng = random.Random(2014)
    checked = 0
    while checked < 200:
        a = rng.randint(2, 12)
        gens = [a, *rng.sample(range(a + 1, 4 * a), rng.randint(1, 4))]
        gens += [rng.randint(100, 1500) for _ in range(2)] + [gens[-1] + gens[-2]]
        if gcd(*gens) != 1:
            continue
        hit = reachable_oracle(gens, max(gens))
        expected = tuple(
            g for g in sorted(set(gens))
            if not any(hit[t] and hit[g - t] for t in range(1, g // 2 + 1))
        )
        assert from_generators(gens).minimal_generators == expected, gens
        checked += 1


def test_redundant_generators_skip_the_residue_search(monkeypatch):
    # a generator above the least one of its residue class mod a_1 is that
    # one plus a multiple of a_1, so at most a_1 generators reach Dijkstra
    real_least = semigroup._least_in_residues

    def checked(gens, mult):
        assert len(gens) <= mult, f"{len(gens)} generators for {mult} residues"
        return real_least(gens, mult)

    monkeypatch.setattr(semigroup, "_least_in_residues", checked)
    s = from_generators(range(100, 200_100))
    assert s.minimal_generators == tuple(range(100, 200))
    assert s == from_generators(s.minimal_generators)


def test_minimal_generators_are_minimal():
    # dropping any minimal generator changes the generated semigroup
    for s in corpus_semigroups():
        gens = s.minimal_generators
        if len(gens) == 1:
            continue
        for g in gens:
            rest = tuple(x for x in gens if x != g)
            if gcd(*rest) != 1:
                continue
            smaller = from_generators(rest)
            assert smaller.small_elements != s.small_elements or not smaller.contains(g)


def test_contains_examples():
    s = from_generators([9, 13, 15])
    assert not s.contains(47)
    assert s.contains(0)
    assert s.contains(28)  # 13 + 15
    assert not s.contains(-3)
    # no negative n is an element, whatever its residue class
    for t in corpus_semigroups():
        assert not any(t.contains(n) for n in range(-3 * t.multiplicity, 0))


@pytest.mark.parametrize("gens", CORPUS)
def test_membership_against_reachability_oracle(gens):
    s = from_generators(gens)
    limit = 2 * s.conductor + 2 * s.largest_generator
    hit = reachable_oracle(gens, limit)
    for n in range(limit + 1):
        assert s.contains(n) == hit[n], n


@pytest.mark.parametrize("gens", CORPUS)
def test_genus_and_gaps_consistent(gens):
    s = from_generators(gens)
    assert len(s.gaps) == s.genus
    assert all(g < s.conductor for g in s.gaps)
    assert s.conductor <= 2 * s.genus
    if s.conductor > 0:
        assert not s.contains(s.conductor - 1)


def test_rho_basics():
    assert from_generators([2, 3]).rho(1) == 0
    assert from_generators([4, 5]).rho(2) == 4
    with pytest.raises(InvalidInput):
        from_generators([4, 5]).rho(0)


@pytest.mark.parametrize("gens", CORPUS)
def test_rho_index_identity_past_conductor(gens):
    # x = rho_{x+1-g} for every x >= c
    s = from_generators(gens)
    for x in range(s.conductor, s.conductor + 3 * s.largest_generator + 1):
        assert s.rho(x + 1 - s.genus) == x


def elements_up_to(s, x):
    """S ∩ [0, x] from both masks of `_element_masks`, the one lister of S."""
    in_s, rev = _element_masks(s, x)
    ascending = list(DivisorSet(in_s))
    assert [x - d for d in reversed(list(DivisorSet(rev)))] == ascending
    return ascending


def test_elements_up_to():
    s = from_generators([9, 13, 15])
    assert elements_up_to(s, 17) == [0, 9, 13, 15]
    assert elements_up_to(s, 0) == [0]
    assert elements_up_to(from_generators([1]), 3) == [0, 1, 2, 3]


@pytest.mark.parametrize("gens", CORPUS)
def test_elements_up_to_matches_membership(gens):
    s = from_generators(gens)
    for x in (0, s.conductor - 1, s.conductor, s.conductor + 7):
        if x >= 0:
            assert elements_up_to(s, x) == [n for n in range(x + 1) if s.contains(n)]


def test_equality_is_canonical():
    assert from_generators([9, 13, 15, 22]) == from_generators([9, 13, 15])
    assert from_generators([4, 5]) != from_generators([4, 7])


def test_every_semigroup_up_to_genus_12():
    # the known counts of numerical semigroups of genus 0..12, each
    # semigroup once and of its level's genus
    levels = semigroups_by_genus(12)
    assert [len(level) for level in levels] == [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592,
    ]
    assert all(s.genus == g for g, level in enumerate(levels) for s in level)
    assert len({s for level in levels for s in level}) == 1413
