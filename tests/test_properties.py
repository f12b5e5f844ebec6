"""Seeded property tests: random small semigroups, fixed example sequence."""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fengrao import (  # noqa: E402
    brute_force_distance,
    feng_rao_distance,
    feng_rao_distances,
    from_generators,
    interval_semigroup,
    is_amenable,
    nu,
    rho_equality_predicted,
    smallest_asymptotic_base,
)


@st.composite
def small_semigroups(draw, max_multiplicity=7):
    """Multiplicity <= max_multiplicity with up to three further generators
    below 3a + 3."""
    a = draw(st.integers(1, max_multiplicity))
    rest = draw(st.lists(st.integers(a + 1, 3 * a + 2), max_size=3, unique=True))
    assume(gcd(a, *rest) == 1)
    return from_generators([a, *rest])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(s=small_semigroups(), r=st.integers(1, 8))
def test_generic_equals_brute_force(s, r):
    m = smallest_asymptotic_base(s)
    assert feng_rao_distance(s, m, r).delta == brute_force_distance(s, m, r).delta


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(s=small_semigroups(), bounds=st.tuples(st.integers(1, 8), st.integers(1, 8)))
def test_one_pass_distances_equal_brute_force(s, bounds):
    lo, hi = sorted(bounds)
    m = smallest_asymptotic_base(s)
    results = feng_rao_distances(s, m, range(lo, hi + 1))
    assert [res.r for res in results] == list(range(lo, hi + 1))
    for res in results:
        assert res.delta == brute_force_distance(s, m, res.r).delta
        assert is_amenable(s, res.witness) and len(res.witness) == res.r
        assert nu(s, res.witness.elements) == res.delta


def feng_rao_numbers(s, rmax):
    """E(S, 1), ..., E(S, rmax) from one generic search at the base 2c - 1."""
    results = feng_rao_distances(s, smallest_asymptotic_base(s), range(1, rmax + 1))
    return [res.e_number for res in results]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(s=small_semigroups(max_multiplicity=12))
def test_feng_rao_number_at_most_rho(s):
    # the Goppa-like bound of Farran and Munuera (2003): E(S, r) <= rho_r,
    # with equality for r >= c + 1; past c = 40 single cases take minutes
    assume(s.conductor <= 40)
    for r, e in enumerate(feng_rao_numbers(s, s.conductor + 2), start=1):
        assert e <= s.rho(r), r
        if r >= s.conductor + 1:
            assert e == s.rho(r), r


def test_two_generator_feng_rao_number_is_rho():
    # Delgado, Farran, Garcia-Sanchez and Llena (IEEE Trans. IT, 2014), on
    # every <a, b> with a <= 16 and b <= 2a + 3
    for a in range(2, 17):
        for b in range(a + 1, 2 * a + 4):
            if gcd(a, b) == 1:
                s = from_generators([a, b])
                rhos = [s.rho(r) for r in range(1, 17)]
                assert feng_rao_numbers(s, 16) == rhos, (a, b)


def test_rho_equality_prediction_against_the_generic_search():
    # every b < a <= 16 and r <= 16, E from the search, not the closed form
    for a in range(2, 17):
        for b in range(1, a):
            s = interval_semigroup(a, b)
            for r, e in enumerate(feng_rao_numbers(s, 16), start=1):
                assert rho_equality_predicted(a, b, r) == (e == s.rho(r)), (a, b, r)
