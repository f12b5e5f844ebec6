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
    is_amenable,
    nu,
    smallest_asymptotic_base,
)


@st.composite
def small_semigroups(draw):
    """Multiplicity <= 7 with up to three further generators below 3a + 3."""
    a = draw(st.integers(1, 7))
    rest = draw(st.lists(st.integers(a + 1, 3 * a + 2), max_size=3, unique=True))
    assume(gcd(a, *rest) == 1)
    return from_generators([a, *rest])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(s=small_semigroups(), r=st.integers(1, 5))
def test_generic_equals_brute_force(s, r):
    m = smallest_asymptotic_base(s)
    assert feng_rao_distance(s, m, r).delta == brute_force_distance(s, m, r).delta


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(s=small_semigroups(), bounds=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_one_pass_distances_equal_brute_force(s, bounds):
    lo, hi = sorted(bounds)
    m = smallest_asymptotic_base(s)
    results = feng_rao_distances(s, m, range(lo, hi + 1))
    assert [res.r for res in results] == list(range(lo, hi + 1))
    for res in results:
        assert res.delta == brute_force_distance(s, m, res.r).delta
        assert is_amenable(s, res.witness) and len(res.witness) == res.r
        assert nu(s, res.witness.elements) == res.delta
