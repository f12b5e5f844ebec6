"""The contract of the six records: repr, ==, hash, immutability, pickle and copy.

Every string and value pinned here is what the records gave when they
were frozen dataclasses, so a change of how they are built must keep it.
"""

import copy
import pickle

import pytest

from fengrao import (
    Configuration,
    InvalidInput,
    NumericalSemigroup,
    divisors,
    divisors_above,
    divisors_of_set,
    enumerate_amenable,
    feng_rao_number,
    from_generators,
    h_decompose,
    wagon_pivot,
)
from fengrao.distances import FengRaoResult
from fengrao.interval import HDecomposition, WagonPivot, interval_extra_divisors

S345 = from_generators([3, 4, 5])

# record, the public fields in constructor order, and its repr
RECORDS = [
    (
        S345,
        ("minimal_generators", "multiplicity", "conductor", "genus", "small_elements"),
        "NumericalSemigroup(minimal_generators=(3, 4, 5), multiplicity=3, "
        "conductor=3, genus=2, small_elements=(0, 3))",
    ),
    (divisors(S345, 8), ("mask",), "DivisorSet(elements=(0, 3, 4, 5, 8))"),
    (
        Configuration(base=5, elements=(5, 6, 7)),
        ("base", "elements"),
        "Configuration(base=5, elements=(5, 6, 7))",
    ),
    (
        feng_rao_number(S345, 3),
        ("m", "r", "delta", "e_number", "witness"),
        "FengRaoResult(m=5, r=3, delta=6, e_number=4, "
        "witness=Configuration(base=5, elements=(5, 6, 7)))",
    ),
    (h_decompose(7, 2), ("h", "k", "j"), "HDecomposition(h=2, k=1, j=1)"),
    (
        wagon_pivot(5, 2, Configuration(base=23, elements=(23, 26, 31))),
        ("wagon", "pivot"),
        "WagonPivot(wagon=(26, 31), pivot=31)",
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]
# the other builders of a DivisorSet, each under the name of its function
for name, record, text in [
    ("divisors_of_set", divisors_of_set(S345, [6, 8]), "DivisorSet(elements=(0, 3, 4, 5, 6, 8))"),
    ("divisors_above", divisors_above(S345, 8, 3), "DivisorSet(elements=(3, 4, 5, 8))"),
    (
        "interval_extra_divisors",
        interval_extra_divisors(3, 1, 11, 1, 2),
        "DivisorSet(elements=(6, 9, 10, 12, 13, 16))",
    ),
]:
    RECORDS.append((record, ("mask",), text))
    IDS.append(name)


def semigroup_fields(s, **changes):
    """Every constructor argument of s, as keywords, with ``changes`` applied."""
    fields = dict(
        minimal_generators=s.minimal_generators,
        multiplicity=s.multiplicity,
        conductor=s.conductor,
        genus=s.genus,
        small_elements=s.small_elements,
        _least=s._least,
        _small_mask=s._small_mask,
        _small_rev=s._small_rev,
    )
    fields.update(changes)
    return fields


@pytest.mark.parametrize(("record", "fields", "text"), RECORDS, ids=IDS)
def test_repr_is_pinned(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize(("record", "fields", "text"), RECORDS, ids=IDS)
def test_equal_records_hash_alike(record, fields, text):
    values = tuple(getattr(record, name) for name in fields)
    if isinstance(record, NumericalSemigroup):
        twin = NumericalSemigroup(**semigroup_fields(record))
    else:
        twin = type(record)(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    # a record equals no tuple of its values, and no record of another class
    assert record != values
    for other, _, _ in RECORDS:
        if type(other) is not type(record):
            assert record != other


def test_record_hash_is_the_hash_of_its_compared_fields():
    assert hash(h_decompose(7, 2)) == hash((2, 1, 1))
    assert hash(divisors(S345, 8)) == hash((0b100111001,))
    c = Configuration(base=5, elements=(5, 6, 7))
    assert hash(c) == hash((5, (5, 6, 7)))


def test_semigroup_equality_reads_the_residue_table_and_not_the_masks():
    same = NumericalSemigroup(**semigroup_fields(S345, _small_mask=0, _small_rev=0))
    assert same == S345 and hash(same) == hash(S345)
    assert repr(same) == repr(S345)
    other = NumericalSemigroup(**semigroup_fields(S345, _least=(0, 7, 5)))
    assert other != S345
    assert repr(other) == repr(S345)


@pytest.mark.parametrize(("record", "fields", "text"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, text):
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


def test_private_semigroup_fields_cannot_be_assigned_or_deleted():
    for name in ("_least", "_small_mask", "_small_rev"):
        value = getattr(S345, name)
        with pytest.raises(AttributeError):
            setattr(S345, name, value)
        with pytest.raises(AttributeError):
            delattr(S345, name)
        assert getattr(S345, name) is value


@pytest.mark.parametrize(("record", "fields", "text"), RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, fields, text):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text


def test_semigroup_copy_keeps_the_private_fields():
    s = from_generators([9, 13, 15])
    for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        for name in ("_least", "_small_mask", "_small_rev"):
            assert getattr(twin, name) == getattr(s, name)
        assert divisors(twin, 60) == divisors(s, 60)


def test_configuration_validates_keyword_and_positional_construction():
    with pytest.raises(InvalidInput, match="strictly increasing"):
        Configuration(base=5, elements=(5, 7, 6))
    with pytest.raises(InvalidInput, match="strictly increasing"):
        Configuration(5, (5, 5))
    with pytest.raises(InvalidInput, match="differs from base"):
        Configuration(base=5, elements=(6, 7))
    assert Configuration(base=5, elements=()) == Configuration(5, ())


def test_configuration_keeps_its_elements_as_a_tuple():
    built = Configuration(base=5, elements=(5, 6, 7))
    for elements in ([5, 6, 7], iter((5, 6, 7)), range(5, 8)):
        config = Configuration(base=5, elements=elements)
        assert type(config.elements) is tuple and config == built
        assert hash(config) == hash(built)
        assert repr(config) == "Configuration(base=5, elements=(5, 6, 7))"
    # the record owns its copy: changing the list it came from changes nothing
    source = [5, 6, 7]
    config = Configuration(5, source)
    source[0] = 4
    assert config.elements == (5, 6, 7)
    # a tuple is kept as it is
    assert Configuration(5, built.elements).elements is built.elements
    with pytest.raises(InvalidInput, match="strictly increasing"):
        Configuration(5, iter([5, 7, 6]))
    with pytest.raises(InvalidInput, match="differs from base"):
        Configuration(5, [6, 7])


def test_trusted_configuration_equals_the_validated_one():
    trusted = Configuration._trusted(5, (5, 6, 7))
    built = Configuration(base=5, elements=(5, 6, 7))
    assert trusted == built and hash(trusted) == hash(built)
    assert repr(trusted) == repr(built)
    assert type(trusted) is Configuration
    assert copy.deepcopy(trusted) == built


@pytest.mark.skipif(not __debug__, reason="the length check is an assert")
def test_result_refuses_a_witness_of_the_wrong_size():
    witness = Configuration(base=5, elements=(5, 6))
    with pytest.raises(AssertionError):
        FengRaoResult(m=5, r=3, delta=6, e_number=4, witness=witness)
    result = FengRaoResult(5, 2, 4, 2, witness)
    assert result == FengRaoResult(m=5, r=2, delta=4, e_number=2, witness=witness)


def test_match_args_are_the_constructor_arguments():
    assert NumericalSemigroup.__match_args__ == tuple(semigroup_fields(S345))
    for record, fields, _ in RECORDS[1:]:
        assert type(record).__match_args__ == fields
    match h_decompose(7, 2):
        case HDecomposition(h, k, j):
            assert (h, k, j) == (2, 1, 1)


def test_interval_records_take_keywords():
    assert HDecomposition(h=2, k=1, j=1) == h_decompose(7, 2)
    wp = WagonPivot(wagon=(26, 31), pivot=31)
    assert wp == wagon_pivot(5, 2, Configuration(base=23, elements=(23, 26, 31)))


def test_configuration_iterates_its_elements():
    s = from_generators([4, 5])
    configs = [Configuration(base=5, elements=()), *enumerate_amenable(s, 23, 3)]
    for config in configs:
        assert list(config) == list(config.elements)
        assert len(config) == len(config.elements)
