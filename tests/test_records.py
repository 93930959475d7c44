"""What every record type promises: fields cannot be assigned, a record
equals only a record of its own type with the same values, equal records
hash equal, pickle and deepcopy give the record back, positional and
keyword construction agree, and a sequence record rejects an empty or
non-int value list."""

import copy
import pickle

import pytest

from prodex import (
    FermatWitness,
    GhostSequence,
    PartitionTable,
    ProductExpansion,
    TruncatedSeries,
    WieferichScanReport,
)

# one record of each type, as its fields by keyword
FIELDS = [
    (TruncatedSeries, {"coeffs": (1, -1, 2)}),
    (ProductExpansion, {"exponents": (1, 1, 2)}),
    (GhostSequence, {"values": (1, 3, 4)}),
    (PartitionTable, {"values": (1, 1, 2)}),
    (FermatWitness, {"d": 1, "p": 3, "m_p": 1, "m_2p": 2, "n_p": -1, "n_2p": -1,
                     "quotient": 2}),
    (WieferichScanReport, {"lo": 2, "hi": 10000, "primes_tested": 1229,
                           "hits": (1093, 3511)}),
]
SEQUENCES = [kind for kind, _ in FIELDS[:4]]


def each_record(test):
    return pytest.mark.parametrize("kind, fields", FIELDS,
                                   ids=[kind.__name__ for kind, _ in FIELDS])(test)


@each_record
def test_positional_and_keyword_construction_agree(kind, fields):
    by_keyword = kind(**fields)
    by_position = kind(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert {name: getattr(by_keyword, name) for name in fields} == fields
    assert repr(by_keyword) == f"{kind.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


@each_record
def test_fields_cannot_be_assigned(kind, fields):
    record = kind(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert {name: getattr(record, name) for name in fields} == fields


@each_record
def test_equal_records_hash_equal(kind, fields):
    a, b = kind(**fields), kind(**fields)
    assert a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@each_record
def test_pickle_and_deepcopy_round_trip(kind, fields):
    record = kind(**fields)
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(back) is kind
        assert back == record


@each_record
def test_record_never_equals_a_plain_tuple(kind, fields):
    record = kind(**fields)
    plain = tuple(fields.values())
    assert not record == plain and record != plain
    assert not plain == record and plain != record


@pytest.mark.parametrize("a, b", [
    (GhostSequence((1, 2)), ProductExpansion((1, 2))),
    (TruncatedSeries((1, 2)), PartitionTable((1, 2))),
    (GhostSequence((1, 2)), PartitionTable((1, 2))),
], ids=lambda record: type(record).__name__)
def test_equality_respects_type(a, b):
    assert not a == b and a != b
    assert not b == a and b != a


@pytest.mark.parametrize("kind", SEQUENCES, ids=lambda kind: kind.__name__)
def test_sequence_records_reject_bad_values(kind):
    with pytest.raises(ValueError):
        kind(())
    for bad in ("2", 2.0, None):
        with pytest.raises(TypeError):
            kind((1, bad))
