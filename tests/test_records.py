"""What every record type promises: fields cannot be assigned, a record
equals only a record of its own type with the same values, equal records
hash equal, pickle and deepcopy give the record back, positional and
keyword construction agree, and a sequence record stores any iterable of
exact ints as a tuple and rejects an empty or non-int value list."""

import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("kind", SEQUENCES, ids=lambda kind: kind.__name__)
def test_sequence_records_store_any_iterable_as_a_tuple(kind):
    built = [kind([4, 5, 6]), kind((4, 5, 6)), kind(range(4, 7)),
             kind(v for v in (4, 5, 6))]
    for record in built:
        assert type(record[0]) is tuple
        assert record == built[0]
        assert hash(record) == hash(built[0])
    assert len(set(built)) == 1


@pytest.mark.parametrize("kind", SEQUENCES, ids=lambda kind: kind.__name__)
def test_sequence_record_ignores_later_changes_to_its_source(kind):
    source = [1, 2, 3]
    record = kind(source)
    source.append(True)
    source[0] = 9
    assert record[0] == (1, 2, 3)
    assert record.order == kind((0, 0, 0)).order


@pytest.mark.parametrize("bad", [True, False, 2.0, 0.5, "2"], ids=repr)
@pytest.mark.parametrize("kind", SEQUENCES, ids=lambda kind: kind.__name__)
def test_sequence_records_take_only_exact_ints_however_built(kind, bad):
    values = (1, bad)
    good = kind((1, 2))
    for build in (lambda: kind(values), lambda: kind(**{kind.FIELD: values}),
                  lambda: kind._make([values]),
                  lambda: good._replace(**{kind.FIELD: values})):
        # e.g. "coeffs must be ints, got float: 0.5"
        message = f"{kind.FIELD} must be ints, got {type(bad).__name__}: {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()


@given(st.sampled_from(SEQUENCES),
       st.lists(st.integers() | st.booleans(), min_size=1, max_size=20))
def test_every_record_built_round_trips_through_json(kind, values):
    # a value the JSON reader would refuse must be refused on the way in
    try:
        record = kind(values)
    except TypeError:
        assert any(type(v) is bool for v in values)
        return
    assert kind.from_json_dict(record.to_json_dict()) == record
