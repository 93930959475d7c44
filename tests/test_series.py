import copy
import pickle

import pytest
from hypothesis import given

from prodex import (
    GhostSequence,
    NonUnitConstantError,
    OrderMismatchError,
    PartitionTable,
    ProductExpansion,
    TruncatedSeries,
    derivative,
    make_series,
    mul,
    neg_x_log_derivative,
    reciprocal,
    truncate,
)

from conftest import series_triples, unit_series, unit_series_pairs


def one(order):
    return make_series([1] + [0] * order)


# --- construction -----------------------------------------------------------


def test_make_series_constant():
    f = make_series([1])
    assert f.order == 0
    assert f.coeffs == (1,)


def test_make_series_stores_exactly():
    f = make_series([1, -1, -1])
    assert f.order == 2
    assert f.coeffs == (1, -1, -1)

    g = make_series([1, -1, -2, 0, 0])
    assert g.order == 4
    assert g.coeffs == (1, -1, -2, 0, 0)


def test_make_series_rejects_empty():
    with pytest.raises(ValueError):
        make_series([])


def test_make_series_rejects_floats():
    with pytest.raises(TypeError):
        make_series([1, 0.5])


def test_truncate():
    f = make_series([1, 2, 3, 4])
    assert truncate(f, 1).coeffs == (1, 2)
    assert truncate(f, 3) == f
    with pytest.raises(OrderMismatchError):
        truncate(f, 5)


# --- multiplication ---------------------------------------------------------


def test_mul_difference_of_squares():
    a = make_series([1, -1, 0])
    b = make_series([1, 1, 0])
    assert mul(a, b).coeffs == (1, 0, -1)


def test_mul_hand_convolution():
    a = make_series([1, 1, 0, 0])
    b = make_series([1, 0, 2, 0])
    assert mul(a, b).coeffs == (1, 1, 2, 2)


def test_mul_identity():
    f = make_series([1, -1, -2, 0, 7])
    assert mul(f, one(4)) == f


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatchError):
        mul(make_series([1, 2]), make_series([1, 2, 3]))


# --- reciprocal -------------------------------------------------------------


def test_reciprocal_geometric():
    f = make_series([1, -1, 0, 0, 0, 0, 0])
    assert reciprocal(f).coeffs == (1, 1, 1, 1, 1, 1, 1)


def test_reciprocal_fibonacci():
    f = make_series([1, -1, -1, 0, 0, 0, 0])
    assert reciprocal(f).coeffs == (1, 1, 2, 3, 5, 8, 13)


def test_reciprocal_involution():
    f = make_series([1, -1, -2, 0, 0, 0, 0, 0, 0])
    assert reciprocal(reciprocal(f)) == f


def test_reciprocal_minus_one_constant():
    f = make_series([-1, 1, 3, 0, 2])
    assert mul(f, reciprocal(f)) == one(4)


def test_reciprocal_rejects_non_unit():
    with pytest.raises(NonUnitConstantError):
        reciprocal(make_series([2, 1, 1]))


# --- derivative -------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([1, -1, -1], (-1, -2, 0)),
        ([5], (0,)),
        ([7, 0, 0, 0], (0, 0, 0, 0)),
        ([1, 2, 3, 4], (2, 6, 12, 0)),
    ],
)
def test_derivative(coeffs, expected):
    assert derivative(make_series(coeffs)).coeffs == expected


# --- logarithmic derivative -------------------------------------------------


def test_ghost_of_one_minus_x():
    f = make_series([1, -1, 0, 0, 0, 0, 0])
    assert neg_x_log_derivative(f).values == (1, 1, 1, 1, 1, 1)


def test_ghost_lucas_numbers():
    f = make_series([1, -1, -1, 0, 0, 0, 0])
    assert neg_x_log_derivative(f).values == (1, 3, 4, 7, 11, 18)


def test_ghost_of_rational_family_d1():
    # (1-2x)/(1-x) = 1 - x - x^2 - x^3 - ...; its ghost is 2^N - 1
    f = make_series([1] + [-1] * 8)
    assert neg_x_log_derivative(f).values == tuple(2**n - 1 for n in range(1, 9))


def test_ghost_rejects_non_unit():
    with pytest.raises(NonUnitConstantError):
        neg_x_log_derivative(make_series([-1, 1, 1]))
    with pytest.raises(ValueError):
        neg_x_log_derivative(make_series([1]))


# --- serialization ----------------------------------------------------------


def test_series_json_round_trip():
    f = make_series([1, -1, 10**30])
    data = f.to_json_dict()
    assert data == {"order": 2, "coeffs": ["1", "-1", str(10**30)]}
    assert TruncatedSeries.from_json_dict(data) == f


def test_series_json_rejects_wrong_order():
    with pytest.raises(ValueError):
        TruncatedSeries.from_json_dict({"order": 5, "coeffs": ["1", "2"]})


def test_ghost_json_round_trip():
    g = GhostSequence((1, -(10**25), 3))
    assert GhostSequence.from_json_dict(g.to_json_dict()) == g


# --- algebraic laws ---------------------------------------------------------


@given(unit_series())
def test_reciprocal_round_trip(f):
    assert mul(f, reciprocal(f)) == one(f.order)


@given(unit_series_pairs())
def test_log_derivative_additive(pair):
    g, h = pair
    combined = neg_x_log_derivative(mul(g, h)).values
    split = tuple(
        a + b
        for a, b in zip(neg_x_log_derivative(g).values, neg_x_log_derivative(h).values)
    )
    assert combined == split


@given(unit_series_pairs(max_order=32))
def test_mul_commutative(pair):
    a, b = pair
    assert mul(a, b) == mul(b, a)


@given(series_triples())
def test_mul_associative(triple):
    a, b, c = triple
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@pytest.mark.parametrize("kind", [TruncatedSeries, ProductExpansion, GhostSequence,
                                  PartitionTable], ids=lambda kind: kind.__name__)
def test_every_construction_route_validates(kind):
    # tuple.__new__ skips the record's own __new__, so it can build the
    # empty record that every other route must refuse
    empty = tuple.__new__(kind, ((),))
    valid = kind((1, 2))
    routes = [
        lambda: kind(()),
        lambda: kind(**{kind.FIELD: ()}),
        lambda: kind._make([()]),
        lambda: valid._replace(**{kind.FIELD: ()}),
        lambda: kind.from_json_dict({kind.FIELD: []}),
        lambda: pickle.loads(pickle.dumps(empty)),
        lambda: copy.deepcopy(empty),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="needs at least one value"):
            route()
