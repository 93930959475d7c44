import tracemalloc

import pytest
from hypothesis import given

from prodex import (
    GhostSequence,
    NotRealizableError,
    OrderMismatchError,
    ProductExpansion,
    exponents_from_ghost,
    ghost_from_exponents,
    inverse_sequence,
    neg_x_log_derivative,
    product_to_series,
    verify_reciprocal_identity,
)

from conftest import expansions
from oracles import inverse_by_series_division


def ones(order):
    return ProductExpansion((1,) * order)


# --- ghost_from_exponents ---------------------------------------------------


def test_ghost_of_ones_is_sigma():
    assert ghost_from_exponents(ones(6)).values == (1, 3, 4, 7, 6, 12)


def test_ghost_of_family_exponents():
    m = ProductExpansion((1, 1, 2, 3, 6, 8))
    assert ghost_from_exponents(m).values == (1, 3, 7, 15, 31, 63)


def test_ghost_of_zeros():
    m = ProductExpansion((0, 0, 0, 0))
    assert ghost_from_exponents(m).values == (0, 0, 0, 0)


# --- exponents_from_ghost ---------------------------------------------------


def test_unghost_sigma_gives_ones():
    g = GhostSequence((1, 3, 4, 7, 6, 12))
    assert exponents_from_ghost(g) == ones(6)


def test_unghost_mersenne_ghost():
    g = GhostSequence(tuple(2**n - 1 for n in range(1, 9)))
    assert exponents_from_ghost(g).exponents == (1, 1, 2, 3, 6, 8, 18, 27)


def test_unghost_accepts_realizable_short_ghost():
    # L = [1, 1]: at N=2 the remainder is 1 - 1 = 0, so m = [1, 0]
    assert exponents_from_ghost(GhostSequence((1, 1))).exponents == (1, 0)


def test_unghost_parity_obstruction():
    with pytest.raises(NotRealizableError) as info:
        exponents_from_ghost(GhostSequence((1, 2)))
    assert info.value.index == 2
    assert info.value.remainder == 1
    assert "N=2" in str(info.value)


def test_unghost_early_failure_stays_small():
    # m_1 = 10^6 and the ghost fails at N=2; pushing 10^(6s) to every s up
    # to the order before getting there would hold about 31 MB of powers
    ghost = GhostSequence((10**6, 1) + (0,) * 4998)
    tracemalloc.start()
    try:
        with pytest.raises(NotRealizableError) as info:
            exponents_from_ghost(ghost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.index, info.value.remainder) == (2, 1)
    assert peak < 2**20


# --- the reciprocal-pair identity -------------------------------------------


def test_verify_zeros_pair():
    z = ProductExpansion((0, 0, 0))
    assert verify_reciprocal_identity(z, z) == [True, True, True]


def test_verify_ones_with_inverse():
    m = ones(64)
    assert all(verify_reciprocal_identity(m, inverse_sequence(m)))


def test_verify_ones_with_itself_fails_at_one():
    m = ones(4)
    assert verify_reciprocal_identity(m, m)[0] is False


def test_verify_needs_equal_orders():
    with pytest.raises(OrderMismatchError):
        verify_reciprocal_identity(ones(3), ones(4))


# --- cross-route consistency ------------------------------------------------


@given(expansions())
def test_divisor_sums_match_series_route(m):
    assert ghost_from_exponents(m) == neg_x_log_derivative(product_to_series(m))


@given(expansions())
def test_ghost_bijection(m):
    assert exponents_from_ghost(ghost_from_exponents(m)) == m


@given(expansions(max_order=48))
def test_reciprocal_identity_for_inverse_pairs(m):
    assert all(verify_reciprocal_identity(m, inverse_sequence(m)))


def test_dual_route_to_inverse_of_ones():
    # solving the divisor-sum relation on the negated ghost reproduces the
    # inverse sequence computed through series division; inverse_sequence
    # itself solves on the negated ghost, so the oracle is the second route
    m = ones(32)
    via_recurrence = exponents_from_ghost(ghost_from_exponents(m).negated())
    assert via_recurrence == inverse_sequence(m) == inverse_by_series_division(m)
