import random
import tracemalloc

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
from prodex.ghost import _solve_divisors

from conftest import expansions
from oracles import divisors, inverse_by_series_division


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


def test_unghost_frees_the_kernel_before_building_its_record():
    # the kernel's last block holds about N/3 partial sums; kept alive
    # through the tuple copy it lifted this peak from 2.2 to 2.8 MB, and
    # `unghost` at 10^5 in the benchmark by about 1 MB of peak RSS
    rng = random.Random(5)
    m = ProductExpansion(tuple(rng.choice((-1, 0, 1)) for _ in range(10**5)))
    ghost = ghost_from_exponents(m)
    tracemalloc.start()
    try:
        back = exponents_from_ghost(ghost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == m
    assert peak < 2.4 * 2**20


# --- the solver on a divisor-closed set --------------------------------------


@st.composite
def ghosts_and_targets(draw):
    """A realizable ghost of order 1..150 and a target N <= order."""
    m = draw(expansions(max_order=150))
    return ghost_from_exponents(m), draw(st.integers(1, m.order))


def at_divisors(values, n):
    return {k: values[k - 1] for k in divisors(n)}


def outcome(solve, *args):
    try:
        return solve(*args)
    except NotRealizableError as exc:
        return ("not realizable", exc.index, exc.remainder)


@given(ghosts_and_targets())
def test_solve_on_divisors_matches_full_unghost(case):
    ghost, n = case
    full = exponents_from_ghost(ghost).exponents
    solved = _solve_divisors(at_divisors(ghost.values, n))
    assert solved == at_divisors(full, n)


@given(ghosts_and_targets(), st.data())
def test_solve_on_divisors_fails_only_where_it_reads(case, data):
    # moving L_k by 1..k-1 breaks the exact division at k and nowhere before;
    # half the draws take k among N's divisors, so both branches get cases
    ghost, n = case
    assume(ghost.order >= 2)
    anywhere = st.integers(2, ghost.order)
    among_divisors = st.sampled_from(divisors(n)[1:]) if n > 1 else anywhere
    k = data.draw(st.one_of(among_divisors, anywhere), label="k")
    shift = data.draw(st.integers(1, k - 1), label="shift")
    values = list(ghost.values)
    values[k - 1] += shift
    partial = outcome(_solve_divisors, at_divisors(values, n))
    full = outcome(exponents_from_ghost, GhostSequence(tuple(values)))
    assert full == ("not realizable", k, shift)
    if n % k == 0:
        assert partial == full
    else:
        truth = exponents_from_ghost(ghost).exponents
        assert partial == at_divisors(truth, n)


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
