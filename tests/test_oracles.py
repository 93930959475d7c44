"""Each fast route against the slow, independent route it replaced."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import partition as sympy_partition

import prodex
from prodex import (
    GhostSequence,
    NotRealizableError,
    ProductExpansion,
    congruences,
    expand_to_product,
    exponents_from_ghost,
    fermat_witness,
    ghost_from_exponents,
    inverse_sequence,
    make_series,
    neg_x_log_derivative,
    partition_numbers,
    primes_in_range,
    rational_family_series,
    reciprocal,
    series,
)
from prodex.cli import main

from conftest import expansions, unit_series
from oracles import (
    divisors,
    expand_by_partial_products,
    exponents_by_trial_division,
    family_by_closed_form,
    family_by_dense_expansion,
    first_dwork_failure,
    ghost_by_trial_division,
    inverse_by_series_division,
    log_derivative_by_division,
    partitions_by_pentagonal_recurrence,
    partitions_by_sparse_division,
    reciprocal_by_recurrence,
    witness_by_dense_expansion,
)

wide_ints = st.integers(min_value=-(10**6), max_value=10**6)


def wide_unit_series(max_order=40):
    """Unit series with coefficients up to 10^6 in absolute value."""
    return st.lists(wide_ints, min_size=1, max_size=max_order).map(
        lambda tail: make_series([1] + tail)
    )


@st.composite
def sparse_unit_series(draw, max_order=300):
    """Unit series of high order with at most four nonzero coefficients."""
    order = draw(st.integers(min_value=1, max_value=max_order))
    terms = draw(st.dictionaries(st.integers(1, order), wide_ints, max_size=4))
    return make_series([1] + [terms.get(k, 0) for k in range(1, order + 1)])


def wide_expansions(max_order=40):
    return st.lists(wide_ints, min_size=1, max_size=max_order).map(
        lambda exps: ProductExpansion(tuple(exps))
    )


@st.composite
def perturbed_ghosts(draw, max_order=64):
    """A realizable ghost with one entry moved, so most are not realizable
    and the first failure can lie at any index."""
    values = list(ghost_from_exponents(draw(expansions(max_order))).values)
    k = draw(st.integers(min_value=0, max_value=len(values) - 1))
    values[k] += draw(wide_ints)
    return GhostSequence(tuple(values))


any_series = st.one_of(unit_series(), wide_unit_series(), sparse_unit_series())
any_expansions = st.one_of(expansions(), wide_expansions())
any_ghosts = st.one_of(
    perturbed_ghosts(),
    st.lists(wide_ints, min_size=1, max_size=64).map(lambda v: GhostSequence(tuple(v))),
)


def unghost_outcome(unghost, ghost):
    """The exponents, or the index and remainder of the failure."""
    try:
        return unghost(ghost)
    except NotRealizableError as exc:
        return ("not realizable", exc.index, exc.remainder)


def test_divisor_enumeration():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(97) == [1, 97]


@given(any_series)
def test_expansion_matches_partial_products(f):
    assert expand_to_product(f) == expand_by_partial_products(f)


@given(any_series)
def test_log_derivative_matches_series_division(f):
    assert neg_x_log_derivative(f) == log_derivative_by_division(f)


@given(any_series, st.sampled_from((1, -1)))
def test_reciprocal_matches_recurrence(f, c0):
    f = make_series((c0,) + f.coeffs[1:])
    assert reciprocal(f) == reciprocal_by_recurrence(f)


@given(any_expansions)
def test_ghost_matches_trial_division(m):
    assert ghost_from_exponents(m) == ghost_by_trial_division(m)


@given(any_expansions)
def test_unghost_matches_trial_division(m):
    ghost = ghost_by_trial_division(m)
    assert exponents_from_ghost(ghost) == exponents_by_trial_division(ghost) == m


@given(any_ghosts)
def test_unrealizable_ghost_fails_where_oracle_fails(ghost):
    assert unghost_outcome(exponents_from_ghost, ghost) == unghost_outcome(
        exponents_by_trial_division, ghost
    )


@given(st.one_of(
    perturbed_ghosts(max_order=80),
    st.lists(wide_ints, min_size=1, max_size=80).map(lambda v: GhostSequence(tuple(v))),
))
def test_unghost_fails_exactly_where_dwork_congruences_fail(ghost):
    # an oracle that shares no step with the solver: congruences between
    # ghost values, checked prime by prime, instead of exact divisions
    outcome = unghost_outcome(exponents_from_ghost, ghost)
    failure = first_dwork_failure(ghost.values)
    if failure is None:
        assert isinstance(outcome, ProductExpansion)
    else:
        assert outcome[:2] == ("not realizable", failure)


def test_dwork_congruences_on_known_ghosts():
    assert first_dwork_failure((1, 3, 4, 7, 6, 12)) is None  # sigma(N)
    assert first_dwork_failure((1, 2)) == 2  # 2 does not divide 2 - 1
    # 9 must divide L_9 - L_3: sigma gives 13 - 4, and 14 - 4 breaks it
    assert first_dwork_failure((1, 3, 4, 7, 6, 12, 8, 15, 13)) is None
    assert first_dwork_failure((1, 3, 4, 7, 6, 12, 8, 15, 14)) == 9


@given(any_expansions)
def test_inverse_matches_series_division(m):
    assert inverse_sequence(m) == inverse_by_series_division(m)


def test_family_expansion_matches_partial_products():
    f = rational_family_series(3, 200)
    assert expand_to_product(f) == expand_by_partial_products(f)


@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=1, max_value=300))
def test_family_series_matches_closed_form(d, order):
    assert rational_family_series(d, order) == family_by_closed_form(d, order)


@given(st.integers(min_value=-6, max_value=6),
       st.integers(min_value=1, max_value=150))
def test_family_matches_dense_expansion(d, order):
    assert congruences._family_exponents(d, order) == family_by_dense_expansion(d, order)


@given(st.sampled_from(primes_in_range(3, 79)),
       st.integers(min_value=1, max_value=6))
def test_witness_matches_dense_expansion(p, d):
    m, n = witness_by_dense_expansion(d, p)
    w = fermat_witness(d, p)
    assert (w.m_p, w.m_2p) == (m.exponents[p - 1], m.exponents[2 * p - 1])
    assert (w.n_p, w.n_2p) == (n.exponents[p - 1], n.exponents[2 * p - 1])


def test_fast_routes_use_no_series_division(monkeypatch):
    # the product layer must not fall back on mul, derivative or reciprocal;
    # every binding of them in the package is replaced by one that raises
    f = make_series([1, -3, 7, 0, -1, 0, 0, 12] + [0] * 56)
    m = ProductExpansion(tuple((k * 7) % 11 - 5 for k in range(64)))
    expected = (
        expand_by_partial_products(f),
        log_derivative_by_division(f),
        inverse_by_series_division(m),
    )
    slow = {series.mul, series.derivative, series.reciprocal}

    def forbidden(*args, **kwargs):
        raise AssertionError("series division on a fast route")

    for module in (prodex, series, prodex.products, prodex.ghost):
        for name, value in list(vars(module).items()):
            if callable(value) and value in slow:
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError):
        series.mul(f, f)
    assert (
        expand_to_product(f),
        neg_x_log_derivative(f),
        inverse_sequence(m),
    ) == expected


def test_partitions_match_pentagonal_recurrence_at_every_order():
    # which pentagonal terms the division sees depends on the order, so
    # every order gets a table of its own
    expected = partitions_by_pentagonal_recurrence(500)
    for order in range(501):
        assert partition_numbers(order).values == expected[: order + 1], order


def test_partitions_match_both_oracles_at_every_order_to_3000():
    # the table fills in blocks of isqrt(order) rows, so each order has its
    # own block edges and its own split of offsets between whole-block
    # slices and the row-by-row sum
    division = partitions_by_sparse_division(3000)
    assert partitions_by_pentagonal_recurrence(3000) == division
    for order in range(3001):
        assert partition_numbers(order).values == division[: order + 1], order


@pytest.mark.parametrize("n", [1000, 5000, 16000])
def test_partitions_match_sympy(n):
    assert partition_numbers(n).values[n] == int(sympy_partition(n))


def test_partition_route_calls_no_public_series_products_or_ghost_function(
        monkeypatch, capsys):
    # partition_numbers referees `partitions --via-product`, so it must not
    # share a public function with the layers it checks; every package
    # binding of one is replaced by one that raises
    public = {
        value
        for layer in (series, prodex.products, prodex.ghost)
        for value in (getattr(layer, name) for name in layer.__all__)
        if callable(value) and not isinstance(value, type)
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("public series, products or ghost function called")

    modules = [m for name, m in sys.modules.items()
               if name == "prodex" or name.startswith("prodex.")]
    replaced = 0
    for module in modules:
        for name, value in list(vars(module).items()):
            if callable(value) and value in public:
                monkeypatch.setattr(module, name, forbidden)
                replaced += 1
    # each is bound at least in its own module and in the package
    assert replaced >= 2 * len(public)
    with pytest.raises(AssertionError):
        congruences.make_series([1, 1])
    expected = partitions_by_pentagonal_recurrence(300)
    assert partition_numbers(300).values == expected
    assert main(["partitions", "--order", "40"]) == 0
    lines = [f"{k} {v}" for k, v in enumerate(expected[:41])]
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
