import concurrent.futures
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
import sympy

from prodex import (
    IdentityViolationError,
    congruences,
    NotPrimeError,
    expand_to_product,
    fermat_check,
    fermat_quotient_via_product,
    fermat_witness,
    ghost,
    is_prime,
    is_wieferich,
    make_series,
    partition_numbers,
    primes_in_range,
    products,
    rational_family_series,
    reciprocal,
    series,
    wieferich_scan,
)
from prodex.cli import main

from oracles import expand_by_partial_products


# --- rational family ---------------------------------------------------------


@pytest.mark.parametrize(
    "d, order, expected",
    [
        (1, 5, (1, -1, -1, -1, -1, -1)),
        (0, 4, (1, -1, 0, 0, 0)),
        (2, 4, (1, -1, -2, -4, -8)),
    ],
)
def test_family_series(d, order, expected):
    assert rational_family_series(d, order).coeffs == expected


def test_family_rejects_order_zero():
    with pytest.raises(ValueError):
        rational_family_series(1, 0)


# --- Fermat quotients --------------------------------------------------------


@pytest.mark.parametrize("d, p, expected", [(1, 3, 2), (1, 7, 18), (2, 5, 42)])
def test_quotient_examples(d, p, expected):
    assert fermat_quotient_via_product(d, p) == expected


def test_quotient_closed_form_small_grid():
    for p in (3, 5, 7, 11, 13):
        for d in range(1, 5):
            q = fermat_quotient_via_product(d, p)
            assert q * p == (d + 1) ** p - d**p - 1


def test_quotient_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fermat_quotient_via_product(1, 2)
    with pytest.raises(NotPrimeError):
        fermat_quotient_via_product(1, 9)
    with pytest.raises(ValueError):
        fermat_quotient_via_product(0, 5)


@pytest.mark.parametrize("d, p", [(1, 3), (2, 31), (7, 101), (50, 593)])
def test_quotient_solves_only_the_divisors_of_p(monkeypatch, d, p):
    # the ghost identity at a prime index holds only m_1 and m_p: every
    # binding of the full expansion and the full unghost raises, and the
    # one solve of the quotient must be given the keys 1 and p alone
    full = {products.expand_to_product, ghost.exponents_from_ghost}

    def forbidden(*args, **kwargs):
        raise AssertionError("full unghost on the quotient route")

    for name, module in list(sys.modules.items()):
        if name == "prodex" or name.startswith("prodex."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in full:
                    monkeypatch.setattr(module, attr, forbidden)
    solve = congruences._solve_divisors
    solved = []

    def recording(values):
        solved.append(set(values))
        return solve(values)

    monkeypatch.setattr(congruences, "_solve_divisors", recording)
    assert fermat_quotient_via_product(d, p) * p == (d + 1) ** p - d**p - 1
    assert solved == [{1, p}]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 50])
def test_quotient_equals_the_full_expansion_at_every_odd_prime_below_600(d):
    # the full unghost of the same ghost is the oracle of the divisor solve
    for p in primes_in_range(3, 599):
        expected = congruences._family_exponents(d, p).exponents[p - 1]
        assert fermat_quotient_via_product(d, p) == expected, p


def test_quotient_memory_is_linear_in_p():
    # U_p of the ladder holds O(p) bits; the family's whole ghost to order p,
    # O(p^2) bits, held 13.5 MiB already at p = 10007
    tracemalloc.start()
    try:
        fermat_quotient_via_product(1, 50021)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("d, p", [(1, 3), (2, 31), (7, 101)])
def test_quotient_check_catches_a_wrong_ghost_at_p(monkeypatch, d, p):
    # L_p + p still solves to an integer m_p, one too large; the closed-form
    # check must see the value the ladder produced and reject it.  An L_p
    # taken from the closed form would never see the shift.
    lucas = congruences._lucas

    def shifted(P, Q, n):
        u, v = lucas(P, Q, n)
        return (u + p, v) if (P, Q, n) == (2 * d + 1, d * (d + 1), p) else (u, v)

    monkeypatch.setattr(congruences, "_lucas", shifted)
    with pytest.raises(IdentityViolationError, match="disagrees with the closed form"):
        fermat_quotient_via_product(d, p)


# --- the index-2p witness ----------------------------------------------------


def test_witness_hand_values():
    w = fermat_witness(1, 3)
    assert (w.m_p, w.m_2p, w.n_p, w.n_2p) == (1, 2, -1, -1)
    assert w.quotient == 2


@pytest.mark.parametrize("d, p, expected", [(1, 5, 6), (3, 3, 12)])
def test_witness_quotients(d, p, expected):
    assert fermat_witness(d, p).quotient == expected


def test_witness_invariants():
    w = fermat_witness(4, 11)
    assert w.quotient * w.p == 5**11 - 4**11 - 1
    assert w.m_p == -w.n_p


def test_witness_identity_is_tail_independent():
    # the index-2p identity balances for any tail behind 1 - x - d x^2,
    # and the quotient value does not move
    rng = random.Random(20260809)
    d, p = 2, 7
    tail = [rng.randint(-5, 5) for _ in range(2 * p - 2)]
    f = make_series([1, -1, -d] + tail)
    m = expand_to_product(f).exponents
    n = expand_to_product(reciprocal(f)).exponents
    m_p, m_2p = m[p - 1], m[2 * p - 1]
    n_p, n_2p = n[p - 1], n[2 * p - 1]
    lhs = 2 * p * m_2p + p * m_p**2 + 2 * d**p + 1
    rhs = -2 * p * n_2p - p * n_p**2 + 2 * (d + 1) ** p - 1
    assert lhs == rhs
    assert m_2p + n_2p + m_p**2 == fermat_witness(d, p).quotient


@pytest.mark.parametrize("d, p", [(1, 3), (1, 101), (2, 31), (5, 53), (1000, 31),
                                  (10**30, 7)])
def test_witness_matches_oracle_expansion(d, p):
    # the witness's m and n must agree with the partial-product expansion
    # of f = 1 - x - d x^2 and of its reciprocal series
    f = make_series([1, -1, -d] + [0] * (2 * p - 2))
    m = expand_by_partial_products(f).exponents
    n = expand_by_partial_products(reciprocal(f)).exponents
    w = fermat_witness(d, p)
    assert (w.m_p, w.m_2p) == (m[p - 1], m[2 * p - 1])
    assert (w.n_p, w.n_2p) == (n[p - 1], n[2 * p - 1])


WITNESS_PAIRS = [(1, 5), (2, 7), (3, 13), (1, 31)]


def corrupt_ladder(monkeypatch, index, part):
    """Add 1 to U (part 0) or V (part 1) wherever _lucas returns `index`;
    return the ladder indices asked for and the ghosts passed to a solve."""
    lucas, solve = congruences._lucas, congruences._solve_divisors
    asked, ghosts_solved = [], []

    def corrupted(P, Q, n):
        asked.append(n)
        uv = list(lucas(P, Q, n))
        if n == index:
            uv[part] += 1
        return tuple(uv)

    def recording(ghost):
        ghosts_solved.append(ghost)
        return solve(ghost)

    monkeypatch.setattr(congruences, "_lucas", corrupted)
    monkeypatch.setattr(congruences, "_solve_divisors", recording)
    congruences._witness.cache_clear()
    return asked, ghosts_solved


@pytest.mark.parametrize("d, p, k", [
    (d, p, k) for d, p in WITNESS_PAIRS for k in range(2 * p + 2)
])
def test_witness_rejects_a_wrong_reciprocal_coefficient(monkeypatch, d, p, k):
    # the witness reads U only at p, in the V^2 - (1+4d)U^2 check that ties
    # the ladder's V_p to U_p.  So a corrupted U_p must be caught there,
    # before any ghost is solved; no other index is asked of the ladder, and
    # corrupting it leaves the witness as it is.
    expected = fermat_witness(d, p)
    asked, ghosts_solved = corrupt_ladder(monkeypatch, k, 0)
    if k == p:
        with pytest.raises(IdentityViolationError, match=r"V\^2 - \(1\+4d\)U\^2"):
            fermat_witness(d, p)
        assert ghosts_solved == []
    else:
        assert fermat_witness(d, p) == expected
    assert asked == [p]


@pytest.mark.parametrize("d, p, k", [
    (d, p, k) for d, p in WITNESS_PAIRS for k in (1, 2, p, 2 * p)
])
def test_witness_rejects_a_wrong_power_sum(monkeypatch, d, p, k):
    # m is read from f's ghost V_k and n from its negation: the constants 1
    # and 1 + 2d at 1 and 2, the ladder's V_p at p and its doubling at 2p.
    # The identity V_p^2 - (1+4d) U_p^2 = 4(-d)^p ties V_p to U_p; the ladder
    # is never asked at 1, 2 or 2p, so corrupting it there changes nothing.
    expected = fermat_witness(d, p)
    asked, ghosts_solved = corrupt_ladder(monkeypatch, k, 1)
    if k == p:
        with pytest.raises(IdentityViolationError, match=r"V\^2 - \(1\+4d\)U\^2"):
            fermat_witness(d, p)
        assert ghosts_solved == []
    else:
        assert fermat_witness(d, p) == expected
    assert asked == [p]


@pytest.mark.parametrize("d, p", WITNESS_PAIRS)
def test_witness_closed_form_check_catches_a_wrong_exponent(monkeypatch, d, p):
    # the quotient m_2p + n_2p + m_p^2 does not depend on V_p, so only the
    # closed form can see a wrong solve: n_2p one too large must be rejected
    solve, solved = congruences._solve_divisors, []

    def shifted(ghost):
        exps = solve(ghost)
        solved.append(ghost)
        if len(solved) == 2:  # the second solve is n's
            exps[2 * p] += 1
        return exps

    monkeypatch.setattr(congruences, "_solve_divisors", shifted)
    congruences._witness.cache_clear()
    with pytest.raises(IdentityViolationError, match="disagrees with the closed form"):
        fermat_witness(d, p)


@pytest.mark.parametrize("d", [1, 2, 7, 10**30])
def test_lucas_ladder_matches_the_plain_recurrences(d):
    # U_(n+1) = U_n + d U_(n-1) from (0, 1), V likewise from (2, 1)
    u, v = [0, 1], [2, 1]
    for n in range(2, 301):
        u.append(u[n - 1] + d * u[n - 2])
        v.append(v[n - 1] + d * v[n - 2])
    assert [congruences._lucas(1, -d, n) for n in range(301)] == list(zip(u, v))


@pytest.mark.parametrize("P, Q", [
    (2 * d + 1, d * (d + 1)) for d in (-3, -1, 0, 1, 2, 7)  # the family's ghost
] + [(2, 1), (3, 5)])  # D = P^2 - 4Q is 0, then negative
def test_lucas_ladder_matches_the_general_recurrences(P, Q):
    # U_(n+1) = P U_n - Q U_(n-1) from (0, 1), V likewise from (2, P)
    u, v = [0, 1], [2, P]
    for n in range(2, 301):
        u.append(P * u[n - 1] - Q * u[n - 2])
        v.append(P * v[n - 1] - Q * v[n - 2])
    assert [congruences._lucas(P, Q, n) for n in range(301)] == list(zip(u, v))


def test_witness_memory_is_linear_in_p():
    # the ghosts at 1, 2, p and 2p hold O(p) bits; building all 2p
    # coefficients of 1/f held about 56 MB here
    congruences._witness.cache_clear()
    tracemalloc.start()
    try:
        fermat_witness(1, 10007)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fermat_at_p_50021_runs_in_a_gigabyte():
    # an O(p^2)-bit witness runs out of a 1 GB address space at this p
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "prodex", "fermat", "--d", "1", "--p", "50021",
         "--format", "json"],
        capture_output=True, text=True, preexec_fn=cap, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    quotient = json.loads(proc.stdout)["quotient"]  # 15,054 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert int(quotient) * 50021 == 2**50021 - 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_paper_routes_divide_only_by_sparse_series(monkeypatch, capsys):
    # the family's ghost comes from one division by the three-term product
    # of its factors; a dense divisor means an O(N^2) log-derivative.  The
    # witness and the quotient read Lucas ladders and divide no series.
    divide = series._divide
    divisor_sizes = []

    def recording(c, rhs):
        divisor_sizes.append(sum(1 for ci in c if ci))
        return divide(c, rhs)

    monkeypatch.setattr(series, "_divide", recording)
    monkeypatch.setattr(congruences, "_divide", recording)
    congruences._witness.cache_clear()
    fermat_witness(2, 31)
    fermat_quotient_via_product(2, 31)
    assert divisor_sizes == []
    main(["family", "--d", "2", "--order", "300", "--expand"])
    assert divisor_sizes == [3]
    capsys.readouterr()


def test_witness_cache_keeps_each_callers_argument_type():
    # True == 1 and hash(True) == hash(1), so an untyped cache hands the
    # witness built for d=True to the caller asking for d=1
    congruences._witness.cache_clear()
    assert fermat_witness(True, 3).to_json_dict()["d"] == "True"
    assert fermat_witness(1, 3).to_json_dict()["d"] == "1"
    assert fermat_witness(True, 3).to_json_dict()["d"] == "True"


@pytest.mark.parametrize("d", [2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("route", [fermat_witness, fermat_quotient_via_product])
def test_quotient_routes_refuse_a_d_that_is_not_an_int(route, d):
    # 2.0 would run the whole derivation in floats and return float answers
    with pytest.raises(ValueError, match="d must be an int >= 1"):
        route(d, 5)


def test_witness_rejects_even_prime():
    with pytest.raises(ValueError):
        fermat_witness(1, 2)


def test_witness_json_fields_are_strings():
    data = fermat_witness(1, 5).to_json_dict()
    assert data == {
        "d": "1",
        "p": "5",
        "m_p": "2",
        "m_2p": "10",
        "n_p": "-2",
        "n_2p": "-8",
        "quotient": "6",
    }
    json.dumps(data)


# --- Fermat's little theorem -------------------------------------------------


@pytest.mark.parametrize("a, p", [(1, 5), (10, 7), (50, 97), (7, 2), (1, 2), (12, 2)])
def test_fermat_check_true(a, p):
    assert fermat_check(a, p) is True


def test_witness_cache_holds_one_sweep_not_every_witness():
    congruences._witness.cache_clear()
    fermat_check(150, 10007)
    assert congruences._witness.cache_info().currsize <= 64
    # a criterion-07 sweep over a = 1..50 at one p, run twice: the second
    # finds each of that p's 49 witnesses in the cache
    congruences._witness.cache_clear()
    for _ in range(2):
        assert all(fermat_check(a, 97) for a in range(1, 51))
        assert congruences._witness.cache_info().misses == 49


def test_fermat_check_rejects_composite_modulus():
    with pytest.raises(NotPrimeError):
        fermat_check(10, 6)


def test_fermat_check_rejects_bad_a():
    with pytest.raises(ValueError):
        fermat_check(0, 5)


# --- primality utilities -----------------------------------------------------


def test_is_prime_matches_sympy_on_small_range():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_strong_pseudoprimes():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(2**61 - 1)  # Mersenne prime


@pytest.mark.parametrize(
    "lo, hi, expected",
    [
        (2, 10, [2, 3, 5, 7]),
        (1090, 1100, [1091, 1093, 1097]),
        (14, 16, []),
        (10, 2, []),
        (-5, 1, []),
        # edges of the recursion for the base primes; the last window
        # sieves with the deepest base, primes up to 2^20
        *[(lo, hi, list(sympy.primerange(lo, hi + 1)))
          for lo, hi in [(2, 2), (2, 3), (4, 4), (24, 25), (120, 121),
                         (2**40 - 300, 2**40)]],
    ],
)
def test_primes_in_range(lo, hi, expected):
    assert primes_in_range(lo, hi) == expected


def test_primes_in_range_large_isolated_candidates():
    lo = 10**15
    assert primes_in_range(lo, lo + 200) == list(sympy.primerange(lo, lo + 201))


def test_primes_in_range_spans_blocks():
    # a window crossing 2^20, the width of the scanner's blocks
    lo, hi = (1 << 20) - 50, (1 << 20) + 50
    assert primes_in_range(lo, hi) == list(sympy.primerange(lo, hi + 1))


def test_primes_in_range_tests_only_candidates_above_sieve_limit(monkeypatch):
    # a window across the limit sieves its part at or below the limit and
    # gives only the rest to Miller-Rabin
    limit = congruences._SIEVE_LIMIT
    tested = []

    def recording(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(congruences, "is_prime", recording)
    primes = primes_in_range(limit - 2000, limit + 300)
    assert tested == list(range(limit + 1, limit + 301))
    assert primes == list(sympy.primerange(limit - 2000, limit + 301))


# --- Wieferich ---------------------------------------------------------------


def test_known_wieferich_primes():
    assert is_wieferich(1093)
    assert is_wieferich(3511)
    assert not is_wieferich(5)
    assert not is_wieferich(7)


def test_is_wieferich_rejects_composites():
    with pytest.raises(NotPrimeError):
        is_wieferich(4)


def test_wieferich_links_to_fermat_quotient():
    # for odd p: 2^(p-1) = 1 mod p^2 iff p divides (2^p - 2)/p
    for p in primes_in_range(3, 200):
        assert is_wieferich(p) == (fermat_quotient_via_product(1, p) % p == 0)


def test_wieferich_link_full_range():
    # one order-5000 expansion of the d=1 family carries every quotient
    # a_p = (2^p - 2)/p at once; uniqueness makes it agree with the
    # per-prime route, spot-checked below
    exps = expand_to_product(rational_family_series(1, 5000)).exponents
    for p in primes_in_range(3, 5000):
        assert is_wieferich(p) == (exps[p - 1] % p == 0), p
    for p in (3, 101, 499):
        assert exps[p - 1] == fermat_quotient_via_product(1, p)


def test_scan_below_1000_is_empty():
    report = wieferich_scan(2, 1000)
    assert report.hits == ()
    assert report.primes_tested == 168


def test_scan_finds_both_known_hits():
    report = wieferich_scan(1000, 4000)
    assert report.hits == (1093, 3511)


def test_scan_independent_of_thread_count():
    single = wieferich_scan(2, 3_000_000, threads=1)
    pooled = wieferich_scan(2, 3_000_000, threads=3)
    assert single == pooled
    assert json.dumps(single.to_json_dict()) == json.dumps(pooled.to_json_dict())


@pytest.mark.parametrize("lo, width", [(2**50, 2000), (2**62, 100)])
def test_scan_of_large_window_uses_bounded_prime_source(lo, width):
    # a base sieve up to isqrt(2^62) = 2^31 would take gigabytes, and even
    # the 2^50 window peaks past 100 MiB with base primes up to 2^25; above
    # the sieve limit the scanner must test each candidate instead
    tracemalloc.start()
    try:
        report = wieferich_scan(lo, lo + width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"peak {peak} bytes"
    assert report.primes_tested == sum(
        1 for n in range(lo, lo + width + 1) if sympy.isprime(n)
    )


def test_scan_workers_capped_at_cpu_count(monkeypatch):
    # the pool forks every worker at its first submit, so an unchecked
    # --threads of a million would fork a million processes
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    wieferich_scan(2, 5 * 2**20, threads=10**6)
    assert workers == [2]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of every pool wieferich_scan starts, on a stand-in
    pool that maps serially in the test process; four CPUs."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return sizes


@pytest.mark.parametrize("lo, hi, workers", [
    (2, 2, 1), (2, 2, 4), (2, 3, 4), (5, 2**20 + 4, 1), (5, 2**20 + 5, 1),
    (5, 2**20 + 6, 1), (2, 10**7, 2), (10**9, 10**9 + 999, 3),
    (2**40 - 2**19, 2**40 + 2**13, 2), (2**50, 2**50 + 50_000, 2),
])
def test_scan_blocks_cover_the_window_in_equal_shares(lo, hi, workers):
    blocks = congruences._scan_blocks(lo, hi, workers)
    width = hi - lo + 1
    assert len(blocks) == max(-(-width // 2**20), workers)
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(b[0] == a[1] + 1 for a, b in zip(blocks, blocks[1:]))
    sizes = [b - a + 1 for a, b in blocks]
    assert sum(sizes) == width
    assert max(sizes) <= 2**20 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("lo, hi, started", [
    (2, 500_000, [2]),
    (10**9, 10**9 + 500_000, [2]),
    (2**50, 2**50 + 50_000, [2]),
    (2, 20_000, []),
    (2**50, 2**50 + 1000, []),
])
def test_scan_starts_a_pool_only_when_the_window_pays_for_it(
        pool_sizes, lo, hi, started):
    report = wieferich_scan(lo, hi, threads=2)
    assert pool_sizes == started
    assert report == wieferich_scan(lo, hi, threads=1)


@pytest.mark.parametrize("lo, hi", [
    (2, 2), (2, 2**20 + 1), (3, 2**20 + 3), (2**40 - 2**18, 2**40 + 2**13),
], ids=["width-1", "width-2^20", "width-2^20+1", "across-2^40"])
def test_scan_report_identical_for_threads_1_to_4(pool_sizes, lo, hi):
    reports = [wieferich_scan(lo, hi, threads=t) for t in (1, 2, 3, 4)]
    assert all(r == reports[0] for r in reports)
    assert reports[0].primes_tested == len(list(sympy.primerange(lo, hi + 1)))
    assert len(pool_sizes) == (0 if hi == lo else 3)


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        wieferich_scan(10, 5)
    with pytest.raises(ValueError):
        wieferich_scan(1, 10)


@pytest.mark.parametrize("lo, hi", [
    (2**20 - 1000, 2**20 + 1000), (3, 2**20 + 3),
    (2**40 - 3000, 2**40 + 500), (2**40 - 2**17, 2**40 + 2**13),
], ids=["across-2^20", "two-blocks", "across-2^40", "two-blocks-across-2^40"])
def test_scan_counts_and_hits_match_primes_in_range(pool_sizes, lo, hi):
    primes = primes_in_range(lo, hi)
    hits = tuple(p for p in primes if is_wieferich(p))
    for threads in (1, 2):
        report = wieferich_scan(lo, hi, threads=threads)
        assert (report.primes_tested, report.hits) == (len(primes), hits)


def test_scan_holds_no_list_of_a_blocks_primes():
    # the block at 2 has 82,025 primes: as a list, about 3 MB with its ints
    tracemalloc.start()
    try:
        report = wieferich_scan(2, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.hits == (1093, 3511)
    assert peak < 3e6, f"peak {peak} bytes"


# --- partition numbers -------------------------------------------------------


def brute_force_partition_count(n):
    """Exponential enumeration of partitions; usable for n <= 30."""

    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(count(remaining - k, k) for k in range(min(remaining, largest), 0, -1))

    return count(n, n)


def test_partition_small_table():
    assert partition_numbers(5).values == (1, 1, 2, 3, 5, 7)


def test_partition_at_ten():
    assert partition_numbers(10).values[10] == 42


def test_partition_order_zero():
    assert partition_numbers(0).values == (1,)


def test_partition_rejects_negative():
    with pytest.raises(ValueError):
        partition_numbers(-1)


def test_pentagonal_recurrence_matches_enumeration():
    table = partition_numbers(30).values
    for n in range(31):
        assert table[n] == brute_force_partition_count(n)


def test_partition_values_positive_and_nondecreasing():
    values = partition_numbers(100).values
    assert all(v > 0 for v in values)
    assert all(values[n] >= values[n - 1] for n in range(1, 101))


def test_partition_table_allocated_before_pentagonal_terms():
    # an order too large to hold must fail at its table, at once: listing
    # its 2^32 pentagonal offsets first would grow to many gigabytes
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            partition_numbers(2**62)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"peak {peak} bytes"
