"""Number-theoretic consequences of the product expansion.

The rational family (1-(d+1)x)/(1-dx) has the Fermat quotient
((d+1)^p - d^p - 1)/p as its product exponent at every odd prime index p,
and the index-2p instance of the divisor-sum identity between a series and
its reciprocal forces p | (d+1)^p - d^p - 1 directly.  This module computes
those objects exactly, sums them into a full check of p | a^p - a, scans
prime ranges for the Wieferich condition 2^(p-1) = 1 mod p^2 in equal
shares, and tabulates partition numbers by the pentagonal recurrence, block
by block, outside the product and ghost layers, to referee the all-ones
product example.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress, count
from math import isqrt
from operator import add, itemgetter, sub

from .errors import IdentityViolationError, NotPrimeError
from .ghost import _solve_divisors, exponents_from_ghost
from .series import (GhostSequence, ProductExpansion, TruncatedSeries, _divide,
                     _Record, _Value, make_series, mul)

__all__ = [
    "FermatWitness",
    "WieferichScanReport",
    "PartitionTable",
    "rational_family_series",
    "fermat_quotient_via_product",
    "fermat_witness",
    "fermat_check",
    "is_prime",
    "is_wieferich",
    "wieferich_scan",
    "partition_numbers",
    "primes_in_range",
]

# Miller-Rabin to the first k bases is proven below psi_k, the least strong
# pseudoprime to all k (OEIS A014233; arXiv:1509.00864 for k = 12 and 13)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Above this bound primes_in_range switches from segmented sieving to
# per-candidate Miller-Rabin; isqrt(2^40) = 2^20 keeps base sieves tiny.
_SIEVE_LIMIT = 2**40

# wieferich_scan sieves, tests and merges its range in blocks at most this wide
_SCAN_BLOCK = 1 << 20

# wieferich_scan starts worker processes only for a window of at least this
# much serial work, in sieved candidates of ~0.4 us (a Miller-Rabin one above
# _SIEVE_LIMIT counts 16): about 0.1 s, against ~60 ms to start a pool
_POOL_WORK = 1 << 18


def is_prime(n: int) -> bool:
    """Miller-Rabin with the shortest proven prefix of the bases 2..41.

    Proven correct only for n < psi_13 = 3,317,044,064,679,887,385,961,981,
    which covers every n < 2^64.  From psi_13 on a True answer means
    probable prime: psi_13 itself passes all 13 bases."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = (6 if n < 3_474_749_660_383 else 7 if n < 341_550_071_728_321  # psi_6, psi_7
         else 9 if n < 3_825_123_056_546_413_051  # psi_9
         else 12 if n < 318_665_857_834_031_151_167_461 else 13)  # psi_12
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending."""
    return list(_primes(lo, hi))


def _primes(lo: int, hi: int) -> Iterator[int]:
    """The primes in [lo, hi], ascending, one at a time, with no list held:
    up to 2^40 a segmented sieve of a byte per candidate, crossed off by the
    primes this yields for [2, isqrt(hi)]; above it, for narrow windows of
    large candidates, is_prime's Miller-Rabin (proven below psi_13)."""
    lo = max(lo, 2)
    if hi > _SIEVE_LIMIT:
        yield from _primes(lo, _SIEVE_LIMIT)
        yield from filter(is_prime, range(max(lo, _SIEVE_LIMIT + 1), hi + 1))
    elif lo <= hi:
        flags = bytearray([1]) * (hi - lo + 1)
        for p in _primes(2, isqrt(hi)):
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start <= hi:
                flags[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
        yield from compress(range(lo, hi + 1), flags)


# ---------------------------------------------------------------------------
# The rational family and its Fermat quotients


def rational_family_series(d: int, order: int) -> TruncatedSeries:
    """Truncated series of (1-(d+1)x)/(1-dx), one division by 1-dx, checked
    by multiplying back with (1-dx); O(order) for two-term factors."""
    if order < 1:
        raise ValueError("order must be >= 1")
    num, den = (make_series([1, -a] + [0] * (order - 1)) for a in (d + 1, d))
    f = TruncatedSeries(_divide(den.coeffs, list(num.coeffs)))
    if mul(den, f) != num:
        raise IdentityViolationError(
            f"(1-dx) * family(d={d}) failed to telescope to 1-(d+1)x"
        )
    return f


def _family_exponents(d: int, order: int) -> ProductExpansion:
    """Every exponent of the family to `order` >= 1: the full unghost of its
    ghost x/((1-(d+1)x)(1-dx)) = sum U_N(2d+1, d(d+1)) x^N, read from one
    division by the three-term product 1 - (2d+1)x + d(d+1)x^2."""
    u = _divide((1, -2 * d - 1, d * (d + 1)) + (0,) * order, [1] + [0] * (order - 1))
    return exponents_from_ghost(GhostSequence(u))  # U_1..U_order


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _require_quotient_args(d: int, p: int) -> None:
    """The domain of the quotient ((d+1)^p - d^p - 1)/p as the index-p and
    index-2p derivations read it: d an int >= 1 and p an odd prime."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be an int >= 1, got {d!r}")
    _require_prime(p)
    if p == 2:
        raise ValueError("p = 2 is excluded; the index-2p derivation needs odd p")


def fermat_quotient_via_product(d: int, p: int) -> int:
    """The Fermat quotient ((d+1)^p - d^p - 1)/p as the family's product
    exponent m_p, solved over the divisors {1, p} from U_1 = 1 and the ladder's
    U_p at (2d+1, d(d+1)), O(p) bits, checked against the closed form."""
    _require_quotient_args(d, p)
    # L_p from the ladder, not from (d+1)^p - d^p: the check stays independent
    quotient = _solve_divisors({1: 1, p: _lucas(2 * d + 1, d * (d + 1), p)[0]})[p]
    if quotient * p != (d + 1) ** p - d ** p - 1:
        raise IdentityViolationError(
            f"family exponent at p={p}, d={d} disagrees with the closed form"
        )
    return quotient


class FermatWitness(_Value, namedtuple("FermatWitness",
                                       "d p m_p m_2p n_p n_2p quotient")):
    """The exact ingredients of the index-2p divisor-sum identity

        2p*m_2p + p*m_p^2 + 2 d^p + 1 = -2p*n_2p - p*n_p^2 + 2 (d+1)^p - 1

    for f = 1 - x - d x^2 (zero tail) and its reciprocal, whose ghost is the
    negation of f's.  Since m_p = -n_p, the identity rearranges to
    p * quotient = (d+1)^p - d^p - 1 with quotient = m_2p + n_2p + m_p^2, for
    any ghost with L_1 = 1 and L_2 = 1 + 2d: divisibility falls out of the
    integrality of m_2p and n_2p, with no appeal to binomial coefficients.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {k: str(v) for k, v in self._asdict().items()}


def _lucas(P: int, Q: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) of X_(k+1) = P X_k - Q X_(k-1), U from (0, 1) and V from
    (2, P), by the exact ladder (Joye-Quisquater 1996)."""
    u, v, q = 0, 2, 1  # U_k, V_k and Q^k at k = 0
    D = P * P - 4 * Q
    for bit in bin(n)[2:]:
        u, v, q = u * v, v * v - 2 * q, q * q  # k -> 2k
        if bit == "1":  # k -> k+1: 2U = P U_k + V_k, 2V = D U_k + P V_k
            u, v, q = (P * u + v) // 2, (D * u + P * v) // 2, Q * q
    return u, v


# Sized for one sweep: fermat_check over a = 1..50 at one p reuses that p's
# 49 witnesses.  The CLI never hits it (each command is one process, and
# check asks for distinct d), so a larger cache would only keep check --a A's
# A - 1 witnesses alive.
@lru_cache(maxsize=64, typed=True)
def _witness(d: int, p: int) -> FermatWitness:
    # f = 1 - x - d x^2 has the ghost V_k (P = 1, Q = -d), read at k | 2p only:
    # constants at 1 and 2, one ladder at p, and V_2p = V_p^2 - 2Q^p by doubling
    u_p, v_p = _lucas(1, -d, p)
    d_p, vv_p = d ** p, v_p * v_p  # each once, for every use
    if vv_p - (1 + 4 * d) * u_p * u_p != -4 * d_p:  # V^2 - D U^2 = 4Q^p, D = 1+4d
        raise IdentityViolationError(f"V^2 - (1+4d)U^2 != 4(-d)^p at d={d}, p={p}")
    ghost = {1: 1, 2: 1 + 2 * d, p: v_p, 2 * p: vv_p + 2 * d_p}
    # the ghost map turns products into sums, so 1/f's ghost is -V_k: m_p = -n_p
    # and the index-2p balance hold by algebra, the quotient's value reads only
    # V_1 and V_2, and the proof is that both solves at 2p leave no remainder
    m_p, m_2p = itemgetter(p, 2 * p)(_solve_divisors(ghost))
    n_p, n_2p = itemgetter(p, 2 * p)(_solve_divisors({k: -g for k, g in ghost.items()}))
    quotient = m_2p + n_2p + m_p * m_p
    if quotient * p != (d + 1) ** p - d_p - 1:
        raise IdentityViolationError(
            f"witness quotient at d={d}, p={p} disagrees with the closed form"
        )
    return FermatWitness(d=d, p=p, m_p=m_p, m_2p=m_2p, n_p=n_p, n_2p=n_2p,
                         quotient=quotient)


def fermat_witness(d: int, p: int) -> FermatWitness:
    """Solve the exponents of f = 1 - x - d x^2 and of 1/f at 1, 2, p, 2p,
    the divisors of 2p, from f's ghost (one Lucas ladder at p) and its
    negation, and check the quotient against the closed form.  Immutable, so
    cached per (d, p): fermat_check sums many."""
    _require_quotient_args(d, p)
    return _witness(d, p)


def fermat_check(a: int, p: int) -> bool:
    """Verify p | a^p - a two independent ways.

    Route one sums the witness quotients over d = 1..a-1; the sum
    telescopes, so p * (sum of quotients) must equal a^p - a exactly.
    Route two is plain modular exponentiation.  True only if both agree.
    p = 2 skips the witnesses: a^2 - a = a(a-1) is a product of
    consecutive integers, hence even.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    _require_prime(p)
    if p == 2:
        telescoped = (a * a - a) % 2 == 0
    else:
        total = sum(_witness(d, p).quotient for d in range(1, a))
        telescoped = p * total == a ** p - a
    modular = pow(a, p, p) == a % p
    return telescoped and modular


# ---------------------------------------------------------------------------
# Wieferich scanning


class WieferichScanReport(_Value, namedtuple("WieferichScanReport",
                                             "lo hi primes_tested hits")):
    """Outcome of scanning [lo, hi]: every prime in range was tested for
    2^(p-1) = 1 (mod p^2); hits are listed ascending."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self._asdict()


def is_wieferich(p: int) -> bool:
    """2^(p-1) = 1 (mod p^2)?  For odd p this is equivalent to p dividing
    the Fermat quotient (2^p - 2)/p, i.e. the family exponent at index p."""
    _require_prime(p)
    return pow(2, p - 1, p * p) == 1


def _scan_block(bounds: tuple[int, int]) -> tuple[int, list[int]]:
    tally = count()  # zip draws from _primes first: tally ends at the prime count
    hits = [p for p, _ in zip(_primes(*bounds), tally) if pow(2, p - 1, p * p) == 1]
    return next(tally), hits


def _scan_blocks(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into max(ceil(width / _SCAN_BLOCK), workers) contiguous
    blocks whose widths differ by at most one, in ascending order."""
    width = hi - lo + 1
    count = max(-(-width // _SCAN_BLOCK), workers)
    return [(lo + width * i // count, lo + width * (i + 1) // count - 1)
            for i in range(count)]


def wieferich_scan(lo: int, hi: int, threads: int = 1) -> WieferichScanReport:
    """Test every prime in [lo, hi] for the Wieferich condition.

    The range is cut into equal blocks, at least one per worker and none
    wider than _SCAN_BLOCK, processed independently and merged in order,
    so the report is identical for every thread count.  Up to `threads`
    worker processes, at most one per CPU, share the blocks of a window
    whose serial work outweighs starting them; smaller windows run serially.
    """
    if not (2 <= lo <= hi):
        raise ValueError(f"invalid range [{lo}, {hi}]: need 2 <= lo <= hi")
    # each candidate left to Miller-Rabin, above _SIEVE_LIMIT, counts 16
    work = hi - lo + 1 + 15 * max(0, hi - max(lo - 1, _SIEVE_LIMIT))
    # the pool forks all its workers at once, so never more than the CPUs
    workers = min(threads, os.cpu_count() or 1) if work >= _POOL_WORK else 1
    blocks = _scan_blocks(lo, hi, workers)
    if workers > 1:
        # imported here: loading concurrent.futures costs every CLI start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_block, blocks))
    else:
        results = [_scan_block(b) for b in blocks]
    tested = sum(t for t, _ in results)
    hits = [p for _, block_hits in results for p in block_hits]
    return WieferichScanReport(lo=lo, hi=hi, primes_tested=tested, hits=tuple(hits))


# ---------------------------------------------------------------------------
# Partition numbers (independent referee for the all-ones product example)


class PartitionTable(_Record, namedtuple("PartitionTable", "values")):
    """p(0)..p(N): the number of ways to write n as a sum of positive
    integers."""

    __slots__ = ()


def partition_numbers(order: int) -> PartitionTable:
    """Exact p(0)..p(order), the coefficients of 1/prod_{k>=1} (1 - x^k).

    By Euler's pentagonal number theorem that product is the sum over the
    integers j of (-1)^j x^(j(3j-1)/2), so p(n) is the sum over j != 0 of
    (-1)^(j+1) p(n - j(3j-1)/2), offsets up to n having |j| <= isqrt(n).
    The table fills in blocks of w = isqrt(order) rows.  An offset g >= w
    reads only rows below the block: its whole slice is summed column by
    column with the others of its sign.  Smaller offsets, and those first
    landing inside the block, are summed row by row.  Calling no series,
    product or ghost function, this referees the all-ones expansion.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    # allocated before the offsets, so an order too large to hold fails at once
    table = [1] + [0] * order
    terms = [(g, add if j % 2 else sub)  # offsets of j = 1, -1, 2, -2, ...
             for j in range(1, isqrt(order) + 1)
             for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= order]
    width = isqrt(order) or 1
    for lo in range(1, order + 1, width):
        hi = min(lo + width, order + 1)
        rows = {add: [[0] * (hi - lo)], sub: [[0] * (hi - lo)]}  # never empty
        inner = []  # offsets summed row by row, still ascending
        for g, op in terms:
            if width <= g <= lo:
                rows[op].append(table[lo - g : hi - g])
            elif g < hi:
                inner.append((g, op))
        far = map(sub, map(sum, zip(*rows[add])), map(sum, zip(*rows[sub])))
        for n, acc in zip(range(lo, hi), far):
            for g, op in inner:
                if g > n:
                    break
                acc = op(acc, table[n - g])
            table[n] = acc
    return PartitionTable(table)
