"""Reference answers for the benchmark's jobs, computed without prodex.

Nothing here imports the package under test.  Each expected output comes
from a route chosen to differ from the one the CLI takes:

- exponents of a series come from its ghost sequence (Newton's identities,
  then a forward divisor sieve), where the CLI expands the product
  inductively; they are confirmed by multiplying the product back out
  modulo a large prime;
- the ghost transform is a sieve over multiples, where the CLI uses trial
  division per index;
- the rational family and the Fermat witness series have ghost sequences in
  closed form, and their exponents at prime indices are checked against
  the closed-form Fermat quotient ((d+1)^p - d^p - 1)/p;
- partition numbers come from the parts-bounded recurrence (small orders)
  or the pentagonal recurrence (large orders);
- prime counts come from a segmented sieve, finished by a Miller-Rabin test
  with a different proven witness set where the window lies above the sieve
  limit; the only Wieferich primes below 6.7e15 are 1093 and 3511.

The render_* functions produce the exact bytes the CLI is documented to
print, so job outputs are compared byte for byte.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from math import isqrt

WIEFERICH_PRIMES = (1093, 3511)
# Search bound below which 1093 and 3511 are the only Wieferich primes
# (Dorais and Klyve, 2011).
WIEFERICH_SEARCH_BOUND = 6_700_000_000_000_000

# 2^61 - 1; reductions modulo this prime make the multiply-back check cheap.
CHECK_PRIME = (1 << 61) - 1

# A witness set proven deterministic for every n < 2^64 (Sinclair, 2011).
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# Windows with isqrt(hi) up to this are counted by a complete sieve; above
# it, sieving by the primes up to _PARTIAL_SIEVE leaves few enough
# survivors that a Miller-Rabin test of each is cheaper.
_FULL_SIEVE_ROOT = 1 << 20
_PARTIAL_SIEVE = 1 << 16


class OracleError(AssertionError):
    """Two routes inside the oracle disagree: the benchmark itself is wrong."""


# ---------------------------------------------------------------------------
# ghost sequences and exponents


def ghost_of_exponents(exps: list[int]) -> list[int]:
    """L_N = sum_{q | N} q * m_q^(N/q), N = 1..len(exps), by pushing each
    m_q to its multiples."""
    n = len(exps)
    out = [0] * (n + 1)
    for q in range(1, n + 1):
        mq = exps[q - 1]
        if mq == 0:
            continue
        power = 1
        for target in range(q, n + 1, q):
            power *= mq
            out[target] += q * power
    return out[1:]


def exponents_of_ghost(values: list[int]) -> tuple[list[int], tuple[int, int] | None]:
    """Solve L_N = sum_{q | N} q * m_q^(N/q) for m, increasing N.

    Returns (exponents, None) when every step divides exactly, else the
    exponents solved so far and (index, remainder) of the first step that
    does not.
    """
    n = len(values)
    pushed = [0] * (n + 1)
    exps: list[int] = []
    for idx in range(1, n + 1):
        quotient, remainder = divmod(values[idx - 1] - pushed[idx], idx)
        if remainder:
            return exps, (idx, remainder)
        exps.append(quotient)
        if quotient:
            power = quotient
            for target in range(2 * idx, n + 1, idx):
                power *= quotient
                pushed[target] += idx * power
    return exps, None


def ghost_of_series(coeffs: list[int]) -> list[int]:
    """Coefficients L_1..L_N of -x f'/f for c_0 = 1, by Newton's identities
    L_n = -n c_n - sum_{j<n} L_j c_{n-j}, looping over nonzero c only."""
    if coeffs[0] != 1:
        raise ValueError("constant term must be 1")
    n = len(coeffs) - 1
    nonzero = [(i, c) for i, c in enumerate(coeffs) if i and c]
    ghost = [0] * (n + 1)
    for k in range(1, n + 1):
        acc = -k * coeffs[k]
        for i, c in nonzero:
            if i >= k:
                break
            acc -= ghost[k - i] * c
        ghost[k] = acc
    return ghost[1:]


def exponents_of_series(coeffs: list[int]) -> list[int]:
    exps, failure = exponents_of_ghost(ghost_of_series(coeffs))
    if failure is not None:
        raise OracleError(f"series ghost not realizable at {failure}")
    return exps


def family_ghost(d: int, order: int) -> list[int]:
    """Ghost of (1-(d+1)x)/(1-dx): L_N = (d+1)^N - d^N."""
    return [(d + 1) ** k - d ** k for k in range(1, order + 1)]


def witness_ghost(d: int, order: int) -> list[int]:
    """Ghost of 1 - x - d x^2: a^N + b^N for the roots' reciprocals a, b,
    so L_1 = 1, L_2 = 1 + 2d, L_N = L_{N-1} + d L_{N-2}."""
    values = [1, 1 + 2 * d]
    while len(values) < order:
        values.append(values[-1] + d * values[-2])
    return values[:order]


def family_series(d: int, order: int) -> list[int]:
    return [1] + [-(d ** (k - 1)) for k in range(1, order + 1)]


# ---------------------------------------------------------------------------
# multiplying a product back out


def series_of_exponents(exps: list[int], modulus: int | None = None) -> list[int]:
    """Coefficients of prod_k (1 - m_k x^k) through x^len(exps), exactly or
    reduced modulo `modulus`."""
    n = len(exps)
    out = [1] + [0] * n
    for k, mk in enumerate(exps, start=1):
        if modulus is not None:
            mk %= modulus
        if not mk:
            continue
        for j in range(n, k - 1, -1):
            lower = out[j - k]
            if lower:
                out[j] -= mk * lower
                if modulus is not None:
                    out[j] %= modulus
    return out


def check_multiplies_back(exps: list[int], coeffs: list[int]) -> None:
    """Raise OracleError unless prod (1 - m_k x^k) = f mod (x^(N+1), P)."""
    back = series_of_exponents(exps, CHECK_PRIME)
    if back != [c % CHECK_PRIME for c in coeffs]:
        raise OracleError("exponents do not multiply back into the series")


def check_fermat_quotients(exps: list[int], d: int) -> None:
    """At every odd prime index p, the family exponent is the Fermat
    quotient ((d+1)^p - d^p - 1)/p."""
    for p in primes_upto(len(exps)):
        if p > 2 and exps[p - 1] * p != (d + 1) ** p - d ** p - 1:
            raise OracleError(f"family exponent at p={p}, d={d} is not the quotient")


def fermat_witness_fields(d: int, p: int) -> dict[str, int]:
    """m and n (exponents of f = 1 - x - d x^2 and of 1/f) at p and 2p, and
    the quotient m_2p + n_2p + m_p^2, with both identities checked."""
    ghost = witness_ghost(d, 2 * p)
    m, fail_m = exponents_of_ghost(ghost)
    n, fail_n = exponents_of_ghost([-v for v in ghost])
    if fail_m or fail_n:
        raise OracleError("witness ghost not realizable")
    m_p, m_2p, n_p, n_2p = m[p - 1], m[2 * p - 1], n[p - 1], n[2 * p - 1]
    lhs = 2 * p * m_2p + p * m_p * m_p + 2 * d ** p + 1
    rhs = -2 * p * n_2p - p * n_p * n_p + 2 * (d + 1) ** p - 1
    quotient = m_2p + n_2p + m_p * m_p
    if lhs != rhs or quotient * p != (d + 1) ** p - d ** p - 1:
        raise OracleError(f"index-2p identity fails at d={d}, p={p}")
    return {"d": d, "p": p, "m_p": m_p, "m_2p": m_2p, "n_p": n_p,
            "n_2p": n_2p, "quotient": quotient}


# ---------------------------------------------------------------------------
# partitions


def partitions_by_parts(order: int) -> list[int]:
    """p(0)..p(order) by adding one allowed part size at a time."""
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            table[n] += table[n - part]
    return table


def partitions_by_pentagons(order: int) -> list[int]:
    """p(0)..p(order) by Euler's pentagonal number recurrence."""
    offsets = []
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = 1 if j % 2 else -1
        offsets.append((j * (3 * j - 1) // 2, sign))
        offsets.append((j * (3 * j + 1) // 2, sign))
        j += 1
    table = [1] + [0] * order
    for n in range(1, order + 1):
        table[n] = sum(sign * table[n - g] for g, sign in offsets if g <= n)
    return table


# ---------------------------------------------------------------------------
# primes


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


_BASE_PRIMES = primes_upto(_FULL_SIEVE_ROOT)


def _strong_probable_prime(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_below_2_64(n: int) -> bool:
    """n is odd and has no prime factor up to _PARTIAL_SIEVE."""
    return all(_strong_probable_prime(n, b % n) for b in _MR_BASES_64 if b % n)


def count_primes(lo: int, hi: int) -> int:
    """Number of primes in [lo, hi], hi < 2^64, by a segmented sieve that
    finishes with a Miller-Rabin test when isqrt(hi) > _FULL_SIEVE_ROOT."""
    if hi >= 1 << 64:
        raise ValueError("count_primes is proven only below 2^64")
    lo = max(lo, 2)
    if lo > hi:
        return 0
    root = isqrt(hi)
    complete = root <= _FULL_SIEVE_ROOT
    bound = root if complete else _PARTIAL_SIEVE
    flags = bytearray([1]) * (hi - lo + 1)
    for p in _BASE_PRIMES[: bisect_right(_BASE_PRIMES, bound)]:
        start = max(p * p, -(-lo // p) * p)
        if start <= hi:
            flags[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
    if complete:
        return flags.count(1)
    return sum(1 for i, f in enumerate(flags) if f and _is_prime_below_2_64(lo + i))


def wieferich_hits(lo: int, hi: int) -> list[int]:
    if hi >= WIEFERICH_SEARCH_BOUND:
        raise ValueError("the Wieferich search is proven only below 6.7e15")
    return [p for p in WIEFERICH_PRIMES if lo <= p <= hi]


# ---------------------------------------------------------------------------
# rendering the CLI's documented output


def _indexed(values: list[int], start: int) -> str:
    return "".join(f"{k} {v}\n" for k, v in enumerate(values, start=start))


def _json_line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def render_sequence(field: str, values: list[int], fmt: str) -> str:
    """Series ("coeffs", indexed from 0), exponents ("exponents") and ghost
    values ("values"), both indexed from 1."""
    if fmt == "json":
        order = len(values) - 1 if field == "coeffs" else len(values)
        return _json_line({"order": order, field: [str(v) for v in values]})
    return _indexed(values, 0 if field == "coeffs" else 1)


def render_partitions(values: list[int], fmt: str, via_product: bool) -> str:
    if not via_product:
        if fmt == "json":
            return _json_line({"order": len(values) - 1, "values": [str(v) for v in values]})
        return _indexed(values, 0)
    if fmt == "json":
        strings = [str(v) for v in values]
        return _json_line({"order": len(values) - 1, "values": strings,
                           "via_product": strings, "equal": True})
    return "".join(f"{k} {v} {v}\n" for k, v in enumerate(values)) + "equal true\n"


def render_witness(fields: dict[str, int], fmt: str) -> str:
    if fmt == "json":
        return _json_line({k: str(v) for k, v in fields.items()})
    return "".join(f"{k} {v}\n" for k, v in fields.items()) + "identity OK\n"


def render_check(a: int, p: int, fmt: str) -> str:
    """`check` prints ok true exactly when p divides a^p - a."""
    ok = (a ** p - a) % p == 0
    if fmt == "json":
        return _json_line({"a": str(a), "p": str(p), "ok": ok})
    return f"a {a}\np {p}\nok {'true' if ok else 'false'}\n"


def render_wieferich(lo: int, hi: int, tested: int, hits: list[int], fmt: str) -> str:
    if fmt == "json":
        return _json_line({"lo": lo, "hi": hi, "primes_tested": tested, "hits": hits})
    return f"lo {lo}\nhi {hi}\nprimes_tested {tested}\n" + "".join(f"hit {p}\n" for p in hits)


def render_not_realizable(index: int, remainder: int) -> str:
    return f"prodex: not realizable at N={index}, remainder {remainder}\n"
