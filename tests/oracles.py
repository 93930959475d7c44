"""Slow, independent routes kept as test oracles.

The package computes expansions, log-derivatives and inverse sequences
through the ghost transform; reciprocals, log-derivatives and the rational
family's series through one sparse division loop; the partition numbers
by a block-wise pentagonal recurrence; and the family's exponents and the
Fermat witness from the ghosts of their two- and three-term factors.
These are the routes it used before: each reaches the same answer a
different way, so a fast route that drifts from its oracle fails a test
instead of silently changing an answer.  None of them calls the ghost
layer or the package's reciprocal.  first_dwork_failure is no former
route but an independent criterion: it decides where a ghost stops being
realizable from the ghost values alone, with no exponent solved.
"""

from math import isqrt

from prodex import (
    GhostSequence,
    NonUnitConstantError,
    NotRealizableError,
    ProductExpansion,
    TruncatedSeries,
    derivative,
    make_series,
    mul,
    product_to_series,
)
from prodex.series import _divide


def expand_by_partial_products(f: TruncatedSeries) -> ProductExpansion:
    """Inductive expansion: once m_1..m_{k-1} are fixed, the partial
    product matches f through x^(k-1) and carries some C at x^k, and
    multiplying in (1 - m_k x^k) changes that coefficient by -m_k, so
    m_k = C - c_k is forced.  The partial product is updated in place."""
    c = f.coeffs
    if c[0] != 1:
        raise NonUnitConstantError(f"constant term must be 1, got {c[0]}")
    if f.order < 1:
        raise ValueError("need order >= 1 to expand")
    n = f.order
    partial = [1] + [0] * n
    exponents = []
    for k in range(1, n + 1):
        mk = partial[k] - c[k]
        exponents.append(mk)
        if mk:
            for j in range(n, k - 1, -1):
                partial[j] -= mk * partial[j - k]
    return ProductExpansion(tuple(exponents))


def reciprocal_by_recurrence(f: TruncatedSeries) -> TruncatedSeries:
    """1/f mod x^(N+1) for c_0 = +1 or -1, each coefficient summed over
    every c_i, zero or not: inv_k = -c_0 sum_{0<i<=k} c_i inv_{k-i}."""
    c = f.coeffs
    c0 = c[0]
    if c0 not in (1, -1):
        raise NonUnitConstantError(f"constant term must be +1 or -1, got {c0}")
    n = f.order
    inv = [0] * (n + 1)
    inv[0] = c0
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            ci = c[i]
            if ci:
                acc += ci * inv[k - i]
        inv[k] = -c0 * acc
    return TruncatedSeries(tuple(inv))


def log_derivative_by_division(f: TruncatedSeries) -> GhostSequence:
    """-x f'/f as (-x f') * (1/f).  The x-shift puts the
    derivative's zeroed top coefficient above the truncation order, so
    every L_N is exact, including the top one."""
    if f.coeffs[0] != 1:
        raise NonUnitConstantError(f"constant term must be 1, got {f.coeffs[0]}")
    if f.order < 1:
        raise ValueError("need order >= 1 to produce a ghost sequence")
    d = derivative(f)
    neg_x_d = TruncatedSeries((0,) + tuple(-c for c in d.coeffs[:-1]))
    return GhostSequence(mul(neg_x_d, reciprocal_by_recurrence(f)).coeffs[1:])


def divisors(n: int) -> list[int]:
    """Divisors of n by trial division up to sqrt(n), ascending."""
    small = []
    large = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return small + large


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def first_dwork_failure(values) -> int | None:
    """The first N with L_N != L_{N/p} (mod p^{v_p(N)}) for a prime p | N,
    or None if there is none.

    By Dwork's lemma for big Witt vectors these congruences hold at every
    N up to some index exactly when L_1..L_N is the ghost of integer
    exponents m_1..m_N, so the first failure is where the unghost fails.
    Only ghost values are compared: no exponent and no power of one.
    """
    for n in range(1, len(values) + 1):
        for p in prime_factors(n):
            modulus = p  # grows to p^{v_p(n)}
            while n % (modulus * p) == 0:
                modulus *= p
            if (values[n - 1] - values[n // p - 1]) % modulus:
                return n
    return None


def ghost_by_trial_division(m: ProductExpansion) -> GhostSequence:
    """L_N = sum_{s|N} m_{N/s}^s * (N/s), each N's divisors enumerated."""
    exps = m.exponents
    values = []
    for n in range(1, m.order + 1):
        values.append(sum(exps[n // s - 1] ** s * (n // s) for s in divisors(n)))
    return GhostSequence(tuple(values))


def exponents_by_trial_division(ghost: GhostSequence) -> ProductExpansion:
    """m_N = (L_N - sum_{s|N, s>1} m_{N/s}^s * (N/s)) / N, raising
    NotRealizableError at the first inexact division."""
    exps: list[int] = []
    for n, value in enumerate(ghost.values, start=1):
        acc = sum(exps[n // s - 1] ** s * (n // s) for s in divisors(n) if s > 1)
        quotient, remainder = divmod(value - acc, n)
        if remainder:
            raise NotRealizableError(n, remainder)
        exps.append(quotient)
    return ProductExpansion(tuple(exps))


def inverse_by_series_division(m: ProductExpansion) -> ProductExpansion:
    """Exponents of 1/f: multiply m's product out, take the reciprocal
    series and expand that by partial products."""
    return expand_by_partial_products(reciprocal_by_recurrence(product_to_series(m)))


def family_by_closed_form(d: int, order: int) -> TruncatedSeries:
    """(1-(d+1)x)/(1-dx) = 1 - sum_{n>=1} d^(n-1) x^n to `order`, each
    coefficient from its own power of d."""
    return make_series([1] + [-(d ** (n - 1)) for n in range(1, order + 1)])


def family_by_dense_expansion(d: int, order: int) -> ProductExpansion:
    """Exponents of (1-(d+1)x)/(1-dx): its dense series to `order`,
    expanded by partial products."""
    return expand_by_partial_products(family_by_closed_form(d, order))


def witness_by_dense_expansion(
    d: int, p: int
) -> tuple[ProductExpansion, ProductExpansion]:
    """Exponents m of f = 1 - x - d x^2 and n of 1/f to order 2p, each
    expanded by partial products; n from the dense reciprocal series."""
    f = make_series([1, -1, -d] + [0] * (2 * p - 2))
    return (expand_by_partial_products(f),
            expand_by_partial_products(reciprocal_by_recurrence(f)))


def partitions_by_pentagonal_recurrence(order: int) -> tuple[int, ...]:
    """p(0)..p(order) by the pentagonal-number recurrence

        p(n) = sum_{j>=1} (-1)^(j-1) [ p(n - j(3j-1)/2) + p(n - j(3j+1)/2) ],

    each p(n) summed over the pentagonal numbers up to n."""
    table = [0] * (order + 1)
    table[0] = 1
    for n in range(1, order + 1):
        total = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * table[n - g]
            g += j  # j(3j+1)/2
            if g <= n:
                total += sign * table[n - g]
            j += 1
        table[n] = total
    return tuple(table)


def partitions_by_sparse_division(order: int) -> tuple[int, ...]:
    """p(0)..p(order) as 1 over Euler's pentagonal series
    prod (1 - x^k) = sum_j (-1)^j x^(j(3j-1)/2), one row at a time in the
    series layer's sparse division loop."""
    euler = [0] * (order + 1)
    for j in range(-isqrt(order), isqrt(order) + 1):
        g = j * (3 * j - 1) // 2
        if g <= order:
            euler[g] = -1 if j % 2 else 1
    return tuple(_divide(euler, [1] + [0] * order))
