"""Divisor-sum transform between exponent sequences and ghost sequences.

"Ghost sequence" is this package's name for the coefficients L_N of
-x (ln f)'.  Expanding the logarithmic derivative of prod (1 - m_k x^k)
factor by factor gives

    L_N = sum over divisors s of N of  m_{N/s}^s * (N/s),

which is the ghost map of big Witt vectors.  Both directions run on one
table-free kernel, _divisor_sums, and exponents_from_ghost inverts it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import NotRealizableError
from .series import GhostSequence, ProductExpansion, _require_same_order

__all__ = [
    "GhostSequence",
    "ghost_from_exponents",
    "exponents_from_ghost",
    "verify_reciprocal_identity",
]


def _divisor_sums(exps: Sequence[int], order: int) -> Iterator[int]:
    """Yield sum_{s|N, s>1} (N/s) * m_{N/s}^s for N = 1..order, where
    exps[q-1] holds m_q.

    N runs in blocks [lo, 2 lo).  Every proper divisor of an N in a block
    is below lo, so a block reads only m_1..m_{lo-1}, and a caller solving
    for the exponents may store m_N in exps after taking N's sum.  Each
    block pushes q * m_q^s to the multiples q*s it holds, the power built
    one multiplication per step.  Work and memory end with the block that
    holds the index where the caller stops, below twice that index, so an
    unrealizable ghost that fails early never pays for powers far past it.
    """
    lo = 1
    while lo <= order:
        hi = min(2 * lo, order + 1)
        sums = [0] * (hi - lo)
        for q in range(1, (hi - 1) // 2 + 1):
            mq = exps[q - 1]
            if mq:
                s = max(2, -(-lo // q))  # first multiple q*s in the block
                term = q * mq ** (s - 1)
                for j in range(q * s - lo, hi - lo, q):
                    term *= mq
                    sums[j] += term
        yield from sums
        lo = hi


def ghost_from_exponents(m: ProductExpansion) -> GhostSequence:
    """L_N = sum_{s|N} m_{N/s}^s * (N/s) for N = 1..order."""
    exps = m.exponents
    return GhostSequence(tuple(
        partial + n * exps[n - 1]
        for n, partial in enumerate(_divisor_sums(exps, m.order), start=1)
    ))


def exponents_from_ghost(ghost: GhostSequence) -> ProductExpansion:
    """Solve m_1..m_N, increasing N.  Only the s = 1 term holds m_N, as N * m_N:

        m_N = (L_N - sum_{s|N, s>1} m_{N/s}^s * (N/s)) / N.

    A nonzero remainder means no integer exponent sequence has this ghost,
    and NotRealizableError reports the failing index and remainder."""
    exps = [0] * ghost.order
    sums = _divisor_sums(exps, ghost.order)
    for n, (value, partial) in enumerate(zip(ghost.values, sums), start=1):
        mn, remainder = divmod(value - partial, n)
        if remainder:
            raise NotRealizableError(n, remainder)
        exps[n - 1] = mn
    del sums  # frees the kernel's last block of partial sums before the tuple copy
    return ProductExpansion(tuple(exps))


def _solve_divisors(ghost: dict[int, int]) -> dict[int, int]:
    """exponents_from_ghost's solve at only the keys of `ghost`, a set closed
    under divisors, each m_N in increasing N over the keys q dividing N."""
    exps: dict[int, int] = {}
    for n in sorted(ghost):
        partial = sum(q * mq ** (n // q) for q, mq in exps.items() if n % q == 0)
        mn, remainder = divmod(ghost[n] - partial, n)
        if remainder:
            raise NotRealizableError(n, remainder)
        exps[n] = mn
    return exps


def verify_reciprocal_identity(m: ProductExpansion, n: ProductExpansion) -> list[bool]:
    """Check, index by index, that m's ghost is the negation of n's.

    All entries are true exactly when the two products multiply to 1
    through the truncation order.
    """
    _require_same_order(m, n)
    gm = ghost_from_exponents(m).values
    gn = ghost_from_exponents(n).values
    return [a == -b for a, b in zip(gm, gn)]
