"""Unique expansion of a unit integer series into prod_k (1 - m_k x^k).

Expansion goes through the ghost sequence, the coefficients of
-x (ln f)': the logarithmic derivative turns the product into the sum of
its factors' ghosts, so f's exponents are the inverse divisor-sum
transform of f's log-derivative.  The exponents of 1/f come from the
negated ghost, so 1/f is never formed as a series.  Multiplying a product
back out (exponents -> series) is a direct O(N^2) loop.
"""

from __future__ import annotations

from .ghost import exponents_from_ghost, ghost_from_exponents
from .series import ProductExpansion, TruncatedSeries, neg_x_log_derivative

__all__ = [
    "ProductExpansion",
    "expand_to_product",
    "product_to_series",
    "inverse_sequence",
    "tilde_transform",
]


def expand_to_product(f: TruncatedSeries) -> ProductExpansion:
    """Expand a unit series (c_0 = 1) into its product exponents.

    The exponents exist and are unique integers; they are read off f's
    ghost sequence by solving the divisor-sum relation index by index.
    The log-derivative checks c_0 = 1 and order >= 1.
    """
    return exponents_from_ghost(neg_x_log_derivative(f))


def product_to_series(m: ProductExpansion) -> TruncatedSeries:
    """Multiply out prod (1 - m_k x^k) mod x^(N+1)."""
    n = m.order
    out = [1] + [0] * n
    for k, mk in enumerate(m.exponents, start=1):
        if mk:
            for j in range(n, k - 1, -1):
                out[j] -= mk * out[j - k]
    return TruncatedSeries(tuple(out))


def inverse_sequence(m: ProductExpansion) -> ProductExpansion:
    """The exponent sequence n of 1/f, where f is m's product.

    The ghost of 1/f is the negation of f's, since -x (ln 1/f)' =
    x (ln f)'.  The two products multiply to 1 mod x^(N+1), and applying
    this twice returns the original sequence: sequences pair up.
    """
    return exponents_from_ghost(ghost_from_exponents(m).negated())


def tilde_transform(m: ProductExpansion) -> ProductExpansion:
    """Elementwise negation; flips the factor convention to (1 + m_k x^k)."""
    return ProductExpansion(tuple(-e for e in m.exponents))
