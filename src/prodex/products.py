"""Unique expansion of a unit integer series into prod_k (1 - m_k x^k).

The expansion is inductive: once m_1..m_{k-1} are fixed, the partial
product already matches f through x^(k-1), and exactly one integer choice
of m_k extends the match through x^k.  Both directions (series -> exponents
and exponents -> series) are O(N^2) coefficient operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonUnitConstantError
from .series import TruncatedSeries, _Record, reciprocal

__all__ = [
    "ProductExpansion",
    "expand_to_product",
    "product_to_series",
    "inverse_sequence",
    "tilde_transform",
]


@dataclass(frozen=True)
class ProductExpansion(_Record):
    """Exponent sequence m_1..m_N with semantics
    f == prod_{k=1}^{N} (1 - m_k x^k)  mod x^(N+1).

    Indexing is 1-based everywhere a human sees it (docs, JSON, CLI output);
    internally exponents[k-1] holds m_k.
    """

    FIELD = "exponents"
    START = 1
    exponents: tuple[int, ...]


def expand_to_product(f: TruncatedSeries) -> ProductExpansion:
    """Expand a unit series (c_0 = 1) into its product exponents.

    At step k the partial product carries some integer C at x^k while f
    carries c_k; multiplying in (1 - m_k x^k) changes the x^k coefficient
    by -m_k, so m_k = C - c_k is forced.  The partial product is updated
    in place: P <- P - m_k x^k P, truncated.
    """
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

    The two products multiply to 1 mod x^(N+1), and applying this twice
    returns the original sequence: sequences pair up.
    """
    return expand_to_product(reciprocal(product_to_series(m)))


def tilde_transform(m: ProductExpansion) -> ProductExpansion:
    """Elementwise negation; flips the factor convention to (1 + m_k x^k)."""
    return ProductExpansion(tuple(-e for e in m.exponents))
