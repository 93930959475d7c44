"""Exact truncated power series over Python's arbitrary-precision integers.

A series is a fixed-order object: every operation works mod x^(N+1) where N
is the truncation order.  Coefficients are plain ints, never floats, so all
arithmetic is exact no matter how large the values grow.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import filterfalse

from .errors import NonUnitConstantError, OrderMismatchError

__all__ = [
    "TruncatedSeries",
    "GhostSequence",
    "ProductExpansion",
    "make_series",
    "truncate",
    "mul",
    "reciprocal",
    "derivative",
    "neg_x_log_derivative",
]


class _Value:
    """Equality and hash for the package's records, which are named tuples.
    A record equals only a record of its own type: as a bare tuple it would
    also equal a plain tuple, or a record of another type, with the same
    values."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):  # else tuple's own != would answer
        return not self == other

    __hash__ = tuple.__hash__


class _Record(_Value):
    """An exact integer sequence whose first entry has index START, held as
    a tuple, of whatever iterable it is given, in its one field, FIELD.

    This one base gives every sequence record its validation, its order
    (the index of the last entry), its JSON form and its plain "k v" lines.
    """

    __slots__ = ()
    START = 0

    def __init_subclass__(cls):
        cls.FIELD = cls._fields[0]

    def __new__(cls, *args, **kwargs):
        values = tuple(super().__new__(cls, *args, **kwargs)[0])
        cls._require_values(values)
        for v in filterfalse(_is_int, values):
            raise TypeError(f"{cls.FIELD} must be ints, got {type(v).__name__}: {v!r}")
        return super().__new__(cls, values)

    @classmethod
    def _require_values(cls, values) -> None:
        if len(values) == 0:
            raise ValueError(f"{cls.__name__} needs at least one value")

    @classmethod
    def _make(cls, iterable) -> "_Record":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def order(self) -> int:
        return len(self[0]) + self.START - 1

    def to_json_dict(self) -> dict:
        """JSON form {"order": N, FIELD: [...]} with values as decimal
        strings, so no consumer can lose precision on big values."""
        return {"order": self.order, self.FIELD: [str(v) for v in self[0]]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "_Record":
        return cls(cls._json_values(data, in_place=False))

    @classmethod
    def _json_values(cls, data: dict, in_place: bool) -> list[int]:
        """data[FIELD] as ints, checked in order: a list, its first bad item,
        at least one value, data's order field.  in_place parses data's own
        list, so each decoded str is freed as its int is made."""
        raw = data[cls.FIELD]
        if not isinstance(raw, list):
            raise TypeError(f"{cls.FIELD} must be a JSON list")
        values = raw if in_place else raw[:]
        for i, item in enumerate(values):
            values[i] = _parse_int(item)
        cls._require_values(values)
        if "order" in data and _parse_int(data["order"]) != len(values) + cls.START - 1:
            raise ValueError(f"order field {data['order']} does not match "
                             f"{len(values)} {cls.FIELD}")
        return values

    def to_plain(self) -> str:
        """One "index value" line per entry, indices starting at START."""
        return self._plain_lines(0, len(self[0]))

    def _plain_lines(self, lo: int, hi: int) -> str:
        """The lines of the entries at positions lo..hi-1: the one plain rule."""
        entries = enumerate(self[0][lo:hi], lo + self.START)
        return "\n".join(f"{k} {v}" for k, v in entries)


class TruncatedSeries(_Record, namedtuple("TruncatedSeries", "coeffs")):
    """c_0 + c_1 x + ... + c_N x^N, exact mod x^(N+1).

    Immutable; all operations return new values, so instances are safe to
    share between threads.
    """

    __slots__ = ()


class GhostSequence(_Record, namedtuple("GhostSequence", "values")):
    """Divisor-sum values L_1..L_N: the coefficients of -x (ln f)'.

    For f = prod (1 - m_k x^k), L_N = sum over divisors s of N of
    m_{N/s}^s * (N/s).  Index 1-based: values[0] is L_1.
    """

    __slots__ = ()
    START = 1

    def negated(self) -> "GhostSequence":
        return GhostSequence(-v for v in self.values)


class ProductExpansion(_Record, namedtuple("ProductExpansion", "exponents")):
    """Exponent sequence m_1..m_N with semantics
    f == prod_{k=1}^{N} (1 - m_k x^k)  mod x^(N+1).

    Indexing is 1-based everywhere a human sees it (docs, JSON, CLI output);
    internally exponents[k-1] holds m_k.
    """

    __slots__ = ()
    START = 1


def _is_int(value) -> bool:
    """The one value rule of record entries and parsed input: an exact int."""
    return type(value) is int


def _parse_int(value) -> int:
    """The one integer parser for outside input: an exact int (no bool or
    other subclass, which need not print as its value), or an ASCII decimal
    string -?[0-9]+.  int() alone would also take floats, bools, "+1", " 1",
    "1_0" and digits of other scripts, which isdigit() accepts too unless
    the string is ASCII."""
    if _is_int(value):
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(f"expected a decimal integer, got {value!r}")


def make_series(coeffs: Iterable[int]) -> TruncatedSeries:
    """Build a series from c_0..c_N, any iterable of ints; the order is N."""
    return TruncatedSeries(coeffs)


def truncate(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Re-truncate to a smaller (or equal) order."""
    if order < 0 or order > f.order:
        raise OrderMismatchError(
            f"cannot truncate order-{f.order} series to order {order}"
        )
    return TruncatedSeries(f.coeffs[: order + 1])


def _require_same_order(a: _Record, b: _Record) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} vs {b.order}")


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated product: coefficient k is sum_{i+j=k} a_i b_j, k <= N.

    Schoolbook convolution; exact at any coefficient size.
    """
    _require_same_order(a, b)
    n = a.order
    out = [0] * (n + 1)
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * bc[j]
    return TruncatedSeries(out)


def reciprocal(f: TruncatedSeries) -> TruncatedSeries:
    """1/f mod x^(N+1).  Needs c_0 = +1 or -1, which guarantees every
    coefficient of the reciprocal is an integer."""
    c = f.coeffs
    c0 = c[0]
    if c0 not in (1, -1):
        raise NonUnitConstantError(f"constant term must be +1 or -1, got {c0}")
    return TruncatedSeries(_divide(c, [1] + [0] * f.order))


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative at the same order.  The top coefficient of the
    result is unknowable from a truncation, so it is set to 0."""
    n = f.order
    c = f.coeffs
    out = [(k + 1) * c[k + 1] for k in range(n)]
    out.append(0)
    return TruncatedSeries(out)


def neg_x_log_derivative(f: TruncatedSeries) -> GhostSequence:
    """L_1..L_N with sum L_N x^N = -x f'(x)/f(x) mod x^(N+1).

    Newton's identity: L * f = -x f' is solved by the same division as
    1/f, with right-hand side -n c_n, so a series with k nonzero terms
    costs O(N k) coefficient operations.
    """
    c = f.coeffs
    if c[0] != 1:
        raise NonUnitConstantError(f"constant term must be 1, got {c[0]}")
    if f.order < 1:
        raise ValueError("need order >= 1 to produce a ghost sequence")
    return GhostSequence(_divide(c, [-n * cn for n, cn in enumerate(c)])[1:])


def _divide(c: tuple[int, ...], rhs: list[int]) -> list[int]:
    """y_0..y_N with f * y = rhs mod x^(N+1), where f has coefficients c
    and c_0 = +1 or -1.  Comparing x^n coefficients gives

        y_n = c_0 (rhs_n - sum_{0<i<=n} c_i y_{n-i}),

    summed over the nonzero c_i only (the classical power-series route;
    Brent and Kung, "Fast algorithms for manipulating formal power
    series", 1978).  The i = n term matters when y_0 != 0, as for 1/f.
    """
    c0 = c[0]
    y: list[int] = []
    terms: list[tuple[int, int]] = []  # (i, c_i) for the nonzero c_i, 0 < i <= n
    for n, acc in enumerate(rhs):
        if n and c[n]:
            terms.append((n, c[n]))
        for i, ci in terms:
            acc -= ci * y[n - i]
        y.append(acc if c0 == 1 else -acc)
    return y
