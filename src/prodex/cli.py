"""The `prodex` command line tool.

Every subcommand is a thin wrapper over one library operation, with exact
text or JSON output.  Big integers in JSON are decimal strings, except in
`wieferich` output: its lo, hi, primes_tested and hits are JSON numbers,
and windows reach 2^62, past the 2^53 that a double holds exactly.  Plain
output is one index-prefixed value per line, stable for diffing.

Exit codes: 0 success, 1 usage or parse error, 2 mathematical failure
(non-realizable ghost, non-unit constant term, non-prime argument,
identity violation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import errors
from .congruences import (
    _family_exponents,
    fermat_check,
    fermat_witness,
    partition_numbers,
    rational_family_series,
    wieferich_scan,
)
from .ghost import exponents_from_ghost, ghost_from_exponents
from .products import (
    ProductExpansion,
    expand_to_product,
    inverse_sequence,
    product_to_series,
    tilde_transform,
)
from .series import GhostSequence, TruncatedSeries, _parse_int, _Record

BUILTIN_DEFAULT_ORDER = 64
ORDER_ENV_VAR = "PRODEX_DEFAULT_ORDER"

# entries per write of a sequence record: bounds the text held at once
_CHUNK = 4096

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

# every error type the library defines is a mathematical failure
_MATH_ERRORS = tuple(getattr(errors, name) for name in errors.__all__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message: str):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# input and output plumbing


def _load_input_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; deep
        # nesting exhausts the decoder's recursion
        raise _UsageError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _UsageError(f"{path}: expected a JSON object")
    return data


def _effective_order(args, intrinsic: int | None) -> int:
    """--order, else the input's own order, else the default, so only a
    command that falls back to the default reads PRODEX_DEFAULT_ORDER."""
    if args.order is not None:
        return args.order
    if intrinsic is not None:
        return intrinsic
    try:
        return _int_flag(1)(os.environ.get(ORDER_ENV_VAR, str(BUILTIN_DEFAULT_ORDER)))
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{ORDER_ENV_VAR}: {exc}") from None


def _read_record(args, kind: type[_Record]) -> _Record:
    """The input record from --<FIELD>, --input or --ones, zero-padded or
    truncated to the effective order.  An inline list is read as the JSON
    record {FIELD: [items]}, so both sources share one parser."""
    inline = getattr(args, kind.FIELD)
    ones = getattr(args, "ones", False)
    flags = [f"--{kind.FIELD}", "--input"] + (["--ones"] if "ones" in args else [])
    given = (inline is not None) + (args.input is not None) + ones
    if given > 1:
        raise _UsageError("give only one of " + ", ".join(flags))
    if not given:
        raise _UsageError(f"{kind.FIELD} required: one of " + ", ".join(flags))
    if ones:
        return kind((1,) * _effective_order(args, intrinsic=None))
    if inline is not None:
        source = f"--{kind.FIELD}"
        data = {kind.FIELD: [item.strip() for item in inline.split(",")]}
    else:
        source, data = args.input, _load_input_file(args.input)
    try:
        # the list is this call's own, so it is parsed in place
        values = kind._json_values(data, in_place=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{source}: bad {kind.FIELD} record: {exc}") from None
    length = _effective_order(args, len(values) + kind.START - 1) + 1 - kind.START
    values[length:] = [0] * (length - len(values))  # truncated or zero-padded
    return kind(tuple(values))


def _print(fields: dict, fmt: str, plain: str) -> None:
    """Print a JSON dict, or its `plain` text."""
    print(json.dumps(fields) if fmt == "json" else plain)


def _emit(record: _Record, fmt: str) -> None:
    """The bytes of print(json.dumps(record.to_json_dict())) or
    print(record.to_plain()), written _CHUNK entries at a time."""
    values, write = record[0], sys.stdout.write  # per call: redirect_stdout swaps it
    sep, end = ('", "', '"]}\n') if fmt == "json" else ("\n", "\n")
    if fmt == "json":
        write(f'{{"order": {record.order}, "{record.FIELD}": ["')
    # two writes per chunk, as print makes: text + sep would copy the chunk
    for lo in range(0, len(values), _CHUNK):
        write(sep.join(map(str, values[lo : lo + _CHUNK])) if fmt == "json"
              else record._plain_lines(lo, lo + _CHUNK))
        write(sep if lo + _CHUNK < len(values) else end)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sequence(args) -> int:
    result = args.operation(_read_record(args, args.kind))
    if getattr(args, "tilde", False):
        result = tilde_transform(result)
    _emit(result, args.format)
    return EXIT_OK


def _cmd_family(args) -> int:
    order = _effective_order(args, intrinsic=None)
    build = _family_exponents if args.expand else rational_family_series
    _emit(build(args.d, order), args.format)
    return EXIT_OK


def _cmd_fermat(args) -> int:
    fields = fermat_witness(args.d, args.p).to_json_dict()
    lines = [f"{k} {v}" for k, v in fields.items()] + ["identity OK"]
    _print(fields, args.format, "\n".join(lines))
    return EXIT_OK


def _cmd_check(args) -> int:
    ok = fermat_check(args.a, args.p)
    _print({"a": str(args.a), "p": str(args.p), "ok": ok}, args.format,
           f"a {args.a}\np {args.p}\nok {'true' if ok else 'false'}")
    return EXIT_OK if ok else EXIT_MATH


def _cmd_wieferich(args) -> int:
    fields = wieferich_scan(args.lo, args.hi, threads=args.threads).to_json_dict()
    lines = [f"{k} {v}" for k, v in fields.items() if k != "hits"]
    _print(fields, args.format, "\n".join(lines + [f"hit {p}" for p in fields["hits"]]))
    return EXIT_OK


def _cmd_partitions(args) -> int:
    order = _effective_order(args, intrinsic=None)
    table = partition_numbers(order)
    if not args.via_product:
        _emit(table, args.format)
        return EXIT_OK

    # reconstruction through the product machinery: the inverse sequence of
    # the all-ones exponents, multiplied back out, must regenerate p(n)
    if order < 1:
        raise _UsageError("--via-product needs order >= 1")
    ones = ProductExpansion((1,) * order)
    via = product_to_series(inverse_sequence(ones))
    equal = via.coeffs == table.values
    lines = [f"{k} {a} {b}" + ("" if a == b else "  DIFFERS")
             for k, (a, b) in enumerate(zip(table.values, via.coeffs))]
    _print({**table.to_json_dict(), "via_product": [str(c) for c in via.coeffs],
            "equal": equal}, args.format,
           "\n".join(lines + [f"equal {'true' if equal else 'false'}"]))
    return EXIT_OK if equal else EXIT_MATH


# ---------------------------------------------------------------------------
# parser


def _int_flag(minimum: int | None = None):
    """argparse type: a strict decimal integer, at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = _parse_int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _threads_flag(text: str) -> int:
    """argparse type for --threads: 'auto' (one worker per CPU) or an
    integer >= 1."""
    if text == "auto":
        return os.cpu_count() or 1
    try:
        return _int_flag(1)(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1 or 'auto', got {text!r}") from None


_INLINE_HELP = {"coeffs": "c_0,c_1,...", "exponents": "m_1,m_2,...",
                "values": "L_1,L_2,..."}


def _build_parser() -> _Parser:
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--format", choices=("plain", "json"), default="plain",
                      help="output format (default plain)")

    ordered = argparse.ArgumentParser(add_help=False, parents=[base])
    ordered.add_argument("--order", type=_int_flag(1), default=None,
                         help=f"truncation order (default: input length, "
                              f"else {ORDER_ENV_VAR} or {BUILTIN_DEFAULT_ORDER})")

    parser = _Parser(prog="prodex",
                     description="exact product expansions of integer power "
                                 "series and their congruences")
    sub = parser.add_subparsers(dest="command", required=True)

    # name -> (input record, operation, help).  Built on each call rather
    # than at import, so it binds the module's functions as they are now
    # (a tracer may have wrapped them).
    sequence_commands = {
        "expand": (TruncatedSeries, expand_to_product,
                   "series coefficients -> product exponents"),
        "series": (ProductExpansion, product_to_series,
                   "product exponents -> series coefficients"),
        "invert": (ProductExpansion, inverse_sequence,
                   "exponents -> inverse sequence (1/f)"),
        "ghost": (ProductExpansion, ghost_from_exponents,
                  "exponents -> divisor-sum (ghost) values"),
        "unghost": (GhostSequence, exponents_from_ghost,
                    "ghost values -> exponents (exact solve)"),
    }
    for name, (kind, operation, text) in sequence_commands.items():
        p = sub.add_parser(name, parents=[ordered], help=text)
        p.add_argument(f"--{kind.FIELD}",
                       help=f"comma-separated {_INLINE_HELP[kind.FIELD]}")
        p.add_argument("--input", help=f"JSON file {{order, {kind.FIELD}}}")
        if kind is ProductExpansion:
            p.add_argument("--ones", action="store_true",
                           help="use the all-ones exponent sequence")
        if name == "invert":
            p.add_argument("--tilde", action="store_true",
                           help="negate the result (the 1+e_k x^k convention)")
        p.set_defaults(handler=_cmd_sequence, kind=kind, operation=operation)

    p = sub.add_parser("family", parents=[ordered],
                       help="the rational family (1-(d+1)x)/(1-dx)")
    p.add_argument("--d", type=_int_flag(), required=True)
    p.add_argument("--expand", action="store_true",
                   help="print the product exponents instead of the series")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("fermat", parents=[base],
                       help="index-2p identity witness and Fermat quotient")
    p.add_argument("--d", type=_int_flag(1), required=True)
    p.add_argument("--p", type=_int_flag(), required=True, help="an odd prime")
    p.set_defaults(handler=_cmd_fermat)

    p = sub.add_parser("check", parents=[base],
                       help="verify p | a^p - a by two routes")
    p.add_argument("--a", type=_int_flag(1), required=True)
    p.add_argument("--p", type=_int_flag(), required=True, help="a prime")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("wieferich", parents=[base],
                       help="scan a prime range for 2^(p-1) = 1 mod p^2")
    p.add_argument("--threads", type=_threads_flag, default=1,
                   help="worker count for the scanner: a number or 'auto'")
    p.add_argument("--from", dest="lo", type=_int_flag(), required=True)
    p.add_argument("--to", dest="hi", type=_int_flag(), required=True)
    p.set_defaults(handler=_cmd_wieferich)

    p = sub.add_parser("partitions", parents=[base],
                       help="partition numbers p(0)..p(order)")
    p.add_argument("--order", type=_int_flag(0), default=None,
                   help="largest n to tabulate (default "
                        f"{ORDER_ENV_VAR} or {BUILTIN_DEFAULT_ORDER})")
    p.add_argument("--via-product", action="store_true",
                   help="also rebuild the table through the product "
                        "machinery and diff the two")
    p.set_defaults(handler=_cmd_partitions)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact answers of any size must print and parse; 3.10 before 3.10.7
    # has neither the limit nor this switch
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _MATH_ERRORS as exc:
        print(f"prodex: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (_UsageError, ValueError, OverflowError, MemoryError) as exc:
        # ValueError: a domain violation on well-formed flags (d < 1, bad
        # range); OverflowError: an order too large to index a list;
        # MemoryError, whose text is empty: one too large to allocate
        print(f"prodex: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
