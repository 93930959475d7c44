"""Reading a sequence record: an --input file or an inline list is parsed
in place into one record, faults are reported in a fixed order with the
same bytes from both sources, and the public from_json_dict leaves its
argument as it was."""

import copy
import json
import random
import tracemalloc

import pytest

from prodex import GhostSequence, ProductExpansion, TruncatedSeries
from prodex.cli import _build_parser, _read_record, main
from prodex.congruences import PartitionTable
from prodex.ghost import ghost_from_exponents

FIELDS = {"expand": "coeffs", "series": "exponents", "invert": "exponents",
          "ghost": "exponents", "unghost": "values"}


def _case(case_id, argv, record, file_err, inline=None, inline_err=None):
    return pytest.param(argv, record, file_err, inline, inline_err, id=case_id)


# Every record has more than one fault; the message names the first fault
# in the order: a list, its first bad item, at least one value (before any
# padding to --order), the order field.
@pytest.mark.parametrize("argv, record, file_err, inline, inline_err", [
    _case("not-a-list-and-bad-order", ["unghost"],
          {"order": "x", "values": "1,2"},
          "bad values record: values must be a JSON list\n"),
    _case("object-field-and-mismatched-order", ["expand"],
          {"order": 9, "coeffs": {"0": "1"}},
          "bad coeffs record: coeffs must be a JSON list\n"),
    _case("empty-list-with-order-flag", ["unghost", "--order", "5"],
          {"values": []},
          "bad values record: GhostSequence needs at least one value\n",
          "", "prodex: error: --values: bad values record: "
              "expected a decimal integer, got ''\n"),
    _case("empty-list-with-order-field", ["expand"],
          {"order": 3, "coeffs": []},
          "bad coeffs record: TruncatedSeries needs at least one value\n",
          "", "prodex: error: --coeffs: bad coeffs record: "
              "expected a decimal integer, got ''\n"),
    _case("bad-item-and-mismatched-order", ["ghost", "--order", "7"],
          {"order": 7, "exponents": ["1", "x", "3"]},
          "bad exponents record: expected a decimal integer, got 'x'\n",
          "1,x,3", "prodex: error: --exponents: bad exponents record: "
                   "expected a decimal integer, got 'x'\n"),
    _case("bad-first-and-last-items", ["expand"],
          {"coeffs": ["+1", "2", "y"]},
          "bad coeffs record: expected a decimal integer, got '+1'\n",
          "+1,2,y", "prodex: error: --coeffs: bad coeffs record: "
                    "expected a decimal integer, got '+1'\n"),
    _case("bad-last-item-and-bad-order", ["series"],
          {"order": "z", "exponents": ["1", "2", "３"]},
          "bad exponents record: expected a decimal integer, got '３'\n",
          "1,2,３", "prodex: error: --exponents: bad exponents record: "
                        "expected a decimal integer, got '３'\n"),
    _case("bad-order-field-after-good-items", ["unghost", "--order", "2"],
          {"order": "1_0", "values": ["1", "2"]},
          "bad values record: expected a decimal integer, got '1_0'\n"),
    _case("mismatched-order-with-order-flag", ["unghost", "--order", "9"],
          {"order": 5, "values": ["1", "2"]},
          "bad values record: order field 5 does not match 2 values\n"),
    _case("missing-field-and-bad-order", ["invert"],
          {"order": "q", "coeffs": ["1"]},
          "bad exponents record: 'exponents'\n"),
])
def test_first_fault_is_reported_with_pinned_bytes(tmp_path, capsys, argv, record,
                                                    file_err, inline, inline_err):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(record))
    assert main(argv + ["--input", str(path)]) == 1
    assert capsys.readouterr() == ("", f"prodex: error: {path}: {file_err}")
    if inline is not None:
        assert main(argv + [f"--{FIELDS[argv[0]]}={inline}"]) == 1
        assert capsys.readouterr() == ("", inline_err)


@pytest.mark.parametrize("kind", [TruncatedSeries, ProductExpansion, GhostSequence,
                                  PartitionTable], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("items, order", [
    (["1", "-2", "30"], None), (["1", "-2", "30"], "4"), (["1", "x"], None), ([], 0),
], ids=["valid", "mismatched-order", "bad-item", "empty"])
def test_from_json_dict_leaves_its_argument_unchanged(kind, items, order):
    data = {kind.FIELD: items} if order is None else {"order": order, kind.FIELD: items}
    before = copy.deepcopy(data)
    try:
        kind.from_json_dict(data)
    except ValueError:
        pass
    assert data == before
    assert all(type(a) is type(b) for a, b in zip(data[kind.FIELD], before[kind.FIELD]))


def test_reading_a_record_holds_one_copy_of_its_values(tmp_path):
    # the shape of the largest unghost input of the invert-ghost benchmark:
    # the ghost of 10^5 random exponents in [-1, 1], as decimal strings
    rng = random.Random(1)
    ghost = ghost_from_exponents(
        ProductExpansion(tuple(rng.randint(-1, 1) for _ in range(10**5))))
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(ghost.to_json_dict()))
    args = _build_parser().parse_args(["unghost", "--input", str(path)])
    tracemalloc.start()
    try:
        record = _read_record(args, GhostSequence)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record == ghost
    # the decoded text, one str per value and the list are alive at once;
    # a second full sequence of the values beside them reads about 9.7 MB
    assert peak < 7.5e6, peak
