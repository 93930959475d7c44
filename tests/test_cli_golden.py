"""Byte-exact CLI output for every README example and a few edge cases,
in both formats.

The expected bytes are literals captured from the CLI, so any change to
the records, the emitters or the argument plumbing that alters a single
byte of stdout, stderr or the exit code fails here.
"""

import sys

import pytest

from prodex import congruences, ghost, products
from prodex.cli import main

NOT_REALIZABLE = "prodex: not realizable at N=2, remainder 1\n"
NON_UNIT = "prodex: constant term must be 1, got 2\n"

GOLDEN = [
    ("expand --coeffs 1,-1,-1 --order 6", 0,
     "1 1\n2 1\n3 1\n4 1\n5 2\n6 2\n",
     '{"order": 6, "exponents": ["1", "1", "1", "1", "2", "2"]}\n', ""),
    ("invert --ones --order 8 --tilde", 0,
     "1 1\n2 2\n3 1\n4 4\n5 1\n6 0\n7 1\n8 14\n",
     '{"order": 8, "exponents": ["1", "2", "1", "4", "1", "0", "1", "14"]}\n', ""),
    ("ghost --ones --order 6", 0,
     "1 1\n2 3\n3 4\n4 7\n5 6\n6 12\n",
     '{"order": 6, "values": ["1", "3", "4", "7", "6", "12"]}\n', ""),
    ("unghost --values 1,3,4,7,6,12", 0,
     "1 1\n2 1\n3 1\n4 1\n5 1\n6 1\n",
     '{"order": 6, "exponents": ["1", "1", "1", "1", "1", "1"]}\n', ""),
    ("family --d 1 --order 8 --expand", 0,
     "1 1\n2 1\n3 2\n4 3\n5 6\n6 8\n7 18\n8 27\n",
     '{"order": 8, "exponents": ["1", "1", "2", "3", "6", "8", "18", "27"]}\n', ""),
    ("family --d 0 --order 8 --expand", 0,
     "1 1\n2 0\n3 0\n4 0\n5 0\n6 0\n7 0\n8 0\n",
     '{"order": 8, "exponents": ["1", "0", "0", "0", "0", "0", "0", "0"]}\n', ""),
    ("family --d -1 --order 8 --expand", 0,
     "1 1\n2 -1\n3 0\n4 -1\n5 0\n6 0\n7 0\n8 -1\n",
     '{"order": 8, "exponents": ["1", "-1", "0", "-1", "0", "0", "0", "-1"]}\n', ""),
    ("family --d -3 --order 8 --expand", 0,
     "1 1\n2 -3\n3 6\n4 -21\n5 42\n6 -120\n7 294\n8 -1029\n",
     '{"order": 8, "exponents": ["1", "-3", "6", "-21", "42", "-120", "294", '
     '"-1029"]}\n', ""),
    ("fermat --d 1 --p 3", 0,
     "d 1\np 3\nm_p 1\nm_2p 2\nn_p -1\nn_2p -1\nquotient 2\nidentity OK\n",
     '{"d": "1", "p": "3", "m_p": "1", "m_2p": "2", "n_p": "-1", "n_2p": "-1", '
     '"quotient": "2"}\n', ""),
    ("check --a 10 --p 7", 0,
     "a 10\np 7\nok true\n",
     '{"a": "10", "p": "7", "ok": true}\n', ""),
    ("wieferich --from 2 --to 10000", 0,
     "lo 2\nhi 10000\nprimes_tested 1229\nhit 1093\nhit 3511\n",
     '{"lo": 2, "hi": 10000, "primes_tested": 1229, "hits": [1093, 3511]}\n', ""),
    ("partitions --order 10 --via-product", 0,
     "0 1 1\n1 1 1\n2 2 2\n3 3 3\n4 5 5\n5 7 7\n6 11 11\n7 15 15\n8 22 22\n"
     "9 30 30\n10 42 42\nequal true\n",
     '{"order": 10, "values": ["1", "1", "2", "3", "5", "7", "11", "15", "22", '
     '"30", "42"], "via_product": ["1", "1", "2", "3", "5", "7", "11", "15", '
     '"22", "30", "42"], "equal": true}\n', ""),
    ("unghost --values 1,2", 2, "", "", NOT_REALIZABLE),
    ("expand --coeffs 2,1", 2, "", "", NON_UNIT),
]


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("command, code, plain, json_out, err", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_cli_bytes(capsys, command, code, plain, json_out, err, fmt):
    argv = command.split() + (["--format", "json"] if fmt == "json" else [])
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == (plain if fmt == "plain" else json_out)
    assert captured.err == err


WITNESS_ROWS = [row for row in GOLDEN if row[0].split()[0] in ("fermat", "check")]


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("command, code, plain, json_out, err", WITNESS_ROWS,
                         ids=[row[0] for row in WITNESS_ROWS])
def test_witness_bytes_come_from_the_divisors_of_2p(
        monkeypatch, capsys, command, code, plain, json_out, err, fmt):
    # the index-2p identity reads exponents 1, 2, p and 2p of f and of 1/f:
    # every binding of the full expansion and the full unghost raises, and
    # each solve of the witness must be given those four indices only
    full = {products.expand_to_product, ghost.exponents_from_ghost}

    def forbidden(*args, **kwargs):
        raise AssertionError("full expansion on the witness route")

    for name, module in list(sys.modules.items()):
        if name == "prodex" or name.startswith("prodex."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in full:
                    monkeypatch.setattr(module, attr, forbidden)
    solve = congruences._solve_divisors
    solved = []

    def recording(ghost):
        solved.append(set(ghost))
        return solve(ghost)

    monkeypatch.setattr(congruences, "_solve_divisors", recording)
    congruences._witness.cache_clear()
    argv = command.split() + (["--format", "json"] if fmt == "json" else [])
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == (plain if fmt == "plain" else json_out)
    assert captured.err == err
    p = int(argv[argv.index("--p") + 1])
    assert solved
    assert all(indices == {1, 2, p, 2 * p} for indices in solved)
