"""Fuzz the command line: whatever argv, input file or default-order
setting it gets, `prodex` exits 0, 1 or 2, and every failure is a
"prodex:" message, never a traceback.

Costs stay bounded by the drawn values: orders up to 40, p up to 60,
a up to 6 and wieferich ranges up to 10^4 (one scanner block, so no
process pool starts).
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodex.cli import main

MALFORMED = st.sampled_from(
    ["", "x", "1_0", "+3", " 3", "2.5", "٣", "-", "1e3", "0x10", "auto"]
)


def mostly(good, bad, odds=9):
    """Draws from `good` `odds` times as often as from `bad`, so that many
    draws get past parsing and run."""
    return st.integers(0, odds).flatmap(lambda k: bad if k == 0 else good)


def ints(lo, hi):
    """A decimal integer in [lo, hi] or a string that is not one."""
    return mostly(st.integers(lo, hi).map(str), MALFORMED)


# small values keep c_0 = +-1 and realizable ghosts common
VALUES = st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))


def inline_list():
    items = mostly(VALUES.map(str), MALFORMED, odds=40)
    return st.lists(items, min_size=1, max_size=41).map(",".join)


# JSON values of the wrong kind, small enough to be cheap anywhere
ODD_VALUES = st.sampled_from([True, False, None, 2.5, "", "1_0", [], {}, [1]])
ENTRIES = mostly(st.one_of(VALUES, VALUES.map(str)), ODD_VALUES, odds=40)


@st.composite
def records(draw):
    """Bytes of an --input file: a small record, maybe wrong, or not JSON."""
    record = {}
    for field in draw(st.sets(st.sampled_from(["coeffs", "exponents", "values"]))):
        record[field] = draw(mostly(st.lists(ENTRIES, max_size=41), ODD_VALUES))
    if draw(st.booleans()):
        # a drawn order rarely matches the list, and a mismatch is an error
        record["order"] = draw(st.one_of(st.integers(-2, 40), ODD_VALUES,
                                         st.integers(-2, 40).map(str)))
    text = json.dumps(draw(mostly(st.just(record), st.one_of(
        ODD_VALUES, st.lists(st.integers(), max_size=3)))))
    return draw(mostly(st.just(text.encode()), st.sampled_from([
        text[: len(text) // 2].encode(),
        b'{"coeffs": ["1", "\xe9"]}',
        b'{"coeffs": ' + b"[" * 200_000,
    ]), odds=3))


SWITCHES = ["--ones", "--tilde", "--expand", "--via-product"]

# every flag that takes a value; any flag may be drawn for any subcommand,
# so flags on the wrong one (--threads off wieferich, --order on fermat,
# check and wieferich) are drawn too
VALUED = {
    "--format": st.sampled_from(["plain", "json", "xml"]),
    "--order": ints(-2, 40),
    "--threads": st.one_of(ints(-1, 4), st.just("auto")),
    "--coeffs": inline_list(),
    "--exponents": inline_list(),
    "--values": inline_list(),
    "--input": st.just("INPUT"),
    "--d": ints(-1, 6),
    "--p": st.one_of(st.sampled_from(["3", "5", "7", "11", "13", "31", "59"]),
                     ints(-3, 60)),
    "--a": ints(-1, 6),
    "--from": ints(-5, 10**4),
    "--to": ints(-5, 10**4),
}

# the flags each subcommand reads, in groups of which one flag is drawn,
# so that many draws run
OWN = {
    "expand": [["--coeffs", "--input"], ["--order"]],
    "series": [["--exponents", "--input", "--ones"], ["--order"]],
    "invert": [["--exponents", "--input", "--ones"], ["--order"], ["--tilde"]],
    "ghost": [["--exponents", "--input", "--ones"], ["--order"]],
    "unghost": [["--values", "--input"], ["--order"]],
    "family": [["--d"], ["--order"], ["--expand"]],
    "fermat": [["--d"], ["--p"]],
    "check": [["--a"], ["--p"]],
    "wieferich": [["--from"], ["--to"], ["--threads"]],
    "partitions": [["--order"], ["--via-product"]],
    "frobnicate": [],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(OWN)))
    own = [draw(st.sampled_from(group)) for group in OWN[command]
           if draw(mostly(st.just(True), st.just(False), odds=4))]
    strays = st.lists(st.sampled_from(SWITCHES + list(VALUED)), min_size=1, max_size=2)
    anywhere = draw(mostly(st.just([]), strays, odds=2))
    argv = [command]
    for flag in draw(st.permutations(own + anywhere)):
        argv.append(flag)
        if flag in VALUED:
            argv.append(draw(VALUED[flag]))
    return argv


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), content=records(),
       env=st.sampled_from([None, "5", "0", "1_0", "40"]))
def test_cli_exits_cleanly(input_path, argv, content, env):
    input_path.write_bytes(content)
    argv = [str(input_path) if arg == "INPUT" else arg for arg in argv]
    environ = {} if env is None else {"PRODEX_DEFAULT_ORDER": env}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if env is None:
            os.environ.pop("PRODEX_DEFAULT_ORDER", None)
        code = main(argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().startswith("prodex:"), err.getvalue()
