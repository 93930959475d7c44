"""Sequence records reach stdout in chunks: the bytes equal printing the
record's whole plain text or its json.dumps line, at every length around
the chunk size, and the text held while writing stays a chunk's worth."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from itertools import cycle, islice

from hypothesis import given, settings
from hypothesis import strategies as st

from prodex import GhostSequence, PartitionTable, ProductExpansion, TruncatedSeries
from prodex.cli import _CHUNK, _emit
from prodex.ghost import ghost_from_exponents

ORDERS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


@st.composite
def sequence_records(draw):
    """A record of any of the four sequence types (START 0 and 1) at one
    of ORDERS, its values cycled from a short list of drawn ints."""
    kind = draw(st.sampled_from(
        [TruncatedSeries, PartitionTable, ProductExpansion, GhostSequence]))
    length = draw(st.sampled_from(ORDERS)) + 1 - kind.START
    pattern = draw(st.lists(st.integers(), min_size=1, max_size=8))
    return kind(tuple(islice(cycle(pattern), length)))


def emitted(record, fmt):
    with redirect_stdout(io.StringIO()) as out:
        _emit(record, fmt)
    return out.getvalue()


def first_difference(got, want):
    """None if the texts are equal, else the first index where they differ:
    a failure report that stays cheap while Hypothesis shrinks."""
    if got == want:
        return None
    return next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)))


@settings(max_examples=40, deadline=None)
@given(sequence_records())
def test_streamed_output_equals_whole_output(record):
    plain = record.to_plain() + "\n"
    assert first_difference(emitted(record, "plain"), plain) is None
    line = json.dumps(record.to_json_dict()) + "\n"
    assert first_difference(emitted(record, "json"), line) is None


def test_emit_holds_a_chunk_not_the_record():
    record = ghost_from_exponents(ProductExpansion((1,) * 10**5))
    with open(os.devnull, "w") as null, redirect_stdout(null):
        for fmt in ("plain", "json"):
            tracemalloc.start()
            try:
                _emit(record, fmt)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (fmt, peak)


def test_output_bytes_do_not_depend_on_stdout_buffering():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["ghost", "--ones", "--order", str(2 * _CHUNK + 1)],
                 ["partitions", "--order", str(_CHUNK), "--format", "json"]):
        outputs = [
            subprocess.run([sys.executable, "-m", "prodex", *argv],
                           capture_output=True, env=run_env)
            for run_env in (env, {**env, "PYTHONUNBUFFERED": "1"})
        ]
        for proc in outputs:
            assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        assert outputs[0].stdout == outputs[1].stdout
        assert outputs[0].stdout.count(b"\n") == (1 if "json" in argv else 2 * _CHUNK + 1)
