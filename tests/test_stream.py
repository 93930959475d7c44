"""Sequence records reach stdout in chunks: the bytes equal printing the
record's whole plain text or its json.dumps line, at every length around
the chunk size and for values of any size, and the text held while writing
stays a chunk's worth however big the values are."""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from itertools import cycle, islice
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from prodex import GhostSequence, PartitionTable, ProductExpansion, TruncatedSeries
from prodex import cli
from prodex.cli import _BITS, _emit
from prodex.ghost import ghost_from_exponents

KINDS = [TruncatedSeries, PartitionTable, ProductExpansion, GhostSequence]
ZEROS = _BITS // 32  # entries in a chunk of zeros, each counted at 32 bits
ORDERS = [1, ZEROS - 1, ZEROS, ZEROS + 1, 2 * ZEROS + 1]


@st.composite
def sequence_records(draw):
    """A record of any of the four sequence types (START 0 and 1) at one
    of ORDERS, its values cycled from a short list of drawn ints."""
    kind = draw(st.sampled_from(KINDS))
    length = draw(st.sampled_from(ORDERS)) + 1 - kind.START
    pattern = draw(st.lists(st.integers(), min_size=1, max_size=8))
    return kind(tuple(islice(cycle(pattern), length)))


@st.composite
def records_across_magnitudes(draw):
    """A record of any of the four sequence types whose values come in runs
    of one size each, from 0 up to about 10^3000 in any order, so chunk
    boundaries move up and down within the record."""
    kind = draw(st.sampled_from(KINDS))
    runs = draw(st.lists(st.tuples(st.sampled_from([0, 1, 6, 40, 300, 3000]),
                                   st.integers(1, 2 * ZEROS)),
                         min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = []
    for digits, count in runs:
        # at most about 10^5 digits of text per run
        count = min(count, 10**5 // (digits + 1))
        values += [rng.randrange(-10**digits, 10**digits) for _ in range(count)]
    return kind(tuple(values))


class _Writes(io.StringIO):
    """A text stream that also keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def emitted(record, fmt):
    with redirect_stdout(io.StringIO()) as out:
        _emit(record, fmt)
    return out.getvalue()


def chunk_values(record, fmt):
    """Emit the record; return its bytes and the values of each chunk, read
    back from the writes (json: header, then chunk, separator, ...)."""
    with redirect_stdout(_Writes()) as out:
        _emit(record, fmt)
    chunks = out.writes[fmt == "json"::2]
    if fmt == "json":
        return out.getvalue(), [[int(v) for v in c.split('", "')] for c in chunks]
    return out.getvalue(), [[int(line.split(" ")[1]) for line in c.split("\n")]
                            for c in chunks]


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


@settings(max_examples=40, deadline=None)
@given(records_across_magnitudes(), st.sampled_from([_BITS, 1 << 10]))
def test_streamed_output_equals_whole_output_across_value_sizes(record, budget):
    # the small budget makes the biggest values entries of a chunk of their own
    whole = {"plain": record.to_plain() + "\n",
             "json": json.dumps(record.to_json_dict()) + "\n"}
    with mock.patch.object(cli, "_BITS", budget):
        for fmt, want in whole.items():
            got, chunks = chunk_values(record, fmt)
            assert first_difference(got, want) is None
            assert [v for chunk in chunks for v in chunk] == list(record[0])
            for chunk in chunks:
                assert len(chunk) == 1 or sum(map(int.bit_length, chunk)) <= budget


def traced_peak(record, fmt):
    """tracemalloc's peak while the record is emitted to os.devnull."""
    with open(os.devnull, "w") as null, redirect_stdout(null):
        tracemalloc.start()
        try:
            _emit(record, fmt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_emit_holds_a_chunk_not_the_record():
    record = ghost_from_exponents(ProductExpansion((1,) * 10**5))
    for fmt in ("plain", "json"):
        assert traced_peak(record, fmt) < 1 << 20, fmt


def test_emit_holds_a_bounded_chunk_of_big_values():
    # a run of zeros, then 1000-digit values: a fixed entry count per chunk
    # would hold megabytes of text at once
    record = ProductExpansion((0,) * 20000 + (10**1000,) * 2000)
    for fmt in ("plain", "json"):
        assert traced_peak(record, fmt) < 1 << 20, fmt


def test_output_bytes_do_not_depend_on_stdout_buffering():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["ghost", "--ones", "--order", str(2 * ZEROS + 1)],
                 ["partitions", "--order", str(ZEROS), "--format", "json"]):
        outputs = [
            subprocess.run([sys.executable, "-m", "prodex", *argv],
                           capture_output=True, env=run_env)
            for run_env in (env, {**env, "PYTHONUNBUFFERED": "1"})
        ]
        for proc in outputs:
            assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        assert outputs[0].stdout == outputs[1].stdout
        assert outputs[0].stdout.count(b"\n") == (1 if "json" in argv else 2 * ZEROS + 1)
