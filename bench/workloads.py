"""Seeded job lists for the three benchmark workloads.

A job is one `prodex` command line, the JSON input files it reads, and the
exact stdout, stderr and exit code the oracles expect.

Every list has 110 jobs in three tiers with a fixed size schedule:

- 70 tiny jobs (orders up to 64, small windows), so that job_s.p50 lands
  inside a dense cluster of start-up-bound jobs;
- 24 medium jobs on a ladder of sizes;
- 16 large jobs of about equal cost, so that job_s.p90 (11 jobs beyond it)
  lands inside a plateau rather than on one job.

The seed picks the content of every job (coefficients, exponents, window
positions, primes, tiny orders) and the order in which the jobs run.  The
things that set a job's cost or memory are fixed by the schedule: sizes,
the |c_1| and d that set how fast coefficients grow, the output format and
the input form of large jobs.  So figures from different seeds compare.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import oracles

WORKLOADS = ("expand", "invert-ghost", "scan")


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    stdout: str
    code: int = 0
    stderr: str = ""
    # (file name, contents) pairs, written to the job's working directory
    files: tuple[tuple[str, str], ...] = ()


class _Builder:
    """Collects jobs; numbers input files so their names are unique."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.jobs: list[Job] = []
        self.formats = 0

    def fmt(self) -> str:
        """Every third job prints JSON.  The choice follows the schedule,
        not the seed, because JSON output costs more time and memory."""
        self.formats += 1
        return "json" if self.formats % 3 == 0 else "plain"

    def add(self, kind: str, argv: list[str], stdout: str, fmt: str, *,
            code: int = 0, stderr: str = "", files=()) -> None:
        if fmt == "json":
            argv = argv + ["--format", "json"]
        self.jobs.append(Job(kind, tuple(argv), stdout, code, stderr, tuple(files)))

    def sequence_source(self, flag: str, field: str, values: list[int],
                        inline: bool) -> tuple[list[str], tuple]:
        """argv and files passing `values` inline or as a JSON record."""
        if inline:
            return [f"--{flag}=" + ",".join(map(str, values))], ()
        order = len(values) - 1 if field == "coeffs" else len(values)
        name = f"in{len(self.jobs):03d}.json"
        record = json.dumps({"order": order, field: [str(v) for v in values]})
        return ["--input", name], ((name, record),)

    def inline(self, order: int) -> bool:
        """Tiny inputs go inline half the time; larger ones always in files."""
        return order <= 64 and self.rng.random() < 0.5

    def tiny(self) -> int:
        return self.rng.randint(4, 64)

    def done(self) -> list[Job]:
        assert len(self.jobs) == 110
        self.rng.shuffle(self.jobs)
        return self.jobs


def _geometric(lo: int, hi: int, count: int) -> list[int]:
    """count sizes from lo to hi in equal ratios."""
    return [round(lo * (hi / lo) ** (i / max(count - 1, 1))) for i in range(count)]


def _odd_primes(lo: int, hi: int) -> list[int]:
    return [p for p in oracles.primes_upto(hi) if p >= max(lo, 3)]


# ---------------------------------------------------------------------------
# expand: products.expand_to_product carries the work


def expand_jobs(seed: int) -> list[Job]:
    b = _Builder(seed)
    rng = b.rng

    def expand(order: int, c1_size: int | None = None) -> None:
        """A random unit series, c_k in [-9, 9].  Its exponents grow about
        like |c_1|^k, so a fixed |c_1| pins the job's cost."""
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(order)]
        if c1_size is not None:
            coeffs[1] = rng.choice((c1_size, -c1_size))
        exps = oracles.exponents_of_series(coeffs)
        oracles.check_multiplies_back(exps, coeffs)
        fmt = b.fmt()
        args, files = b.sequence_source("coeffs", "coeffs", coeffs, b.inline(order))
        b.add("expand", ["expand", *args], oracles.render_sequence("exponents", exps, fmt),
              fmt, files=files)

    def family(d: int, order: int) -> None:
        exps, failure = oracles.exponents_of_ghost(oracles.family_ghost(d, order))
        assert failure is None
        oracles.check_fermat_quotients(exps, d)
        oracles.check_multiplies_back(exps, oracles.family_series(d, order))
        fmt = b.fmt()
        b.add("family", ["family", "--d", str(d), "--order", str(order), "--expand"],
              oracles.render_sequence("exponents", exps, fmt), fmt)

    def fermat(d: int, p: int) -> None:
        fmt = b.fmt()
        b.add("fermat", ["fermat", "--d", str(d), "--p", str(p)],
              oracles.render_witness(oracles.fermat_witness_fields(d, p), fmt), fmt)

    def check(a: int, p: int) -> None:
        if p > 2:
            for d in range(1, a):  # the witnesses whose quotients the CLI sums
                oracles.fermat_witness_fields(d, p)
        fmt = b.fmt()
        b.add("check", ["check", "--a", str(a), "--p", str(p)],
              oracles.render_check(a, p, fmt), fmt)

    # tiny
    for _ in range(34):
        expand(b.tiny())
    for i in range(12):
        family(1 + i % 3, b.tiny())
    small = _odd_primes(3, 60)
    for i in range(12):
        fermat(1 + i % 3, rng.choice(small))
    for _ in range(12):
        check(rng.randint(2, 6), rng.choice([2] + small))
    # medium
    for i, order in enumerate(_geometric(100, 900, 12)):
        expand(order, 1 + i % 9)
    for i, order in enumerate(_geometric(100, 1000, 6)):
        family(1 + i % 3, order)
    for i, p in enumerate((101, 151, 211, 307)):
        fermat(1 + i % 3, p)
    check(4, 151)
    check(3, 199)
    # large
    for _ in range(10):
        expand(1100, 9)
    for _ in range(4):
        family(2, 1300)
    for d in (1, 2):
        fermat(d, 593)
    return b.done()


# ---------------------------------------------------------------------------
# invert-ghost: ghost, products.product_to_series and inverse_sequence


def invert_ghost_jobs(seed: int) -> list[Job]:
    b = _Builder(seed)
    rng = b.rng

    def exponents(order: int) -> list[int]:
        """Random exponents in [-1, 1], or all ones at every fifth job."""
        if len(b.jobs) % 5 == 2:
            return [1] * order
        return [rng.randint(-1, 1) for _ in range(order)]

    def exponent_args(exps: list[int]) -> tuple[list[str], tuple]:
        if all(e == 1 for e in exps):
            return ["--ones", "--order", str(len(exps))], ()
        return b.sequence_source("exponents", "exponents", exps, b.inline(len(exps)))

    def ghost(order: int) -> None:
        exps = exponents(order)
        fmt = b.fmt()
        args, files = exponent_args(exps)
        b.add("ghost", ["ghost", *args],
              oracles.render_sequence("values", oracles.ghost_of_exponents(exps), fmt),
              fmt, files=files)

    def unghost(order: int, realizable: bool = True) -> None:
        """A ghost sequence of random exponents.  If not realizable, one
        value in the second half is moved off by less than its index, so
        the CLI must exit 2 and name that index."""
        values = oracles.ghost_of_exponents([rng.randint(-1, 1) for _ in range(order)])
        if not realizable:
            index = rng.randint(order // 2, order)
            values[index - 1] += rng.randint(1, index - 1)
        exps, failure = oracles.exponents_of_ghost(values)
        fmt = b.fmt()
        args, files = b.sequence_source("values", "values", values, b.inline(order))
        if failure is None:
            b.add("unghost", ["unghost", *args],
                  oracles.render_sequence("exponents", exps, fmt), fmt, files=files)
        else:
            b.add("unghost", ["unghost", *args], "", fmt, code=2,
                  stderr=oracles.render_not_realizable(*failure), files=files)

    def invert(order: int) -> None:
        exps = exponents(order)
        inverse, failure = oracles.exponents_of_ghost(
            [-v for v in oracles.ghost_of_exponents(exps)])
        assert failure is None
        tilde = len(b.jobs) % 2 == 0
        if tilde:
            inverse = [-e for e in inverse]
        fmt = b.fmt()
        args, files = exponent_args(exps)
        b.add("invert", ["invert", *args] + (["--tilde"] if tilde else []),
              oracles.render_sequence("exponents", inverse, fmt), fmt, files=files)

    def series(order: int) -> None:
        exps = exponents(order)
        fmt = b.fmt()
        args, files = exponent_args(exps)
        b.add("series", ["series", *args],
              oracles.render_sequence("coeffs", oracles.series_of_exponents(exps), fmt),
              fmt, files=files)

    partition_table = oracles.partitions_by_parts(1500)

    def partitions(order: int) -> None:
        fmt = b.fmt()
        b.add("partitions", ["partitions", "--order", str(order), "--via-product"],
              oracles.render_partitions(partition_table[: order + 1], fmt,
                                        via_product=True), fmt)

    # tiny
    for kind, count in ((ghost, 16), (unghost, 16), (invert, 18), (series, 14),
                        (partitions, 6)):
        for _ in range(count):
            kind(b.tiny())
    # medium; four unghost inputs are not realizable
    for order in _geometric(1000, 30000, 6):
        ghost(order)
    for i, order in enumerate(_geometric(1000, 30000, 8)):
        unghost(order, realizable=i % 2 == 0)
    for order in _geometric(300, 1200, 6):
        invert(order)
    for order in _geometric(500, 2000, 4):
        series(order)
    # large, topped by one ghost and one unghost job at order 10^5
    for order in (100_000, 50_000, 50_000, 50_000):
        ghost(order)
    for order in (100_000, 50_000, 50_000, 50_000):
        unghost(order)
    for _ in range(5):
        invert(1700)
    for _ in range(3):
        partitions(1500)
    return b.done()


def defect_probe_jobs(seed: int) -> list[Job]:
    """Ghost jobs whose exact answers pass 4300 decimal digits.

    With m_1 = +-2 and order N, L_N includes 2^N, and 2^N has more than 4300
    digits once N > 14284.  CPython refuses to convert such ints to text by
    default, so today the CLI exits 1 instead of printing the answer.  These
    jobs run untimed beside the invert-ghost workload, and the run reports
    how many of them fail.
    """
    rng = random.Random(seed)
    jobs = []
    for order in (14500, 15200, 16000):
        exps = [rng.choice((2, -2)), rng.randint(-2, 2), rng.randint(-2, 2)]
        values = oracles.ghost_of_exponents(exps + [0] * (order - 3))
        jobs.append(Job("ghost-4300-digits",
                        ("ghost", "--exponents=" + ",".join(map(str, exps)),
                         "--order", str(order)),
                        oracles.render_sequence("values", values, "plain")))
    return jobs


# ---------------------------------------------------------------------------
# scan: congruences and cli only


def scan_jobs(seed: int) -> list[Job]:
    b = _Builder(seed)
    rng = b.rng

    def wieferich(lo: int, hi: int) -> None:
        """Every second window runs on two workers."""
        fmt = b.fmt()
        threads = ["--threads", "2"] if len(b.jobs) % 2 else []
        b.add("wieferich", ["wieferich", "--from", str(lo), "--to", str(hi), *threads],
              oracles.render_wieferich(lo, hi, oracles.count_primes(lo, hi),
                                       oracles.wieferich_hits(lo, hi), fmt), fmt)

    def low(hi: int) -> None:
        """From 2, so both known hits, 1093 and 3511, lie inside."""
        wieferich(2, hi + rng.randint(0, 999))

    def mid(width: int) -> None:
        lo = rng.randint(10**7, 10**11)
        wieferich(lo, lo + width)

    def high(exponent: int) -> None:
        """Near 2^exponent, where the CLI's base sieve grows with isqrt(hi)."""
        lo = (1 << exponent) + rng.randint(0, 1 << (exponent - 10))
        wieferich(lo, lo + rng.randint(10_000, 50_000))

    partition_table = oracles.partitions_by_pentagons(16000)

    def partitions(order: int) -> None:
        fmt = b.fmt()
        b.add("partitions", ["partitions", "--order", str(order)],
              oracles.render_partitions(partition_table[: order + 1], fmt,
                                        via_product=False), fmt)

    # tiny
    for hi in _geometric(4000, 20_000, 20):
        low(hi)
    for width in _geometric(1000, 10_000, 20):
        mid(width)
    for _ in range(30):
        partitions(rng.randint(0, 64))
    # medium
    for hi in _geometric(30_000, 1_000_000, 6):
        low(hi)
    for width in _geometric(20_000, 500_000, 6):
        mid(width)
    for exponent in (40, 42, 44):
        high(exponent)
    for order in _geometric(500, 8000, 9):
        partitions(order)
    # large, topped by three windows near 2^50.  Their peak RSS takes one
    # of a few values from run to run (it shifts with the allocator's
    # layout, down to the length of the working directory's path), so the
    # largest of several draws is what a run reports steadily.
    for _ in range(4):
        low(2_000_000)
    for _ in range(4):
        mid(1_000_000)
    for exponent in (47, 50, 50, 50):
        high(exponent)
    for _ in range(4):
        partitions(16000)
    return b.done()


GENERATORS = {"expand": expand_jobs, "invert-ghost": invert_ghost_jobs, "scan": scan_jobs}
