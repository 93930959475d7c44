"""prodex benchmark: seeded job lists run through the CLI by one client.

Usage (from the repository root):

    python3 bench/run.py --workload expand --seed 1 --seconds 20 --trace 0

One client runs the workload's job list in a closed loop: each job is a
`python3 -m prodex ...` subprocess, and the next starts when the previous
one exits.  Whole passes over the list repeat while another pass is
expected to end within --seconds (the first pass always runs).  Every job's
stdout, stderr and exit code are compared with answers the benchmark
computes itself (bench/oracles.py), outside every timed span.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each job twice,
plainly and under bench/traced.py, and reports per-layer metrics from the
traced runs' spans; the traced stdout must equal the plain one.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Human-readable lines before it give the run's context and every failure.
The program under test is taken from ./src of the checkout that holds
this file; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.set_int_max_str_digits(0)

import layers  # noqa: E402
import workloads  # noqa: E402
from client import JOB_TIMEOUT_S, Client, Outcome  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
PRODEX = ["-m", "prodex"]
TRACED = [str(Path(__file__).resolve().parent / "traced.py")]
# One timed `prodex --help` call before every SETUP_EVERY-th job, so the
# setup_s samples are spread over the whole measurement as the jobs are.
SETUP_EVERY = 5
# A very slow program must still get a result well inside 180 s: no job
# starts later than START_LIMIT_S after the benchmark started (the jobs not
# run count as failed), and none runs past END_LIMIT_S.
START_LIMIT_S = 140.0
END_LIMIT_S = 165.0
STARTED = time.perf_counter()
SHOWN_FAILURES = 10
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                    "peak_rss_mb": "MB"}


def may_start() -> bool:
    return time.perf_counter() - STARTED < START_LIMIT_S


def job_timeout() -> float:
    return min(JOB_TIMEOUT_S, END_LIMIT_S - (time.perf_counter() - STARTED))


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' if the
    checkout is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


class Run:
    def __init__(self, args, jobs: list[workloads.Job], client: Client):
        self.args = args
        self.jobs = jobs
        self.client = client
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def judge(self, job: workloads.Job, outcome: Outcome, extra: str | None = None) -> None:
        self.attempted += 1
        reason = outcome.failure(job) or extra
        if reason:
            self.failures.append(f"{job.kind} {' '.join(job.argv)[:120]}: {reason}")

    def passes(self, run_pass) -> int:
        """Call run_pass() while another pass should end within --seconds."""
        count = 0
        while True:
            start = time.perf_counter()
            if not run_pass():
                return count + 1
            count += 1
            pass_s = time.perf_counter() - start
            if self.elapsed() + pass_s > self.args.seconds:
                return count

    def skip_rest(self, jobs: list[workloads.Job]) -> None:
        for job in jobs:
            self.attempted += 1
            self.failures.append(f"{job.kind} {' '.join(job.argv)[:120]}: not run, "
                                 f"the run passed its {START_LIMIT_S:.0f} s limit")

    def measure(self) -> dict[str, float]:
        """End-to-end metrics over whole passes of the job list.  A pass's
        wall time is the sum of its jobs' own wall times (spawn to exit), so
        the checks and file reads between jobs stay outside it."""
        setup_walls: list[float] = []
        pass_walls: list[float] = []
        job_walls: list[float] = []
        peak_rss = 0.0

        def one_pass() -> bool:
            nonlocal peak_rss
            pass_walls.append(0.0)
            for i, job in enumerate(self.jobs):
                if not may_start():  # the run fails; wall_s is then a lower bound
                    self.skip_rest(self.jobs[i:])
                    return False
                if i % SETUP_EVERY == 0:
                    setup_walls.append(help_call(self.client))
                outcome = self.client.run_job(job, PRODEX, job_timeout())
                self.judge(job, outcome)
                pass_walls[-1] += outcome.wall_s
                job_walls.append(outcome.wall_s)
                peak_rss = max(peak_rss, outcome.peak_rss_mb)
            return True

        self.passes(one_pass)
        self.job_samples = len(job_walls)
        self.setup_samples = len(setup_walls)
        return {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(pass_walls),
            "job_s.p50": statistics.median(job_walls),
            "job_s.p90": percentile(job_walls, 0.9),
            "peak_rss_mb": peak_rss,
        }

    def trace(self) -> dict[str, float]:
        """Per-layer metrics: each job runs plainly and traced, in
        alternating order, and the two stdouts must match."""
        totals = layers.LayerTotals()
        spans_path = self.client.workdir / "spans.json"
        sizes = {job: len(" ".join(job.argv).encode())
                 + sum(len(text.encode()) for _, text in job.files) for job in self.jobs}

        def one_pass() -> bool:
            for i, job in enumerate(self.jobs):
                if not may_start():
                    self.skip_rest(self.jobs[i:])
                    return False
                traced_argv = [*TRACED, str(spans_path)]
                if i % 2:
                    plain = self.client.run_job(job, PRODEX, job_timeout())
                    traced = self.client.run_job(job, traced_argv, job_timeout())
                else:
                    traced = self.client.run_job(job, traced_argv, job_timeout())
                    plain = self.client.run_job(job, PRODEX, job_timeout())
                same = (traced.stdout, traced.code) == (plain.stdout, plain.code)
                self.judge(job, plain, traced.failure(job)
                           or (None if same else "traced stdout differs from plain stdout"))
                if not spans_path.exists():  # killed before it could write them
                    continue
                spans = json.loads(spans_path.read_text())
                spans_path.unlink()  # see Client.run on reusing files
                totals.add_job(spans, traced.wall_s, plain.wall_s, sizes[job],
                               len(plain.stdout.encode()))
            return True

        passes = self.passes(one_pass)
        self.shares = totals.shares()
        return totals.metrics(max(passes, 1))


def help_call(client: Client) -> float:
    """Wall time of `prodex --help`, a CLI call that does no work."""
    outcome = client.run([*PRODEX, "--help"], tag="help", timeout=job_timeout())
    if outcome.code != 0 or not outcome.stdout.startswith("usage: prodex"):
        raise RuntimeError(f"prodex --help failed: {outcome.stderr.strip()[:300]}")
    return outcome.wall_s


def probe_defect(args, client: Client) -> str:
    """Run the known-defect jobs untimed and say how many still fail."""
    jobs = workloads.defect_probe_jobs(args.seed)
    if not may_start():
        return "known defect (answers over 4300 digits): probe skipped, out of time"
    reasons = [client.run_job(job, PRODEX, job_timeout()).failure(job) for job in jobs]
    failing = [r for r in reasons if r]
    detail = f": {failing[0]}" if failing else ""
    return (f"known defect (answers over 4300 digits): {len(failing)} of "
            f"{len(jobs)} probe jobs fail, untimed and not counted{detail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (CHECKOUT / "src" / "prodex" / "cli.py").is_file():
        print(f"bench: no prodex sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2

    workdir = CHECKOUT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Client(CHECKOUT, workdir) as client:
            oracle_start = time.perf_counter()
            jobs = workloads.GENERATORS[args.workload](args.seed)
            client.write_inputs(jobs)
            oracle_s = time.perf_counter() - oracle_start
            help_call(client)  # untimed warm-up

            run = Run(args, jobs, client)
            metrics = run.trace() if args.trace else run.measure()
            measured_s = run.elapsed()
            probe = probe_defect(args, client) \
                if args.workload == "invert-ghost" and not args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (CHECKOUT / ".bench_work").rmdir()
        except OSError:
            pass

    failed = len(run.failures)
    units = {**END_TO_END_UNITS, **{name: unit for name, (unit, _) in layers.METRICS.items()}}
    print(f"prodex benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, git {git_sha(CHECKOUT)}")
    print(f"{len(jobs)} jobs per pass, one client, closed loop; "
          f"oracles {oracle_s:.2f} s; measured {measured_s:.2f} s")
    if not args.trace:
        print(f"setup_s over {run.setup_samples} --help calls spread over the run; "
              f"job_s.p50 and job_s.p90 over {run.job_samples} job runs "
              f"({run.job_samples - math.ceil(0.9 * run.job_samples)} beyond p90)")
    else:
        print(f"shares of traced job time: {run.shares}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / run.attempted:.4g} ({failed} failed of {run.attempted} attempted)")
    for line in run.failures[:SHOWN_FAILURES]:
        print(f"  FAILED {line}")
    if probe:
        print(probe)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
