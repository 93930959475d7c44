"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracles
import run
import workloads
from client import Client

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent


@pytest.fixture
def client(tmp_path):
    with Client(CHECKOUT, tmp_path) as c:
        yield c


def small_jobs(workload: str, seed: int = 7, per_kind: int = 2) -> list[workloads.Job]:
    """The shortest jobs of each kind in a workload's list."""
    jobs = sorted(workloads.GENERATORS[workload](seed),
                  key=lambda j: len(j.stdout) + sum(len(t) for _, t in j.files))
    picked: dict[str, list] = {}
    for job in jobs:
        if len(picked.setdefault(job.kind, [])) < per_kind:
            picked[job.kind].append(job)
    return [job for group in picked.values() for job in group]


# --- oracles: two routes each ----------------------------------------------


def test_series_exponents_multiply_back_exactly():
    rng = random.Random(1)
    for order in (1, 2, 7, 40, 120):
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(order)]
        exps = oracles.exponents_of_series(coeffs)
        assert oracles.series_of_exponents(exps) == coeffs


def test_ghost_round_trip_and_first_failing_index():
    rng = random.Random(2)
    exps = [rng.randint(-3, 3) for _ in range(300)]
    ghost = oracles.ghost_of_exponents(exps)
    assert oracles.exponents_of_ghost(ghost) == (exps, None)
    ghost[149] += 7  # index 150
    assert oracles.exponents_of_ghost(ghost)[1] == (150, 7)


def test_ghost_of_series_matches_ghost_of_exponents():
    rng = random.Random(3)
    exps = [rng.randint(-2, 2) for _ in range(60)]
    assert oracles.ghost_of_series(oracles.series_of_exponents(exps)) == \
        oracles.ghost_of_exponents(exps)


def test_family_and_witness_closed_forms():
    for d in (1, 2, 3):
        assert oracles.ghost_of_series(oracles.family_series(d, 40)) == oracles.family_ghost(d, 40)
        assert oracles.ghost_of_series([1, -1, -d] + [0] * 38) == oracles.witness_ghost(d, 40)
        exps, _ = oracles.exponents_of_ghost(oracles.family_ghost(d, 60))
        oracles.check_fermat_quotients(exps, d)
    assert oracles.fermat_witness_fields(1, 5)["quotient"] == 6


def test_partition_recurrences_agree():
    table = oracles.partitions_by_parts(400)
    assert table == oracles.partitions_by_pentagons(400)
    assert table[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_prime_count_matches_trial_division():
    def is_prime(n):
        if n < 2 or n % 2 == 0:
            return n == 2
        return all(n % p for p in range(3, int(n ** 0.5) + 1, 2))

    for lo, hi in ((2, 10_000), (10**6, 10**6 + 3000)):
        assert oracles.count_primes(lo, hi) == sum(map(is_prime, range(lo, hi + 1)))


@pytest.mark.parametrize("lo", [10**9, (1 << 41) + 3, (1 << 45) + 12345, (1 << 50) - 2000])
def test_prime_count_matches_sympy(lo):
    sympy = pytest.importorskip("sympy")
    expected = sum(1 for n in range(lo, lo + 3001) if sympy.isprime(n))
    assert oracles.count_primes(lo, lo + 3000) == expected


# --- job lists ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_job_list(workload):
    first = workloads.GENERATORS[workload](11)
    assert first == workloads.GENERATORS[workload](11)
    assert first != workloads.GENERATORS[workload](12)
    assert len(first) >= 100  # >= 10 jobs beyond job_s.p90


def test_invert_ghost_holds_non_realizable_inputs():
    jobs = workloads.invert_ghost_jobs(5)
    assert sum(job.code == 2 for job in jobs) == 4


def test_defect_probe_needs_more_than_4300_digits():
    for job in workloads.defect_probe_jobs(5):
        assert max(len(token) for token in job.stdout.replace('"', " ").split()) > 4300


# --- the client and its verdicts --------------------------------------------


def test_planted_wrong_byte_counts_as_failure(client):
    job = small_jobs("expand")[0]
    client.write_inputs([job])
    outcome = client.run_job(job, run.PRODEX)
    assert outcome.failure(job) is None
    planted = workloads.Job(job.kind, job.argv, job.stdout[:-2] + "7\n", job.code,
                            job.stderr, job.files)
    assert planted != job
    assert "stdout differs" in outcome.failure(planted)
    wrong_code = workloads.Job(job.kind, job.argv, job.stdout, 2, job.stderr, job.files)
    assert "exit code" in outcome.failure(wrong_code)


def test_non_realizable_job_passes_on_exit_2(client):
    job = next(j for j in workloads.invert_ghost_jobs(5) if j.code == 2)
    client.write_inputs([job])
    assert client.run_job(job, run.PRODEX).failure(job) is None


def test_peak_rss_is_the_jobs_own(client):
    """Jobs start from the small launcher, not from this (larger) process."""
    ballast = bytearray(200 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    outcome = client.run(["-c", "pass"])
    assert outcome.peak_rss_mb < 100


# --- tracing -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_stdout_equals_untraced(client, tmp_path, workload):
    jobs = small_jobs(workload)
    client.write_inputs(jobs)
    spans_path = tmp_path / "spans.json"
    totals = layers.LayerTotals()
    for job in jobs:
        plain = client.run_job(job, run.PRODEX)
        traced = client.run_job(job, [*run.TRACED, str(spans_path)])
        assert (traced.stdout, traced.code) == (plain.stdout, plain.code)
        assert plain.failure(job) is None
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
        assert spans[0][0] == "cli.main" and spans[0][3] == -1
        totals.add_job(spans, traced.wall_s, plain.wall_s, 0, 0)
    metrics = totals.metrics(1)
    assert metrics["cli.main.calls"] == len(jobs)
    if workload == "scan":
        for layer in ("products", "series", "ghost"):
            assert metrics[f"{layer}.self_s"] == 0
            assert all(metrics[f"{fn}.calls"] == 0 for fn in layers.FUNCTIONS
                       if fn.startswith(layer + "."))
        assert metrics["congruences.wieferich_scan.primes_tested"] > 0
    else:
        assert metrics["products.self_s"] > 0


def test_tracer_wraps_every_binding():
    code = (
        "import inspect, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from traced import Tracer\n"
        "Tracer().install()\n"
        "bad = [f'{m}.{a}' for m, mod in list(sys.modules.items())\n"
        "       if m == 'prodex' or m.startswith('prodex.')\n"
        "       for a, v in vars(mod).items()\n"
        "       if inspect.isfunction(v) and not hasattr(v, '__wrapped__')\n"
        "       and v.__module__.startswith('prodex.')\n"
        "       and (a in getattr(sys.modules[v.__module__], '__all__', ()) or a == 'main')]\n"
        "print(bad)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(CHECKOUT / "src")}, check=True)
    assert out.stdout.strip() == "[]"


def test_self_time_subtracts_children():
    spans = [["cli.main", 0, 100, -1, {}], ["products.inverse_sequence", 10, 90, 0, {}],
             ["products.expand_to_product", 20, 50, 1, {"order": 5, "bits": 9}]]
    totals = layers.LayerTotals()
    totals.add_job(spans, 200e-9, 150e-9, 3, 4)
    m = totals.metrics(1)
    assert m["cli.main.self_s"] == pytest.approx(20e-9)
    assert m["products.inverse_sequence.self_s"] == pytest.approx(50e-9)
    assert m["products.inverse_sequence.incl_s"] == pytest.approx(80e-9)
    assert m["products.self_s"] == pytest.approx(80e-9)
    assert m["cli.startup_s"] == pytest.approx(100e-9)
    assert m["products.expand_to_product.order_sum"] == 5
    assert m["trace.overhead_ratio"] == pytest.approx(200 / 150)


# --- BENCHMARK.json and the result protocol ---------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.METRICS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
