"""One client running `prodex` jobs as subprocesses, one at a time.

Jobs are started by bench/launcher.py, a small helper process (see there
for why), and each job's stdout and stderr come back through files in the
client's working directory, where the jobs also find their input files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from workloads import Job

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool

    def failure(self, job: Job) -> str | None:
        """Why this outcome fails the job's oracle, or None if it passes."""
        if self.timed_out:
            return "timed out"
        if "Traceback (most recent call last)" in self.stderr:
            return "traceback on stderr"
        if self.code != job.code:
            return f"exit code {self.code}, expected {job.code}: {self.stderr.strip()[:200]}"
        if self.stdout != job.stdout:
            return f"stdout differs from the oracle at byte {_first_difference(self.stdout, job.stdout)}"
        if job.stderr and self.stderr != job.stderr:
            return f"stderr {self.stderr.strip()[:200]!r}, expected {job.stderr.strip()!r}"
        return None


def _first_difference(a: str, b: str) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


class Client:
    """Runs `python3 argv...` with the checkout's src/ on PYTHONPATH and
    `workdir` as the working directory.  Close it to stop the launcher."""

    def __init__(self, checkout: Path, workdir: Path):
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if not k.startswith("PRODEX_")}
        src = str(checkout / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=workdir, env=env)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def write_inputs(self, jobs: list[Job]) -> None:
        for job in jobs:
            for name, text in job.files:
                (self.workdir / name).write_text(text, encoding="utf-8")

    def run(self, argv: list[str], *, tag: str = "job",
            timeout: float = JOB_TIMEOUT_S) -> Outcome:
        out_path = self.workdir / f"{tag}.stdout"
        err_path = self.workdir / f"{tag}.stderr"
        # Fresh files: on ext4, closing a file that was opened with O_TRUNC
        # over old data forces a flush that costs tens of milliseconds.
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)
        request = {"argv": argv, "out": str(out_path), "err": str(err_path),
                   "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        result = json.loads(reply)
        return Outcome(
            wall_s=result["wall_s"],
            peak_rss_mb=result["maxrss_kb"] / 1024,
            code=result["status"],
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            timed_out=result["timed_out"],
        )

    def run_job(self, job: Job, prefix: list[str], timeout: float = JOB_TIMEOUT_S) -> Outcome:
        return self.run([*prefix, *job.argv], timeout=timeout)
