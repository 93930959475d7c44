"""Start jobs for bench/client.py and report their wall time and peak RSS.

Reads one JSON request per line on stdin: {"argv": [...], "out": path,
"err": path, "timeout": seconds}.  Runs `python3 argv...` in its own
process group with stdout and stderr sent to the two (new) files, kills
the group at the timeout, and answers with one JSON line:
{"wall_s", "maxrss_kb", "status", "timed_out"}.

It runs as its own small process because on Linux a child started by
fork or vfork reports the parent's peak RSS as its own floor.  The
benchmark process holds every expected output, so jobs started from it
would all report its size.  Started from this process, they report at
least this one's peak (about 10 MB), which is below any prodex call.
wait4 covers the job's own reaped children too (the scanner's pool
workers).
"""

import json
import os
import signal
import sys
import threading
import time


def _kill_group(pgid: int, expired: threading.Event) -> None:
    expired.set()
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill whatever the job left running in its group, then wait until the
    group is gone (orphans are reaped by init, not by us)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(argv: list[str], out_path: str, err_path: str, timeout: float) -> dict:
    # O_EXCL: the client hands over fresh paths (see Client.run)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    out = os.open(out_path, flags, 0o644)
    err = os.open(err_path, flags, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], os.environ,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out, 1),
                (os.POSIX_SPAWN_DUP2, err, 2),
            ],
            setpgroup=0,
        )
        expired = threading.Event()
        timer = threading.Timer(timeout, _kill_group, (pid, expired))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    finally:
        os.close(out)
        os.close(err)
    _reap_group(pid)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "status": os.waitstatus_to_exitcode(status), "timed_out": expired.is_set()}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["out"], request["err"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
