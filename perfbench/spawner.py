"""Spawns the benchmark's job processes and reports how each one ran.

    python3 perfbench/spawner.py     (requests on stdin, one JSON per line)

A request is ``{"argv": [...], "stdout": path, "stderr": path,
"timeout": seconds}``; the reply line is ``{"seconds": wall time from
spawn to exit, "code": exit code, "rss_mb": peak RSS, "killed": bool}``.

Jobs are spawned from this small process rather than from run.py
because Linux carries the spawning process's peak RSS into the child's
``ru_maxrss`` across exec; from here that floor is a bare interpreter's.
A job still running at its timeout is killed with SIGKILL.
"""

import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    argv = req["argv"]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
    killed = []

    def kill(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"seconds": time.perf_counter() - t0,
            "code": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024, "killed": bool(killed)}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
