"""Spawns the benchmark's invocations, one at a time, for the client.

Linux charges a child the peak resident size of the address space it was
spawned from, so a child started straight from the client would report
the client's own peak (it grows while checking megabytes of output) as its
max-RSS.  This process stays small: it reads one JSON request per stdin
line, ``{"argv": [...], "out": path, "err": path}``, runs argv with stdout
and stderr sent to those files, and answers one JSON line with the exit
code, the wall time from spawn to exit, and the child's CPU time and
max-RSS from ``os.wait4``.  It exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time

LIMIT_S = 60.0  # an invocation still running then is killed


def run(argv, out, err):
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, write, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        killed = not select.select([pidfd], [], [], LIMIT_S)[0]
        if killed:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return {
        "code": -signal.SIGKILL if killed else os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


for line in sys.stdin:
    print(json.dumps(run(**json.loads(line))), flush=True)
