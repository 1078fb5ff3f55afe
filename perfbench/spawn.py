"""Run a command in a forked child; print its exit code, wall time and peak RSS as JSON.

Usage:  python3 -S perfbench/spawn.py PROGRAM [ARGS...]

Linux carries the resident high-water mark of the process that forks a
child into the child's rusage across exec.  Forking the command from this
small interpreter, rather than from the benchmark's large one, keeps
``ru_maxrss`` the command's own peak.  The command's stdout is discarded.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.execvp(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(json.dumps({
    "exit": os.waitstatus_to_exitcode(status),
    "wall_s": wall,
    "maxrss_kb": usage.ru_maxrss,
}))
