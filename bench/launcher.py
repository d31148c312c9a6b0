"""Runs the benchmark's child processes, one at a time, and reports their usage.

Reads one JSON request per stdin line ({"argv", "cwd", "env", "stderr"}),
runs it to completion and answers with one JSON line: exit code, wall
seconds, CPU seconds and peak RSS in MiB, all read with ``os.wait4`` for
that child alone.

It is a separate, small process because Linux carries the forking process's
RSS high-water mark into the child's ``ru_maxrss``: spawned from the
benchmark itself, whose checks map whole checkpoints, every child would
report the benchmark's memory instead of its own.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        }), flush=True)


if __name__ == "__main__":
    main()
