"""Run one command and write its exit code, wall time, CPU time and peak RSS.

Usage: python3 perfbench/wrap.py REPORT.json TIMEOUT_S -- COMMAND...

The benchmark starts every measured process through this wrapper.  A
child's ru_maxrss starts from the RSS of the process it was forked from, so
a child forked straight from the benchmark (which has numpy and the check
arrays loaded) would report at least the benchmark's own RSS.  This wrapper
imports nothing heavy, so the floor it leaves is that of a bare interpreter.
os.wait4 gives the rusage of that one child, where RUSAGE_CHILDREN would be
a high-water mark over every child reaped so far.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    report, timeout, sep = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    if sep != "--" or len(sys.argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    proc = subprocess.Popen(sys.argv[4:])
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"code": proc.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
