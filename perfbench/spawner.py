"""Lean process launcher for the benchmark runner.

Reads one JSON request per line on stdin: ``{"cmd", "stdout", "stderr",
"timeout"}``.  Runs the command to completion and answers with one JSON
line: ``{"code", "wall", "cpu", "peak_kb"}``.

The runner starts children through this small process because a child's
peak RSS, as ``wait4`` reports it, starts from the RSS of the process that
forked it: launched from the runner, which holds the workload's inputs and
check state, every small child would report the runner's size.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "peak_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
