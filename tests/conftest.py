"""Fresh-interpreter helpers shared by the test modules."""

import os
import subprocess
import sys

import pytest

import cuntz_bases

PROCFS = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                            reason="reads the peak resident size from procfs")


def fresh_python(args, blas_threads=None) -> str:
    """stdout of a fresh interpreter run with ``args``, this checkout's
    package first on its path, and OPENBLAS_NUM_THREADS set to
    ``blas_threads`` or, when that is None, not set."""
    src_dir = os.path.dirname(os.path.dirname(cuntz_bases.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def peak_kb(setup: str, call: str) -> int:
    """How far the expression ``call``, which must be true, raises the peak
    resident size, in kB.

    It runs in :func:`fresh_python` after the statement ``setup``, and the
    delta leaves out the imports.  The peak is the larger of VmHWM, the
    high-water mark of this program image, and the peak of the children it
    forked and reaped (RUSAGE_CHILDREN), so work done in a forked child is
    measured too.  A child's peak counts the pages it shares with this
    process at the fork; this process's own ru_maxrss would start from the
    size of the process that started it."""
    code = (f"{setup}\n"
            "import resource\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        own = next(int(line.split()[1]) for line in status\n"
            "                   if line.startswith('VmHWM:'))\n"
            "    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            "before = peak()\n"
            f"assert {call}\n"
            "print(peak() - before)\n")
    return int(fresh_python(["-c", code]))
