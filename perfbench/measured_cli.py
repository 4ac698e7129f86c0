"""Run one prodone CLI command and report its peak memory when it ends.

    python3 perfbench/measured_cli.py group D8

The timed passes of the ``cli`` workload start their CLI calls through this
script instead of ``python -m prodone.cli``; it runs the module the same way
``-m`` does.  When the command ends, the last line of standard error is
``peak_rss_kb <n>``, the memory high-water mark of this process.
"""

import atexit
import runpy
import sys

PEAK_PREFIX = "peak_rss_kb "


def peak_rss_kb() -> int:
    """High-water mark of this process's resident memory, in KiB.

    Read from ``VmHWM``, which counts this program only: ``getrusage`` also
    charges a process with the memory its parent had when it was spawned.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    atexit.register(lambda: print(f"{PEAK_PREFIX}{peak_rss_kb()}", file=sys.stderr))
    runpy.run_module("prodone.cli", run_name="__main__", alter_sys=True)
