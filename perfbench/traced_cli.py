"""Run one prodone CLI command under the tracer and write its trace on exit.

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/traced_cli.py group D8

The traced run of the ``cli`` workload starts its CLI calls through this
script instead of ``python -m prodone.cli``; ``PERFBENCH_JOB`` names the job
the spans belong to.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import prodone.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_job(os.environ.get("PERFBENCH_JOB"))
    try:
        return prodone.cli.main(sys.argv[1:])
    finally:
        tracer.end_job()
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
