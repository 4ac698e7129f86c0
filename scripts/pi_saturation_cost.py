"""Cost of the product-set DP in the jobs it bounds.

Each job runs in a child process of its own, on a fresh ``PiEngine``, and
reports its wall time, the pi memo entries it left and the child's peak
RSS.  Every job runs ``REPEATS`` times; a row gives the least wall time and
the largest peak RSS.

    PYTHONPATH=src python3 scripts/pi_saturation_cost.py [--label NAME] [--out PATH]

prints one line per job and writes the rows to PATH under
"job_cost" -> NAME (default label "change", default PATH
BENCH_saturating_pi.json; other entries are kept).  Point PYTHONPATH at
another checkout's ``src`` to measure that code: the script uses only
public names.  It takes about a minute on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_saturating_pi.json")
REPEATS = 3


def _jobs():
    from prodone import checks, classsemi, factor, invariants
    return {
        "build D12": ("D12", classsemi.build),
        "build C2xD6": ("C2xD6", classsemi.build),
        "davenport D18": ("D18", factor.davenport),
        "property_P D14": ("D14", checks.property_P),
        "unions_of_lengths D8 3": (
            "D8", lambda g, e: invariants.unions_of_lengths(
                g, 3, invariants.GroupInvariants(g, e))),
        "delta_set D8 8": (
            "D8", lambda g, e: invariants.delta_set(
                g, 8, inv=invariants.GroupInvariants(g, e))),
    }


def run_job(name: str) -> dict:
    from prodone.groups import parse_group
    from prodone.sequences import PiEngine
    spec, job = _jobs()[name]
    group = parse_group(spec)
    engine = PiEngine(group)
    start = time.perf_counter()
    job(group, engine)
    return {
        "wall_s": round(time.perf_counter() - start, 3),
        "memo_entries": engine.memo_size(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, 1),
    }


def measure(name: str) -> dict:
    runs = []
    for _ in range(REPEATS):
        out = subprocess.run([sys.executable, __file__, "--job", name],
                             check=True, capture_output=True, text=True).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    return {
        "wall_s": min(r["wall_s"] for r in runs),
        "memo_entries": runs[0]["memo_entries"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", help="run one job in this process, print its row")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    if args.job:
        print(json.dumps(run_job(args.job)))
        return
    rows = {}
    for name in _jobs():
        rows[name] = measure(name)
        print(name, json.dumps(rows[name]), flush=True)
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out.setdefault("job_cost", {})[args.label] = {
        "command": "PYTHONPATH=src python3 scripts/pi_saturation_cost.py "
                   f"--label {args.label}",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"CPython {platform.python_version()}",
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
