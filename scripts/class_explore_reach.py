"""The class semigroups of D10, D12 and C2xD6, each built in its own process.

Builds each with ``classsemi.build`` (every validator runs) in a child
process, and records its classes, units, idempotents, Clifford verdict,
build time, the child's peak RSS, and the context search's rounds, contexts
and longest context, with the full provenance.  All three are also tier-1
tests in ``tests/test_classsemi.py``.

    PYTHONPATH=src python3 scripts/class_explore_reach.py [--out PATH]

prints one line per group and writes the rows to PATH (default: the "reach"
entry of BENCH_class_explore.json, whose other entries are kept).  It takes
about 5 s on a 2-core x86-64 machine, with D10 the largest at about 1 s and
35 MB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_class_explore.json")
SPECS = ("D10", "D12", "C2xD6")

CHILD = """
import json, resource, sys, time
from prodone import classsemi
from prodone.groups import parse_group
start = time.perf_counter()
semi = classsemi.build(parse_group(sys.argv[1]))
elapsed = time.perf_counter() - start
prov = semi.provenance
print(json.dumps({
    "classes": semi.n_classes,
    "units": len(semi.units()),
    "idempotents": len(semi.idempotents()),
    "clifford": classsemi.regularity_report(semi).is_clifford,
    "build_s": round(elapsed, 2),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, 1),
    "rounds": prov["attempt"] + 1,
    "contexts": prov["contexts"],
    "context_len": prov["context_len"],
    "provenance": prov,
}))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    rows = {}
    for spec in SPECS:
        proc = subprocess.run([sys.executable, "-c", CHILD, spec],
                              capture_output=True, text=True, check=True)
        rows[spec] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(spec, json.dumps(rows[spec]), flush=True)
    reach = {
        "command": "PYTHONPATH=src python3 scripts/class_explore_reach.py",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"CPython {platform.python_version()}",
        "groups": rows,
    }
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out["reach"] = reach
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
