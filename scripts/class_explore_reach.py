"""The class semigroup of D10, beyond the tier-1 tests.

Builds it with ``classsemi.build`` (every validator runs).  D12, and C2xD6
through an op-table isomorphism onto D12, are tier-1 tests in
``tests/test_classsemi.py``.

    PYTHONPATH=src python3 scripts/class_explore_reach.py [--out PATH]

prints one line per group and writes the values and timings to PATH
(default: the "reach" entry of BENCH_class_explore.json, whose other
entries are kept).  It takes about 16 s and 110 MB on a 2-core x86-64
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time

from prodone import classsemi
from prodone.groups import parse_group

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_class_explore.json")
SPECS = ("D10",)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    rows = {}
    for spec in SPECS:
        start = time.perf_counter()
        semi = classsemi.build(parse_group(spec))
        elapsed = time.perf_counter() - start
        rows[spec] = {
            "classes": semi.n_classes,
            "units": len(semi.units()),
            "idempotents": len(semi.idempotents()),
            "clifford": classsemi.regularity_report(semi).is_clifford,
            "build_s": round(elapsed, 2),
            "provenance": semi.provenance,
        }
        print(spec, json.dumps(rows[spec]), flush=True)
    reach = {
        "command": "PYTHONPATH=src python3 scripts/class_explore_reach.py",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"CPython {platform.python_version()}",
        "groups": rows,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, 1),
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
