"""Atoms and Davenport constants of D18 and D20, beyond the tier-1 tests.

Each group runs in a fresh child process: ``factor.enumerate_atoms`` (the
split-generated atom scan) and ``factor.davenport`` on the atom set, which
also finds d(G) and checks its witness.  D12, C2xD6, D14 and D16 are tier-1
tests in ``tests/test_factor.py`` and ``tests/test_cli.py``.

    PYTHONPATH=src python3 scripts/atom_reach.py [--out PATH]

prints one line per group and writes the values, timings and peak RSS to
PATH (default: the "reach" entry of BENCH_split_atoms.json, whose other
entries are kept).  On a 2-core x86-64 machine D18 takes about 12 s and
125 MB, and D20 about 5 s and 70 MB.
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

from prodone import factor
from prodone.groups import analyze, parse_group

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_split_atoms.json")
SPECS = ("D18", "D20")


def measure(spec: str) -> dict:
    """Atom count, d(G), D(G) and |G'| of one group, with time and peak RSS
    of this process."""
    start = time.perf_counter()
    group = parse_group(spec)
    atoms = factor.enumerate_atoms(group)
    rep = factor.davenport(group, atoms=atoms)
    elapsed = time.perf_counter() - start
    return {
        "atoms": len(atoms),
        "small": rep.small,
        "large": rep.large,
        "commutator_order": analyze(group).commutator.order,
        "seconds": round(elapsed, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, 1),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--one", metavar="SPEC",
                    help="measure one group and print its row as JSON")
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(args.one)))
        return
    rows = {}
    for spec in SPECS:
        child = subprocess.run([sys.executable, __file__, "--one", spec],
                               check=True, capture_output=True, text=True)
        rows[spec] = json.loads(child.stdout)
        print(spec, json.dumps(rows[spec]), flush=True)
    reach = {
        "command": "PYTHONPATH=src python3 scripts/atom_reach.py",
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
