"""Atoms and Davenport constants of D18, D20, D22 and D24, and the full
two-atom splitting scan of D18, beyond the tier-1 tests.

Each row runs in a fresh child process: ``factor.enumerate_atoms`` (the
split-generated atom scan) and ``factor.davenport`` on the atom set, which
also finds d(G) and checks its witness, for D18, D20, D22 and D24; and
``checks.property_P`` over all of D18 (row ``P D18``: verdict, bound and
witness split).  D12, C2xD6, D14 and D16 are tier-1 tests in
``tests/test_factor.py`` and ``tests/test_cli.py``, and the P scan of D14
is pinned in ``tests/test_checks.py``.

    PYTHONPATH=src python3 scripts/atom_reach.py [--out PATH] [--side NAME]

prints one line per row and writes the values, timings and peak RSS to the
"reach.NAME" entry of PATH (default BENCH_value_types.json and side
"change"; other entries are kept).  Run it with PYTHONPATH on another
checkout's ``src`` and ``--side parent`` to record that side.  On a 2-core
x86-64 machine D18 takes about 5 s and 85 MB, D20 about 3 s and 50 MB, D22
about 35 s and 450 MB, D24 about 15 s and 160 MB, and P D18 about 1.1-1.5 s
and 28 MB.
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

from prodone import checks, factor
from prodone.groups import analyze, parse_group

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_value_types.json")
ROWS = ("D18", "D20", "D22", "D24", "P D18")


def measure(row: str) -> dict:
    """For a group spec, its atom count, d(G), D(G) and |G'|; for "P " and a
    spec, the property P verdict of the group, its bound and witness split;
    with time and peak RSS of this process."""
    start = time.perf_counter()
    if row.startswith("P "):
        verdict = checks.property_P(parse_group(row[2:])).as_dict()
        witness = verdict.get("witness")
        out = {
            "holds": verdict["holds"],
            "bound": verdict["bound"],
            "witness_split": witness and witness["split_sequence"],
        }
    else:
        group = parse_group(row)
        atoms = factor.enumerate_atoms(group)
        rep = factor.davenport(group, atoms=atoms)
        out = {
            "atoms": len(atoms),
            "small": rep.small,
            "large": rep.large,
            "commutator_order": analyze(group).commutator.order,
        }
    out["seconds"] = round(time.perf_counter() - start, 2)
    out["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--side", default="change")
    ap.add_argument("--one", metavar="ROW",
                    help="measure one row and print it as JSON")
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(args.one)))
        return
    rows = {}
    for row in ROWS:
        child = subprocess.run([sys.executable, __file__, "--one", row],
                               check=True, capture_output=True, text=True)
        rows[row] = json.loads(child.stdout)
        print(row, json.dumps(rows[row]), flush=True)
    reach = {
        "command": "PYTHONPATH=<checkout>/src python3 scripts/atom_reach.py "
                   f"--side {args.side}",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"CPython {platform.python_version()}",
        "rows": rows,
    }
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out.setdefault("reach", {})[args.side] = reach
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
