"""Cost of the class semigroup layer's two searches, per group.

For each of C6, C2xC4, D6, D8, Q8 and D12 it builds the class semigroup
with a fresh ``PiEngine`` (``classsemi.discover_folds``, then
``_validate_structure``), and times ``_validate_recognition`` (seed 0)
alone.  It reports the product-set memo entries after that build, and the
time of ``invariants.semigroup_davenport`` on the table.  Times are the
least of ``REPEATS`` runs, each on a fresh engine.

    PYTHONPATH=src python3 scripts/semigroup_layer_cost.py [--out PATH]

prints one line per group and writes the rows to PATH under "layer_cost"
(default: BENCH_semigroup_walk.json, whose other entries are kept).  It
takes about a minute and a half on a 2-core x86-64 machine, most of it
on D12.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time

from prodone import classsemi, invariants
from prodone.groups import parse_group
from prodone.sequences import PiEngine

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_semigroup_walk.json")
SPECS = ("C6", "C2xC4", "D6", "D8", "Q8", "D12")
REPEATS = 5


def measure(spec: str) -> dict:
    group = parse_group(spec)
    recognition, davenport = [], []
    for _ in range(REPEATS):
        engine = PiEngine(group)
        semi = classsemi.discover_folds(group, engine)
        classsemi._validate_structure(semi, engine)
        start = time.perf_counter()
        classsemi._validate_recognition(semi, engine, 0)
        recognition.append(time.perf_counter() - start)
        start = time.perf_counter()
        sd = invariants.semigroup_davenport(semi.op)
        davenport.append(time.perf_counter() - start)
    return {
        "classes": semi.n_classes,
        "recognition_exhaustive_count":
            semi.provenance["recognition_exhaustive_count"],
        "recognition_s": round(min(recognition), 4),
        "memo_entries": engine.memo_size(),
        "semigroup_davenport": [sd.small, sd.large],
        "semigroup_davenport_s": round(min(davenport), 4),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    rows = {}
    for spec in SPECS:
        rows[spec] = measure(spec)
        print(spec, json.dumps(rows[spec]), flush=True)
    layer = {
        "command": "PYTHONPATH=src python3 scripts/semigroup_layer_cost.py",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"CPython {platform.python_version()}",
        "rows": rows,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, 1),
    }
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out["layer_cost"] = layer
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
