"""Cost of the stages of a class semigroup build, per group.

For each of C6, C2xC4, D6, D8, Q8 and D12 it times, on a fresh
``PiEngine``, the three stages of ``classsemi.build``: the context search
(``discover_folds``), the structural checks with Light's associativity test
(``_validate_structure``) and the recognition checks over merged slot-walk
states (``_validate_recognition``, seed 0).  It reports the search's rounds,
contexts and keyed vectors, the product-set memo entries after the build,
and the time of ``invariants.semigroup_davenport`` on the table.  Times are
the least of ``REPEATS`` runs, each on a fresh engine.

    PYTHONPATH=src python3 scripts/semigroup_layer_cost.py [--out PATH]

prints one line per group and writes the rows to PATH under "layer_cost"
(default: BENCH_observation_table.json, whose other entries are kept).  It
takes about ten seconds on a 2-core x86-64 machine.
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
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_observation_table.json")
SPECS = ("C6", "C2xC4", "D6", "D8", "Q8", "D12")
REPEATS = 5


def measure(spec: str) -> dict:
    group = parse_group(spec)
    times: dict[str, list[float]] = {"search_s": [], "structure_s": [],
                                     "recognition_s": [],
                                     "semigroup_davenport_s": []}

    def timed(name, stage):
        start = time.perf_counter()
        out = stage()
        times[name].append(time.perf_counter() - start)
        return out

    for _ in range(REPEATS):
        engine = PiEngine(group)
        semi = timed("search_s", lambda: classsemi.discover_folds(group, engine))
        timed("structure_s", lambda: classsemi._validate_structure(semi))
        timed("recognition_s",
              lambda: classsemi._validate_recognition(semi, engine, 0))
        sd = timed("semigroup_davenport_s",
                   lambda: invariants.semigroup_davenport(semi.op))
    prov = semi.provenance
    return {
        "classes": semi.n_classes,
        "rounds": prov["attempt"] + 1,
        "class_counts": prov["class_counts"],
        "contexts": prov["contexts"],
        "context_len": prov["context_len"],
        "states": prov["states"],
        "recognition_exhaustive_count": prov["recognition_exhaustive_count"],
        "memo_entries": engine.memo_size(),
        "semigroup_davenport": [sd.small, sd.large],
        **{name: round(min(runs), 4) for name, runs in times.items()},
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
