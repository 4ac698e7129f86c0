"""Cost of the stages of a class semigroup build, per group.

For each of C6, C2xC4, D6, D8, Q8, D12, C2xD6, D10 and D16 (or the
groups named by ``--specs``) it times, on a fresh
``PiEngine``, the three stages of ``classsemi.build``: the context search
(``discover_folds``), the structural checks with Light's associativity test
(``_validate_structure``) and the recognition checks
(``_validate_recognition``, seed 0).  Recognition is split three ways by
timing the calls made inside it: the exhaustive checks over merged
slot-walk states (``classsemi._check_states``), the Davenport bound that
sets the lengths (``factor.small_davenport``), and the rest, the seeded
random sequences.  It also times the three reports that the ``semigroup``
benchmark workload asks for (``idempotent_structure``,
``unit_and_quotient_subgroups``, ``regularity_report``) and
``invariants.semigroup_davenport`` on the table (where it exceeds its
budget, once, up to the error, with its message), and reports the search's
rounds, contexts and keyed vectors and the product-set memo entries after
the build.  Times are the least of ``REPEATS`` runs (fewer for the large
tables), each on a fresh engine.

    PYTHONPATH=src python3 scripts/semigroup_layer_cost.py [--out PATH] [--label NAME]
        [--specs G ...]

prints one line per group and writes the rows to PATH under
"layer_cost" -> NAME (default label "change", default PATH
BENCH_recognition.json; other entries are kept).  The split of recognition
reads only names that older checkouts have too, so the script can time
another checkout's sources (``PYTHONPATH=<checkout>/src --label parent``)
for a before and after.
It takes about twenty seconds on a 2-core x86-64 machine, most of it the
searches of D16 and D10.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time

from prodone import classsemi, factor, invariants
from prodone.errors import BudgetExceededError
from prodone.groups import parse_group
from prodone.sequences import PiEngine

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_recognition.json")
SPECS = ("C6", "C2xC4", "D6", "D8", "Q8", "D12", "C2xD6", "D10", "D16")
REPEATS = 5
FEWER_REPEATS = {"D10": 3, "D16": 3}


class Timed:
    """A module function replaced by a wrapper that adds its wall time to
    ``spent``, for as long as the ``with`` block runs."""

    def __init__(self, module, name: str):
        self.module, self.name, self.spent = module, name, 0.0

    def __enter__(self):
        inner = self.inner = getattr(self.module, self.name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.spent += time.perf_counter() - start

        setattr(self.module, self.name, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.inner)


def measure(spec: str) -> dict:
    group = parse_group(spec)
    times: dict[str, list[float]] = {
        name: [] for name in ("search_s", "structure_s", "recognition_s",
                              "recognition_exhaustive_s",
                              "recognition_davenport_s", "recognition_random_s",
                              "reports_s", "semigroup_davenport_s")}

    def timed(name, stage):
        start = time.perf_counter()
        out = stage()
        times[name].append(time.perf_counter() - start)
        return out

    sd = None
    for _ in range(FEWER_REPEATS.get(spec, REPEATS)):
        engine = PiEngine(group)
        semi = timed("search_s", lambda: classsemi.discover_folds(group, engine))
        timed("structure_s", lambda: classsemi._validate_structure(semi))
        with Timed(classsemi, "_check_states") as exhaustive, \
                Timed(factor, "small_davenport") as davenport:
            timed("recognition_s",
                  lambda: classsemi._validate_recognition(semi, engine, 0))
        times["recognition_exhaustive_s"].append(exhaustive.spent)
        times["recognition_davenport_s"].append(davenport.spent)
        times["recognition_random_s"].append(
            times["recognition_s"][-1] - exhaustive.spent - davenport.spent)
        timed("reports_s", lambda: (classsemi.idempotent_structure(semi),
                                    classsemi.unit_and_quotient_subgroups(semi),
                                    classsemi.regularity_report(semi)))
        if not isinstance(sd, str):  # a budget error is timed once
            start = time.perf_counter()
            try:
                got = invariants.semigroup_davenport(semi.op)
                sd = [got.small, got.large]
            except BudgetExceededError as exc:
                sd = str(exc)
            times["semigroup_davenport_s"].append(time.perf_counter() - start)
    prov = semi.provenance
    return {
        "classes": semi.n_classes,
        "rounds": prov["attempt"] + 1,
        "class_counts": prov["class_counts"],
        "contexts": prov["contexts"],
        "context_len": prov["context_len"],
        "states": prov["states"],
        "recognition_exhaustive_len": prov["recognition_exhaustive_len"],
        "recognition_exhaustive_count": prov["recognition_exhaustive_count"],
        "recognition_random_max_len": prov["recognition_random_max_len"],
        "memo_entries": engine.memo_size(),
        "semigroup_davenport": sd,
        "repeats": len(times["search_s"]),
        **{name: round(min(runs), 4) for name, runs in times.items() if runs},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--label", default="change")
    ap.add_argument("--specs", nargs="+", default=SPECS)
    args = ap.parse_args()
    rows = {}
    for spec in args.specs:
        rows[spec] = measure(spec)
        print(spec, json.dumps(rows[spec]), flush=True)
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out.setdefault("layer_cost", {})[args.label] = {
        "command": "PYTHONPATH=<checkout>/src python3 "
                   f"scripts/semigroup_layer_cost.py --label {args.label}",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"CPython {platform.python_version()}",
        "rows": rows,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024, 1),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
