"""Cost of the lengths layer (U_k, Delta, omega's witness check), before and
after a change, on two checkouts.

    python3 scripts/lengths_sweep_cost.py pairs PARENT CHANGE [--seeds 10] [--seconds 28]
    python3 scripts/lengths_sweep_cost.py traced PARENT CHANGE
    python3 scripts/lengths_sweep_cost.py reach PARENT CHANGE

PARENT and CHANGE are checkouts, each with its own ``src/`` and
``perfbench/``.  Each part prints one line per measurement and writes its
entry ("workloads", "traced" or "reach") of ``--out`` (default
BENCH_lengths_sweep.json; other entries are kept).

- ``pairs`` runs ``perfbench/run.py --trace 0`` on every workload for seeds
  1..N, the two sides alternating which runs first from seed to seed (odd
  seeds: parent first), and reports the medians and quartiles of the
  end-to-end metrics and the seeds on which the change read lower.  At 28 s
  a run, ten seeds take about 40 minutes on a 2-core x86-64 machine.
- ``traced`` runs ``perfbench/run.py --trace 1 --seed 1`` on ``invariants``
  and ``semigroup`` on each side and keeps the per-layer metrics.
- ``reach`` times longer lengths-layer calls, one child process per call and
  side: each call runs ``REPEATS`` times (once for the rows that name their
  own count) on a fresh ``GroupInvariants`` (built outside the timing) and
  the least time is kept, with the answer (which both sides must give) and
  the child's peak RSS.  U_3(D10) passes ``budget=20_000_000`` itself: |Z_3|
  is 15.1M there, above the default ``UNION_PRODUCT_BUDGET`` of 2M, which
  stays as it is.  Its row runs once and takes minutes and up to 1.5 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(os.path.dirname(HERE), "BENCH_lengths_sweep.json")
WORKLOADS = ("invariants", "scan", "semigroup", "cli")
METRICS = ("setup_s", "batch_s", "peak_rss_mb")
TRACED = ("invariants", "semigroup")
REPEATS = 3

# name -> (group spec, code run on `g` and a fresh `inv`, returning the
# answer[, repeats])
REACH = {
    "unions of the invariants workload": (
        "C6 C2xC4 D6 D8 Q8",
        "[list(unions_of_lengths(g, k, inv).union) "
        "for k in range(1, 3 if g.spec == 'Q8' else 4)]"),
    "delta_set(G, 8) of the invariants workload": (
        "C6 C2xC4 D6 D8 Q8", "list(delta_set(g, 8, inv).delta)"),
    "unions_of_lengths Q8 3": (
        "Q8", "[list((r := unions_of_lengths(g, 3, inv)).union), "
              "r.n_products, r.n_canonical]"),
    "unions_of_lengths D10 3, budget 20M": (
        "D10", "[list((r := unions_of_lengths(g, 3, inv, budget=20_000_000))"
               ".union), r.n_products, r.n_canonical]", 1),
    "unions_of_lengths D8 4": (
        "D8", "[list((r := unions_of_lengths(g, 4, inv)).union), "
              "r.n_products, r.n_canonical]"),
    "rho_bounds_check D6 5 enum_max_k=5": (
        "D6", "list(rho_bounds_check(g, 5, inv, enum_max_k=5).rho)"),
    "delta_set D8 12": ("D8", "list(delta_set(g, 12, inv).delta)"),
    "delta_set D6 12": ("D6", "list(delta_set(g, 12, inv).delta)"),
    "delta_set C2xC2xC2xC2 6": (
        "C2xC2xC2xC2", "list(delta_set(g, 6, inv).delta)"),
    "omega witness check Q8, warm pi memo": (
        "Q8", "[_verified_witness_size(a, f, inv.engine) for a, f in pairs]"),
}

CHILD = """
import json, resource, sys, time
from prodone.groups import parse_group
from prodone.invariants import (GroupInvariants, _inverse_pair_factors,
    _verified_witness_size, delta_set, rho_bounds_check, unions_of_lengths)
specs, code, repeats = sys.argv[1].split(), sys.argv[2], int(sys.argv[3])
best, answer = None, []
for _ in range(repeats):
    elapsed, answer = 0.0, []
    for spec in specs:
        g = parse_group(spec)
        inv = GroupInvariants(g)
        if "pairs" in code:
            pairs = [(a, _inverse_pair_factors(a, inv.engine))
                     for a in inv.atoms.atoms]
            [_verified_witness_size(a, f, inv.engine) for a, f in pairs]
        start = time.perf_counter()
        answer.append(eval(code))
        elapsed += time.perf_counter() - start
    best = elapsed if best is None else min(best, elapsed)
print(json.dumps({"wall_s": round(best, 4), "answer": answer,
                  "peak_rss_mb": round(resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def machine() -> str:
    return (f"{os.cpu_count()}-core {platform.machine()}, "
            f"CPython {platform.python_version()}")


def perfbench(side: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in the checkout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(side, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{side} {workload}: no result\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def pairs(sides: dict, seeds: int, seconds: float) -> dict:
    raw = {w: {m: {"parent": [], "change": []} for m in METRICS}
           for w in WORKLOADS}
    counts = {w: {k: {"parent": 0, "change": 0}
                  for k in ("attempted_operations", "failed_operations")}
              for w in WORKLOADS}
    for seed in range(1, seeds + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in WORKLOADS:
            for label in order:
                got = perfbench(sides[label], workload, seed, seconds, 0)
                counts[workload]["attempted_operations"][label] += got["attempted"]
                counts[workload]["failed_operations"][label] += got["failed"]
                for m in METRICS:
                    raw[workload][m][label].append(got["metrics"][m]["value"])
                print(seed, workload, label, json.dumps(
                    {m: got["metrics"][m]["value"] for m in METRICS}),
                    flush=True)
    out = {}
    for workload in WORKLOADS:
        row = {"seeds": list(range(1, seeds + 1)), **counts[workload]}
        for m in METRICS:
            parent, change = raw[workload][m]["parent"], raw[workload][m]["change"]
            row[m] = {
                "parent": summary(parent), "change": summary(change),
                "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
                "median_change_pct": round(100.0 * (statistics.median(change)
                                                    / statistics.median(parent)
                                                    - 1), 1),
            }
        out[workload] = row
    return out


def traced(sides: dict) -> dict:
    out = {}
    for workload in TRACED:
        out[workload] = {}
        for label, side in sides.items():
            got = perfbench(side, workload, 1, 0, 1)
            out[workload][label] = {name: round(m["value"], 4)
                                    for name, m in sorted(got["metrics"].items())}
            print(workload, label, json.dumps(out[workload][label]), flush=True)
    return out


def reach(sides: dict) -> dict:
    out = {}
    for name, (specs, code, *repeats) in REACH.items():
        out[name] = {}
        repeats = repeats[0] if repeats else REPEATS
        for label, side in sides.items():
            env = dict(os.environ, PYTHONPATH=os.path.join(side, "src"))
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, specs, code, str(repeats)],
                env=env, capture_output=True, text=True, check=True)
            out[name][label] = {"repeats": repeats, **json.loads(
                proc.stdout.strip().splitlines()[-1])}
            print(name, label, out[name][label]["wall_s"],
                  out[name][label]["peak_rss_mb"], flush=True)
        answers = {json.dumps(row["answer"]) for row in out[name].values()}
        if len(answers) != 1:
            raise SystemExit(f"{name}: the two sides disagree")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("part", choices=("pairs", "traced", "reach"))
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if args.part == "pairs":
        entry = {"command": f"perfbench/run.py --workload <w> --seed <s> "
                            f"--seconds {args.seconds:g} --trace 0",
                 **pairs(sides, args.seeds, args.seconds)}
        key = "workloads"
    elif args.part == "traced":
        entry, key = traced(sides), "traced"
    else:
        entry, key = {"rows": reach(sides)}, "reach"
    entry["machine"] = machine()
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    out[key] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
