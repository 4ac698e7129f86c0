"""Repeat the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/proof.py --out perfbench/baseline.json

Runs ``run.py`` for every workload of BENCHMARK.json with seeds 1 to 10 and
``run_seconds`` from BENCHMARK.json, one process at a time, then one traced
run per workload with the first seed.  For every end-to-end metric it
reports the ten values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and the spread (third minus first
quartile, as a share of the median), checked against a third of the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    result = json.loads(lines[-1])
    result.update(exit_code=proc.returncode, info=info)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "steady": spread < bound / 3}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        entry: dict = {
            "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {}, "info": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = summarise(values, bound)
            s = entry["end_to_end"][name]
            print(f"{workload:11s} {name:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.3f} (bound {bound}) "
                  f"{'ok' if s['steady'] else 'WIDE'}", flush=True)
        for key in sorted({k for r in runs for k in r["info"]}):
            values = [r["info"][key] for r in runs if key in r["info"]]
            if isinstance(values[0], list):
                entry["info"][key] = values
            else:
                entry["info"][key] = {"median": statistics.median(values),
                                      "min": min(values), "max": max(values)}
        traced = run(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "correct": traced["correct"],
                           "per_layer": {k: v["value"]
                                         for k, v in traced["metrics"].items()}}
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
