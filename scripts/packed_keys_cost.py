"""Cost of the pi memo keys and the atom scan's orbit images, parent against change.

    python3 scripts/packed_keys_cost.py --parent DIR [--rounds 12] [--passes 5]
        [--out BENCH_packed_keys.json]

DIR is a checkout of the parent commit (``git archive`` or ``git clone``);
this checkout is the change.  Every child process runs one side's ``src``
with this checkout's ``perfbench`` job lists, which the two sides share.

* Passes: in each round, each side runs ``--passes`` in-process passes of
  the ``invariants``, ``scan`` and ``semigroup`` workloads (seed 1), timed
  as ``perfbench/run.py`` times a pass: the sum of the jobs' run times,
  checks untimed.  The sides alternate which goes first.  Printed and
  stored: each side's per-round median, and the median of the per-round
  ratios change / parent with the number of rounds the change was faster.
* Counts: each engine's ``memo_size()`` at the end of one pass, by
  workload and group, and the witness checks ``omega`` makes against the
  atoms it reports, on C6, C2xC4, D6, D8, Q8 and D12.  A change that leaves
  the pi DP's queries alone leaves every count equal
  (``memo_sizes_equal``); one that asks other queries shows which engines
  moved.
* Jobs: ``omega(D12)`` (with its class semigroup built untimed, and a fresh
  session), ``property_P(D14)`` (the ``scan`` workload's largest job),
  ``property_P(D18)`` and ``davenport(D18)``, each in a child of its own,
  ``REPEATS`` times per side, the sides alternating which goes first from
  repeat to repeat, so a burst of noise does not land on one side only;
  the least wall time is kept.

It takes about four minutes on a 2-core x86-64 machine with the defaults.
Its keys of ``--out`` are rewritten and other keys are kept, such as the
``workloads`` entry that ``scripts/lengths_sweep_cost.py pairs PARENT CHANGE
--out BENCH_packed_keys.json`` writes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
DEFAULT_OUT = os.path.join(ROOT, "BENCH_packed_keys.json")
WORKLOADS = ("invariants", "scan", "semigroup")
OMEGA_GROUPS = ("C6", "C2xC4", "D6", "D8", "Q8", "D12")
JOBS = ("omega D12", "property_P D14", "property_P D18", "davenport D18")
REPEATS = 3


def run_passes(workload: str, passes: int) -> dict:
    """``passes`` timed passes of one workload, and the memo size of every
    engine made in the last one, as "group: size" strings in order."""
    sys.path.insert(0, PERFBENCH)
    import gc

    import workloads
    from prodone import sequences

    engines = []
    init = sequences.PiEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    sequences.PiEngine.__init__ = recording_init
    times = []
    for _ in range(passes):
        engines.clear()
        wl = workloads.WORKLOADS[workload](1, False, workloads.load_expected())
        busy = 0.0
        for job in wl.jobs():
            start = time.perf_counter()
            result = job.run()
            busy += time.perf_counter() - start
            problems = job.check(result)
            if problems:
                raise SystemExit(f"{workload} {job.name}: {problems}")
        wl.end_pass()
        memo = [f"{e.group.spec}: {e.memo_size()}" for e in engines]
        del wl
        gc.collect()
        times.append(busy)
    return {"pass_s": times, "memo_sizes": memo}


def omega_checks() -> dict:
    """Witness checks of ``omega`` and atoms, per group."""
    from prodone import classsemi, invariants
    from prodone.groups import parse_group

    out = {}
    check = invariants._verified_witness_size
    for spec in OMEGA_GROUPS:
        calls = []
        invariants._verified_witness_size = (
            lambda atom, *rest: calls.append(atom) or check(atom, *rest))
        group = parse_group(spec)
        semi = None if group.is_abelian else classsemi.build(group)
        inv = invariants.GroupInvariants(group)
        rep = invariants.omega(group, semi, inv)
        invariants._verified_witness_size = check
        out[spec] = {"atoms": len(inv.atoms), "checks": len(calls),
                     "lower": rep.lower, "upper": rep.upper}
    return out


def run_job(name: str) -> dict:
    from prodone import checks, classsemi, factor, invariants
    from prodone.groups import parse_group

    job, spec = name.split()
    group = parse_group(spec)
    if job == "omega":
        semi = classsemi.build(group)
        start = time.perf_counter()
        invariants.omega(group, semi)
    elif job == "property_P":
        start = time.perf_counter()
        checks.property_P(group)
    else:
        start = time.perf_counter()
        factor.davenport(group)
    return {"wall_s": round(time.perf_counter() - start, 4)}


def child(side: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(side, "src"))
    proc = subprocess.run([sys.executable, __file__, *args], env=env,
                          cwd=side, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{side} {args}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        what, *rest = args.child
        if what == "passes":
            got = run_passes(rest[0], int(rest[1]))
        elif what == "omega":
            got = omega_checks()
        else:
            got = run_job(" ".join(rest))
        print(json.dumps(got))
        return
    if not args.parent:
        ap.error("--parent is required")
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    out = {"command": "python3 scripts/packed_keys_cost.py --parent DIR "
                      f"--rounds {args.rounds} --passes {args.passes}",
           "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                      f"CPython {platform.python_version()}"}

    rounds = {w: {"parent": [], "change": []} for w in WORKLOADS}
    memo = {w: {} for w in WORKLOADS}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for label in order:
                got = child(sides[label], "--child", "passes", workload,
                            str(args.passes))
                rounds[workload][label].append(statistics.median(got["pass_s"]))
                memo[workload][label] = got["memo_sizes"]
            print(r, workload, {k: round(v[-1], 4)
                                for k, v in rounds[workload].items()}, flush=True)
    passes = {}
    for workload, sides_s in rounds.items():
        ratios = [c / p for p, c in zip(sides_s["parent"], sides_s["change"])]
        passes[workload] = {
            "parent_median_s": round(statistics.median(sides_s["parent"]), 4),
            "change_median_s": round(statistics.median(sides_s["change"]), 4),
            "median_ratio": round(statistics.median(ratios), 3),
            "change_faster_rounds": sum(r < 1 for r in ratios),
            "rounds": len(ratios),
            "parent_s": [round(x, 4) for x in sides_s["parent"]],
            "change_s": [round(x, 4) for x in sides_s["change"]],
        }
        print(workload, json.dumps({k: v for k, v in passes[workload].items()
                                    if not k.endswith("_s")}))
    out["passes"] = passes
    out["memo_sizes"] = memo
    out["memo_sizes_equal"] = all(m["parent"] == m["change"]
                                  for m in memo.values())
    out["omega_checks"] = {label: child(side, "--child", "omega")
                           for label, side in sides.items()}
    print("omega checks", json.dumps(out["omega_checks"]))
    jobs = {}
    for name in JOBS:
        walls = {label: [] for label in sides}
        for r in range(REPEATS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for label in order:
                walls[label].append(child(sides[label], "--child", "job",
                                          *name.split())["wall_s"])
        jobs[name] = {label: min(w) for label, w in walls.items()}
        print(name, json.dumps(jobs[name]), flush=True)
    out["jobs_least_wall_s"] = jobs
    record = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    record.update(out)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
