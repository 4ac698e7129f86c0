"""prodone benchmark: one workload per process, answers checked, metrics as JSON.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 28 --trace 0

Workloads (see workloads.py and README.md): ``invariants``, ``scan``,
``semigroup`` and ``cli``.  The load is a closed loop with one client: one
job at a time, CLI calls as one subprocess at a time.

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:
set-up (``SETUP_REPEATS`` times) and a whole pass over the job list alternate
while the next pass is likely to end within ``--seconds`` (at least
``MIN_PASSES`` passes), and the medians of set-up and of the passes are
reported.  With ``--trace 1`` the run makes one untraced and one traced pass
and reports the per-layer metrics of the traced pass, plus the tracing
overhead; spans are written to ``.perfbench/`` when it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every wrong answer
is printed on a line of its own before it, and a run with a wrong answer
exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")

WORKLOAD_NAMES = ("invariants", "scan", "semigroup", "cli")
MIN_PASSES = 2
SETUP_REPEATS = 5   # before every pass
IMPORT_REPEATS = 7


def _purge_prodone() -> None:
    for name in [m for m in sys.modules
                 if m in ("prodone", "workloads") or m.startswith("prodone.")]:
        del sys.modules[name]


def setup_times(workload: str, repeats: int) -> list[float]:
    """Times to import prodone and parse the workload's groups.

    Every repetition starts from a fresh import of prodone; the modules of the
    last one stay loaded.  For ``cli`` set-up also creates the private cache
    directory.
    """
    times = []
    for _ in range(repeats):
        _purge_prodone()
        # the dropped module graph is full of reference cycles; collect it
        # here, so that the collector does not run inside the timed import
        gc.collect()
        start = perf_counter()
        workloads = importlib.import_module("workloads")
        for spec in workloads.GROUPS[workload]:
            workloads.parse_group(spec)
        if workload == "cli":
            os.makedirs(workloads.WORK_DIR, exist_ok=True)
            os.rmdir(tempfile.mkdtemp(prefix="setup-", dir=workloads.WORK_DIR))
        times.append(perf_counter() - start)
    gc.collect()
    return times


def new_workload(args):
    """The workload object, built from the modules the last set-up loaded."""
    workloads = sys.modules["workloads"]
    return workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny",
                                              workloads.load_expected())


class Tally:
    """Jobs attempted and failed, job latencies by kind, time per pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency: dict[str, list[float]] = {}
        self.passes: list[float] = []

    def run_pass(self, wl, tracer=None) -> float:
        if tracer is not None:
            tracer.begin_job("prepare")
        jobs = wl.jobs()
        if tracer is not None:
            tracer.end_job()
        busy = 0.0
        try:
            for job in jobs:
                if tracer is not None:
                    tracer.begin_job(job.name)
                start = perf_counter()
                try:
                    result = job.run()
                    problems = None
                except Exception as exc:  # a job that raises is a failed job
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.end_job()
                if problems is None:
                    try:
                        problems = job.check(result)
                    except Exception as exc:  # an answer of the wrong shape
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                busy += elapsed
                self.attempted += 1
                self.latency.setdefault(job.kind, []).append(elapsed)
                if problems:
                    self.failed += 1
                    for p in problems:
                        print(f"FAIL {wl.name} {job.name}: {p}", flush=True)
        finally:
            wl.end_pass()
            # free this pass's garbage cycles before the next one, so that no
            # pass starts with another's memos still in memory
            gc.collect()
        self.passes.append(busy)
        return busy


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, by the nearest-rank rule."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def latency_info(tally: Tally) -> dict:
    """Workload-specific latencies, printed beside the metrics."""
    info = {"passes": len(tally.passes), "pass_s": tally.passes,
            "failed_ratio": tally.failed / tally.attempted if tally.attempted else 0.0}
    query = tally.latency.get("query")
    if query:
        value, pct, n = tail(query)
        info.update(query_ms_p50=1e3 * statistics.median(query),
                    query_ms_tail=1e3 * value, query_tail_percentile=pct,
                    query_samples=n)
    for kind in ("miss", "hit"):
        if tally.latency.get(kind):
            info[f"{kind}_call_ms"] = 1e3 * statistics.median(tally.latency[kind])
    return info


def timed_run(args) -> tuple[Tally, dict]:
    """Set up and run one pass, again and again, until ``args.seconds``.

    Set-up is repeated before every pass, and the pass runs on the modules it
    loaded, so that set-up is sampled over the whole run as the passes are:
    the machine's speed changes in phases of seconds to minutes.
    """
    tally = Tally()
    setups: list[float] = []
    peak_kb = 0
    start = perf_counter()
    # stop before a pass that would likely end after the deadline
    while len(tally.passes) < MIN_PASSES or \
            perf_counter() - start + statistics.median(tally.passes) <= args.seconds:
        setups += setup_times(args.workload, SETUP_REPEATS)
        wl = new_workload(args)
        tally.run_pass(wl)
        peak_kb = max(peak_kb, wl.peak_rss_kb())
        # drop this pass's modules before the next set-up collects them
        del wl
    print("info " + json.dumps(latency_info(tally), sort_keys=True), flush=True)
    return tally, {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "batch_s": {"value": statistics.median(tally.passes), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def cli_import_s() -> float:
    """Median wall time of ``import prodone.cli`` in a fresh interpreter,
    minus that of a bare interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = {"bare": [], "import": []}
    for _ in range(IMPORT_REPEATS):
        for label, code in (("bare", "pass"), ("import", "import prodone.cli")):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True)
            runs[label].append(perf_counter() - start)
    return statistics.median(runs["import"]) - statistics.median(runs["bare"])


def traced_run(wl, workload: str, seed: int, workloads) -> tuple[Tally, dict]:
    import tracer as tracing

    tally = Tally()
    untraced = tally.run_pass(wl)
    compute_ms = getattr(wl, "compute_ms", 0.0)
    tracer = tracing.Tracer()
    summaries, children = [], {}
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    child_dir = tempfile.mkdtemp(prefix="trace-", dir=workloads.WORK_DIR)
    try:
        if workload == "cli":
            wl.command = (sys.executable, TRACED_CLI)
            wl.trace_dir = child_dir
        tracer.install(extra_modules=(workloads,))
        try:
            traced = tally.run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        for name in sorted(os.listdir(child_dir)):
            with open(os.path.join(child_dir, name), "r", encoding="utf-8") as fh:
                child = json.load(fh)
            summaries.append(child["summary"])
            children[name] = child["spans"]
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    merged = tracing.merge(summaries)
    import_s = cli_import_s() if workload == "cli" else 0.0
    metrics, absent = tracing.layer_metrics(merged, import_s, compute_ms)
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    spans_path = os.path.join(workloads.WORK_DIR, f"trace-{workload}-seed{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "untraced_batch_s": untraced,
                   "traced_batch_s": traced, "absent": absent,
                   "spans": [list(s) for s in tracer.spans],
                   "child_spans": children}, fh)
    print("absent " + json.dumps(absent), flush=True)
    return tally, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a small subset of every job list, for the self-tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "prodone", "__init__.py")):
        print(f"error: no prodone sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    if args.trace:
        setup_times(args.workload, 1)
        tally, metrics = traced_run(new_workload(args), args.workload, args.seed,
                                    sys.modules["workloads"])
    else:
        tally, metrics = timed_run(args)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
