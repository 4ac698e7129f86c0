"""Spans and counters around prodone's public functions, by attribute replacement.

Nothing in prodone changes: ``Tracer.install`` replaces each target function
in every loaded ``prodone`` module (and the methods on their classes) with a
wrapper that records a span, and ``uninstall`` puts the originals back.  A
target that does not exist is skipped, and the metrics that need it are
reported as absent rather than as zero; so are the counts read from a result
or provenance field that no longer exists.

A span records its name, start, end, parent span and job.  Self time is a
span's duration minus the time its child spans cover.  ``Group.mul_mask``
and ``PiEngine.pi_mask`` are aggregated instead of recorded one by one: a
single class semigroup build calls them millions of times, and a span object
per call would dominate the memory the benchmark measures.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every wrapped function.
TARGETS = (
    ("prodone.groups", "parse_group"),
    ("prodone.groups", "Group.mul_mask"),
    ("prodone.sequences", "PiEngine.__init__"),
    ("prodone.sequences", "PiEngine.pi_mask"),
    ("prodone.factor", "enumerate_atoms"),
    ("prodone.factor", "davenport"),
    ("prodone.factor", "FactorizationContext.lengths"),
    ("prodone.factor", "FactorizationContext.count_factorizations"),
    ("prodone.invariants", "unions_of_lengths"),
    ("prodone.invariants", "delta_set"),
    ("prodone.invariants", "rho_even_certificate"),
    ("prodone.invariants", "omega"),
    ("prodone.invariants", "semigroup_davenport"),
    ("prodone.checks", "property_P"),
    ("prodone.checks", "seminormality"),
    ("prodone.checks", "krull_witness"),
    ("prodone.classsemi", "build"),
    ("prodone.classsemi", "discover_folds"),
    ("prodone.classsemi", "idempotent_structure"),
    ("prodone.classsemi", "unit_and_quotient_subgroups"),
    ("prodone.classsemi", "regularity_report"),
    ("prodone.report", "ReportCache.get"),
)

AGGREGATED = {"Group.mul_mask", "PiEngine.pi_mask", "PiEngine.__init__"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list[tuple] = []       # (id, name, start, end, parent id, job)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)   # outermost spans only
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.engines: list = []
        self.missing: set[str] = set()
        self._stack: list[list] = []       # [child time, nearest recorded span id]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patched: list[tuple] = []    # (owner, attribute, original)

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job: str) -> None:
        self.job = job
        self.enabled = True

    def end_job(self) -> None:
        self.enabled = False

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every target; ``extra_modules`` also get their imported names
        of target functions replaced."""
        for module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(path)
                continue
            wrapper = self._wrap(path, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            # functions imported by name into other modules are patched there too
            modules = [mod for name, mod in sys.modules.items()
                       if name == "prodone" or name.startswith("prodone.")]
            for mod in modules + list(extra_modules):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        depth = self._depth
        record = name not in AGGREGATED
        on_return = _ON_RETURN.get(name)
        is_pi = name == "PiEngine.pi_mask"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent_id = stack[-1][1] if stack else None
            span_id = parent_id
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            if is_pi:
                before = args[0].memo_size()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[0]
                if not depth[name]:
                    tracer.total[name] += duration
                if stack:
                    stack[-1][0] += duration
                if record:
                    tracer.spans.append((span_id, name, start, end, parent_id,
                                         tracer.job))
            if is_pi and args[0].memo_size() == before:
                tracer.counts["pi_hits"] += 1
            if on_return is not None:
                try:
                    on_return(tracer, args, result)
                except (AttributeError, KeyError, TypeError):
                    # the result no longer has the shape a count reads
                    tracer.missing.add(f"{name} result")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates that merge by addition (see ``merge``)."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts,
                           memo_entries=sum(e.memo_size() for e in self.engines)),
            "missing": sorted(self.missing),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(),
                       "spans": [list(s) for s in self.spans]}, fh)


def _record_engine(tracer: Tracer, args, result) -> None:
    tracer.engines.append(args[0])


def _count_union_products(tracer: Tracer, args, result) -> None:
    tracer.counts["union_products"] += result.n_products


def _count_atoms(tracer: Tracer, args, result) -> None:
    tracer.counts["atoms"] += len(result.atoms)


def _count_build(tracer: Tracer, args, result) -> None:
    """Counts from the provenance of a class semigroup; a provenance field
    that no longer exists makes its metric absent."""
    prov = result.provenance
    tracer.counts["classes"] += result.n_classes
    for metric, keys, extra in (
            ("folded_states", ("states",), 0),
            ("attempts", ("attempt",), 1),
            ("recognition_checks", ("recognition_exhaustive_count",
                                    "recognition_random_count"), 0)):
        if all(k in prov for k in keys):
            tracer.counts[metric] += sum(prov[k] for k in keys) + extra
        else:
            tracer.missing.add(f"provenance.{metric}")


def _count_cache(tracer: Tracer, args, result) -> None:
    tracer.counts["cache_misses" if result is None else "cache_hits"] += 1


_ON_RETURN = {
    "PiEngine.__init__": _record_engine,
    "unions_of_lengths": _count_union_products,
    "enumerate_atoms": _count_atoms,
    "build": _count_build,
    "ReportCache.get": _count_cache,
}


def merge(summaries: list[dict]) -> dict:
    out = {"calls": defaultdict(int), "total": defaultdict(float),
           "self_time": defaultdict(float), "counts": defaultdict(int),
           "missing": set()}
    for s in summaries:
        for key in ("calls", "total", "self_time", "counts"):
            for name, value in s[key].items():
                out[key][name] += value
        out["missing"].update(s["missing"])
    return out


def layer_metrics(s: dict, import_s: float, compute_ms: float) -> tuple[dict, list]:
    """Per-layer metrics from a merged summary: (metrics, absent names)."""
    calls, total, self_time, counts = (s["calls"], s["total"], s["self_time"],
                                       s["counts"])
    pi_calls = calls.get("PiEngine.pi_mask", 0)
    reports = ("idempotent_structure", "unit_and_quotient_subgroups",
               "regularity_report")
    table = {
        "groups.parse_s": (("parse_group",), "s", total.get("parse_group", 0.0)),
        "groups.mul_mask_calls": (("Group.mul_mask",), "count",
                                  calls.get("Group.mul_mask", 0)),
        "groups.mul_mask_self_s": (("Group.mul_mask",), "s",
                                   self_time.get("Group.mul_mask", 0.0)),
        "sequences.pi_calls": (("PiEngine.pi_mask",), "count", pi_calls),
        "sequences.pi_hit_ratio": (("PiEngine.pi_mask",), "ratio",
                                   counts.get("pi_hits", 0) / pi_calls if pi_calls else 0.0),
        "sequences.pi_self_s": (("PiEngine.pi_mask",), "s",
                                self_time.get("PiEngine.pi_mask", 0.0)),
        "sequences.memo_entries": (("PiEngine.__init__",), "count",
                                   counts.get("memo_entries", 0)),
        "factor.enumerate_atoms_s": (("enumerate_atoms",), "s",
                                     total.get("enumerate_atoms", 0.0)),
        "factor.atoms": (("enumerate_atoms", "enumerate_atoms result"), "count",
                         counts.get("atoms", 0)),
        "factor.davenport_s": (("davenport",), "s", total.get("davenport", 0.0)),
        "factor.lengths_s": (("FactorizationContext.lengths",), "s",
                             total.get("FactorizationContext.lengths", 0.0)),
        "factor.count_factorizations_s": (
            ("FactorizationContext.count_factorizations",), "s",
            total.get("FactorizationContext.count_factorizations", 0.0)),
        "invariants.unions_s": (("unions_of_lengths",), "s",
                                total.get("unions_of_lengths", 0.0)),
        "invariants.union_products": (("unions_of_lengths", "unions_of_lengths result"),
                                      "count", counts.get("union_products", 0)),
        "invariants.delta_s": (("delta_set",), "s", total.get("delta_set", 0.0)),
        "invariants.rho_certificate_s": (("rho_even_certificate",), "s",
                                         total.get("rho_even_certificate", 0.0)),
        "invariants.omega_s": (("omega",), "s", total.get("omega", 0.0)),
        "invariants.semigroup_davenport_s": (("semigroup_davenport",), "s",
                                             total.get("semigroup_davenport", 0.0)),
        "checks.property_P_s": (("property_P",), "s", total.get("property_P", 0.0)),
        "checks.seminormality_s": (("seminormality",), "s",
                                   total.get("seminormality", 0.0)),
        "checks.krull_s": (("krull_witness",), "s", total.get("krull_witness", 0.0)),
        "classsemi.build_s": (("build",), "s", self_time.get("build", 0.0)),
        "classsemi.discover_folds_s": (("discover_folds",), "s",
                                       total.get("discover_folds", 0.0)),
        "classsemi.folded_states": (("build", "build result", "provenance.folded_states"),
                                    "count", counts.get("folded_states", 0)),
        "classsemi.classes": (("build", "build result"), "count",
                              counts.get("classes", 0)),
        "classsemi.attempts": (("build", "build result", "provenance.attempts"),
                               "count", counts.get("attempts", 0)),
        "classsemi.recognition_checks": (
            ("build", "build result", "provenance.recognition_checks"), "count",
            counts.get("recognition_checks", 0)),
        "classsemi.reports_s": (reports, "s",
                                sum(total.get(name, 0.0) for name in reports)),
        "cli.import_s": ((), "s", import_s),
        "report.compute_ms": ((), "ms", compute_ms),
        "report.cache_hits": (("ReportCache.get",), "count", counts.get("cache_hits", 0)),
        "report.cache_misses": (("ReportCache.get",), "count",
                                counts.get("cache_misses", 0)),
    }
    missing = s["missing"]
    metrics, absent = {}, []
    for name, (needs, unit, value) in table.items():
        if any(t in missing for t in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent

