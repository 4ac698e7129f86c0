"""Report schema and content-addressed result cache.

Reports are plain dicts with a fixed key set; the JSON rendering is
canonical (sorted keys, tight separators) so identical computations produce
identical bytes, except for the timing field, which callers strip before
byte comparisons.  Cache files are named by the hash of (group spec, group
table, computation, parameters, schema version, package sources), so a
report computed by other code, or made for another spec, is never served;
writers go through a temp file and an atomic rename; corrupt entries
(unparsable, with another key set than `make_report`'s, or with parameters,
result or provenance not a dict) and stale ones are evicted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from typing import Any, Callable, Optional

from .groups import Group

SCHEMA_VERSION = 1
REPORT_KEYS = frozenset(("schema_version", "group_spec", "computation",
                         "parameters", "result", "provenance", "timing_ms"))


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def make_report(group: Group, computation: str, parameters: dict,
                result: Any, provenance: dict,
                timing_ms: Optional[float] = None) -> dict:
    """A report with exactly the keys of `REPORT_KEYS`."""
    return {
        "schema_version": SCHEMA_VERSION,
        "group_spec": group.spec,
        "computation": computation,
        "parameters": parameters,
        "result": result,
        "provenance": provenance,
        "timing_ms": timing_ms,
    }


@functools.cache
def source_digest() -> str:
    """sha256 over the package's .py files in sorted name order, each
    entering as its name and the sha256 of its bytes; computed once."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(name.encode("utf-8") + b"\0"
                         + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def cache_key(group: Group, computation: str, parameters: dict) -> str:
    payload = canonical_json({
        "schema_version": SCHEMA_VERSION,
        "source": source_digest(),
        "computation": computation,
        "parameters": parameters,
        "spec": group.spec,
        "table": [list(row) for row in group.mul],
        "names": list(group.names),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ReportCache:
    def __init__(self, directory: Optional[str]):
        self.directory = directory
        self.enabled = directory is not None

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            self._evict(path)
            return None
        if not isinstance(report, dict) or report.keys() != REPORT_KEYS or \
                report["schema_version"] != SCHEMA_VERSION or \
                not all(isinstance(report[k], dict)
                        for k in ("parameters", "result", "provenance")):
            self._evict(path)
            return None
        return report

    def put(self, key: str, report: dict) -> None:
        if not self.enabled:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(report))
            os.replace(tmp, self._path(key))
        except OSError as exc:
            print(f"warning: cache write failed, continuing without cache: {exc}",
                  file=sys.stderr)
            self.enabled = False

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass


def cached_report(cache: ReportCache, group: Group, computation: str,
                  parameters: dict,
                  compute: Callable[[], tuple[Any, dict]]) -> tuple[dict, bool]:
    """Fetch a report from the cache or compute and store it.

    Returns (report, was_cache_hit).
    """
    key = cache_key(group, computation, parameters)
    hit = cache.get(key)
    if hit is not None:
        return hit, True
    import time
    start = time.perf_counter()
    result, provenance = compute()
    elapsed = (time.perf_counter() - start) * 1000.0
    report = make_report(group, computation, parameters, result, provenance,
                         round(elapsed, 3))
    cache.put(key, report)
    return report, False
