"""Modules loaded and import time of the nine CLI calls of the ``cli`` benchmark.

    python3 scripts/cli_import_cost.py [--src DIR] [--repeats N]
                                       [--out PATH --side NAME]

Each call of the ``cli`` workload in ``perfbench/workloads.py`` runs in a
fresh interpreter under ``-X importtime``, first as a miss on an empty cache
and then as a hit, and the script prints the ``prodone`` modules it loaded,
the cumulative import time of ``prodone.cli`` and the total import time of
every ``prodone`` module the call loaded (lazily loaded ones included), as
medians of N repetitions.  It does so for two copies of the sources in DIR
(default: this checkout's ``src``): one with no bytecode cache, so every
module is compiled from source on every call, as where ``__pycache__`` is
not written, and one compiled beforehand.

With ``--out`` the rows are also stored under ``imports.<side>`` of that
JSON file (default side ``change``), whose other entries are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the calls of the cli workload; its --seq literal is drawn from a seed there
CALLS = (
    ("group", ["group", "D8"]),
    ("omega", ["omega", "C6"]),
    ("lengths", ["lengths", "D6", "--seq", "a^2,b^2", "--count"]),
    ("atoms", ["atoms", "Q8"]),
    ("davenport", ["davenport", "D8"]),
    ("unions", ["unions", "D6", "-k", "2"]),
    ("check", ["check", "D6", "--property", "seminormal"]),
    ("class-semigroup", ["class-semigroup", "D6"]),
    ("atlas", ["atlas", "C3", "C4", "D6"]),
)

CHILD = ("import sys\n"
         "from prodone.cli import main\n"
         "main(sys.argv[1:])\n"
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('prodone'))))\n")


def top_level_imports(stderr: str) -> dict[str, int]:
    """Cumulative microseconds of each outermost import in `-X importtime`
    output, by module name."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, field = line.split("|")
        name = field[1:]
        if cumulative.strip().isdigit() and not name.startswith(" "):
            out[name] = int(cumulative)
    return out


def run_call(src: str, argv: list[str], cache: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD,
                           *argv, "--cache-dir", cache],
                          env=env, capture_output=True, text=True, check=True)
    imports = top_level_imports(proc.stderr)
    return {
        "hit": "[cached]" in proc.stdout.splitlines()[0],
        "modules": proc.stdout.splitlines()[-1].split(),
        "cli_us": imports["prodone.cli"],
        "prodone_us": sum(us for name, us in imports.items()
                          if name.split(".")[0] == "prodone"),
    }


def measure(src: str, repeats: int) -> dict:
    """Rows keyed "<call>/<miss|hit>/<no_pyc|pyc>"."""
    runs: dict[str, list[dict]] = {}
    with tempfile.TemporaryDirectory(prefix="cli-imports-") as tmp:
        trees = {}
        for mode in ("no_pyc", "pyc"):
            trees[mode] = os.path.join(tmp, mode)
            shutil.copytree(os.path.join(src, "prodone"),
                            os.path.join(trees[mode], "prodone"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", trees["pyc"]],
                       check=True)
        for rep in range(repeats):
            for mode, tree in trees.items():
                cache = os.path.join(tmp, f"cache-{mode}-{rep}")
                for phase in ("miss", "hit"):
                    for label, argv in CALLS:
                        row = run_call(tree, argv, cache)
                        if label != "atlas" and row["hit"] != (phase == "hit"):
                            raise RuntimeError(f"{label}: expected a cache {phase}")
                        runs.setdefault(f"{label}/{phase}/{mode}", []).append(row)
    return {key: {
        "modules": [m for m in rows[0]["modules"] if m != "prodone"],
        "cli_import_ms": round(statistics.median(r["cli_us"] for r in rows) / 1000, 1),
        "prodone_import_ms": round(statistics.median(r["prodone_us"] for r in rows)
                                   / 1000, 1),
    } for key, rows in runs.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", help="JSON file to store the rows in")
    ap.add_argument("--side", default="change")
    args = ap.parse_args()
    rows = measure(os.path.abspath(args.src), args.repeats)
    print(f"{'call/phase/bytecode':<32}{'cli ms':>8}{'all ms':>8}  modules")
    for key, row in rows.items():
        print(f"{key:<32}{row['cli_import_ms']:>8}{row['prodone_import_ms']:>8}  "
              f"{len(row['modules'])}: {' '.join(row['modules'])}")
    if not args.out:
        return
    out = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            out = json.load(fh)
    imports = out.setdefault("imports", {})
    imports["command"] = ("python3 scripts/cli_import_cost.py --src <checkout>/src "
                          f"--repeats {args.repeats}")
    imports["machine"] = (f"{os.cpu_count()}-core {platform.machine()}, "
                          f"CPython {platform.python_version()}")
    imports[args.side] = rows
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
