"""What importing prodone loads: the package resolves its re-exports on first
access, each CLI call loads only the modules its subcommand runs, and no
import loads `dataclasses` or `inspect`.

The loaded modules are listed in a fresh interpreter, since this process
has imported every module already.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodone

SRC = Path(__file__).resolve().parent.parent / "src"

# the home module of every name in prodone.__all__ but __version__
HOMES = {
    "AtomSet": "factor", "DavenportReport": "factor", "LengthSet": "factor",
    "davenport": "factor", "divides_in_B": "factor",
    "enumerate_atoms": "factor", "factorization_lengths": "factor",
    "is_atom": "factor",
    "Group": "groups", "GroupStructure": "groups", "Subgroup": "groups",
    "analyze": "groups", "parse_group": "groups",
    "subgroup_generated": "groups",
    "PiEngine": "sequences", "ProductSet": "sequences",
    "Sequence": "sequences", "is_product_one": "sequences",
    "is_product_one_free": "sequences", "product_set": "sequences",
    "subsequence_products": "sequences",
}

COMPUTATION = {"factor", "sequences", "invariants", "classsemi", "checks", "dot"}
MODULES = sorted(p.stem for p in (SRC / "prodone").glob("*.py")
                 if p.stem != "__init__")

# `dataclasses` and the `inspect` it imports cost milliseconds in every new
# interpreter; the value types are NamedTuples and __slots__ classes instead
SLOW_IMPORTS = ("dataclasses", "inspect")
PRINT_SLOW = f"print(*(m for m in {SLOW_IMPORTS!r} if m in sys.modules))\n"

# the nine calls of the benchmark's cli workload
BENCH_CALLS = [
    ["group", "D8"],
    ["omega", "C6"],
    ["lengths", "D6", "--seq", "a^2,b^2", "--count"],
    ["atoms", "Q8"],
    ["davenport", "D8"],
    ["unions", "D6", "-k", "2"],
    ["check", "D6", "--property", "seminormal"],
    ["class-semigroup", "D6"],
    ["atlas", "C3", "C4", "D6"],
]


def fresh_python(code: str, *argv: str) -> list[str]:
    """Standard output lines of `code` run by a new interpreter on src/."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def cli_loads(argv: list[str]) -> tuple[str, set[str], set[str]]:
    """The first line a CLI call prints, the prodone submodules it loads and
    the modules of SLOW_IMPORTS it loads."""
    lines = fresh_python(
        "import sys\n"
        "from prodone.cli import main\n"
        "main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('prodone.')))\n"
        + PRINT_SLOW,
        *argv)
    return (lines[0], {m.removeprefix("prodone.") for m in lines[-2].split()},
            set(lines[-1].split()))


# -- lazy re-exports ----------------------------------------------------------


def test_exports_are_the_objects_of_their_home_modules():
    assert set(prodone.__all__) == set(HOMES) | {"__version__"}
    for name, home in HOMES.items():
        module = importlib.import_module(f"prodone.{home}")
        assert getattr(prodone, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from prodone import *", namespace)
    for name in prodone.__all__:
        assert namespace[name] is getattr(prodone, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prodone.no_such_name
    assert not hasattr(prodone, "no_such_name")


def test_from_import_still_imports_submodules():
    namespace: dict = {}
    exec("from prodone import checks", namespace)
    assert namespace["checks"] is sys.modules["prodone.checks"]


def test_bare_import_loads_no_submodule():
    lines = fresh_python(
        "import sys\n"
        "import prodone\n"
        "print(sorted(m for m in sys.modules if m.startswith('prodone.')))\n")
    assert lines == ["[]"]


def test_importing_every_module_loads_no_dataclasses():
    lines = fresh_python(
        "import sys\n"
        + "".join(f"import prodone.{m}\n" for m in MODULES)
        + "print(sorted(m for m in sys.modules if m.startswith('prodone.')))\n"
        + PRINT_SLOW)
    assert lines == [repr(sorted(f"prodone.{m}" for m in MODULES)), ""]


# -- what a CLI call loads ----------------------------------------------------


def test_group_loads_no_computation_module(tmp_path):
    _, loaded, _ = cli_loads(["group", "D8", "--cache-dir", str(tmp_path)])
    assert loaded == {"cli", "errors", "groups", "report"}


def test_abelian_omega_does_not_load_classsemi(tmp_path):
    _, loaded, _ = cli_loads(["omega", "C6", "--cache-dir", str(tmp_path)])
    assert "invariants" in loaded
    assert "classsemi" not in loaded


@pytest.mark.parametrize("argv", BENCH_CALLS, ids=lambda argv: argv[0])
def test_cache_hit_loads_no_computation_module(argv, tmp_path):
    """The miss and the hit each run in a new interpreter; neither loads
    SLOW_IMPORTS, and the hit loads no computation module."""
    cache = ["--cache-dir", str(tmp_path)]
    _, _, slow = cli_loads([*argv, *cache])
    assert not slow
    first, loaded, slow = cli_loads([*argv, *cache])
    assert not slow
    if argv[0] != "atlas":
        assert first.endswith("[cached]")
    # `lengths` canonicalises its --seq literal for the cache key
    assert loaded & COMPUTATION <= {"sequences"}
