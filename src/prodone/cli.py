"""Command-line front end.

Every subcommand prints a human-readable summary to stdout and optionally
writes the full JSON report (--json) or a DOT lattice diagram (--dot).
Exit codes: 0 success, 1 computation error, 2 usage error.

Each computation helper imports the modules it calls when it runs, so a
call loads only what its subcommand needs and a cache hit loads none of
the computation modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import (
    BudgetExceededError,
    GroupSpecError,
    GroupValidationError,
    ResourceLimitError,
    SequenceError,
    ValidationFailure,
)
from .groups import Group, abelian_group_name, analyze, parse_group
from .report import ReportCache, cached_report, canonical_json

COMPUTATION_ERRORS = (
    GroupSpecError, GroupValidationError, SequenceError, ResourceLimitError,
    BudgetExceededError, ValidationFailure,
)


def _default_cache_dir() -> Optional[str]:
    env = os.environ.get("PRODONE_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "prodone")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser, dot_flag: bool = False) -> None:
    p.add_argument("group", help="group spec: C<n>, D<m>, Q8, products like C2xC4, file:<path>")
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    if dot_flag:
        p.add_argument("--dot", metavar="PATH", help="write a DOT lattice diagram here")
    p.add_argument("--cache-dir", default=None, help="cache directory (env PRODONE_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")


def _lengths_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--seq", required=True, help="sequence literal, e.g. a^2,b^2")
    p.add_argument("--count", action="store_true", help="also count distinct factorizations")


def _unions_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("-k", type=_positive_int, required=True, dest="k")


def _check_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--property", required=True, dest="prop",
                   choices=["p", "seminormal", "krull"])


def _atlas_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("groups", nargs="+", help="group specs")
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")


# subcommand -> (help, the arguments it takes), in help order
_SUBCOMMANDS = {
    "group": ("validate and analyze a group", _add_common),
    "atoms": ("enumerate the atoms (minimal product-one sequences)", _add_common),
    "davenport": ("small and large Davenport constants", _add_common),
    "lengths": ("set of factorization lengths of a sequence", _lengths_args),
    "class-semigroup": ("the class semigroup of the product-one monoid",
                        lambda p: _add_common(p, dot_flag=True)),
    "unions": ("union of sets of lengths containing k", _unions_args),
    "delta": ("set of distances up to a length bound", _add_common),
    "omega": ("divisibility localization invariant bracket", _add_common),
    "semigroup-davenport": ("Davenport constants of the class semigroup", _add_common),
    "check": ("structural property verdict", _check_args),
    "atlas": ("summary battery over several groups", _atlas_args),
}
_TAKES_SEED = ("class-semigroup", "omega", "semigroup-davenport", "atlas")
_TAKES_BOUND = ("delta", "check")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names
    one: a call parses its arguments with only its own subparser built,
    under the usage line of the full parser.  Help, a missing or an unknown
    command get the full parser."""
    ap = argparse.ArgumentParser(
        prog="prodone",
        description="structure of the monoid of product-one sequences over a finite group")
    alone = command in _SUBCOMMANDS
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if alone else None)
    for name, (help_, add_args) in _SUBCOMMANDS.items():
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=help_)
        add_args(p)
        if name in _TAKES_SEED:
            p.add_argument("--seed", type=int, default=0,
                           help="RNG seed for validation sampling")
        if name in _TAKES_BOUND:
            p.add_argument("--bound", type=_positive_int, default=None,
                           help="search bound")
    return ap


# -- computations ---------------------------------------------------------


def _group_result(group: Group) -> tuple[dict, dict]:
    st = analyze(group)
    result = {
        "order": group.order,
        "names": list(group.names),
        "abelian": group.is_abelian,
        "element_orders": list(group.element_orders()),
        "center": [group.name(g) for g in st.center.sorted_members()],
        "commutator": [group.name(g) for g in st.commutator.sorted_members()],
        "abelianization": abelian_group_name(st.abelianization),
    }
    return result, {"exact": True}


def _atoms_result(group: Group) -> tuple[dict, dict]:
    from .factor import enumerate_atoms
    atom_set = enumerate_atoms(group)
    by_len: dict[int, int] = {}
    for a in atom_set.atoms:
        by_len[a.length] = by_len.get(a.length, 0) + 1
    result = {
        "count": len(atom_set.atoms),
        "max_length": atom_set.max_length,
        "by_length": {str(k): v for k, v in sorted(by_len.items())},
        "atoms": [str(a) for a in atom_set.atoms],
    }
    return result, {"exact": True}


def _davenport_result(group: Group) -> tuple[dict, dict]:
    from .factor import davenport
    rep = davenport(group)
    result = {
        "small": rep.small,
        "large": rep.large,
        "free_witness": str(rep.free_witness),
        "atom_witness": str(rep.atom_witness),
    }
    return result, {"exact": True}


def _lengths_result(group: Group, literal: str, count: bool) -> tuple[dict, dict]:
    from .invariants import GroupInvariants
    from .sequences import Sequence
    inv = GroupInvariants(group)
    seq = Sequence.from_literal(group, literal)
    ls = inv.context.lengths(seq)
    result = {
        "sequence": str(seq),
        "lengths": list(ls.lengths),
        "delta": list(ls.delta()),
    }
    if count:
        result["factorizations"] = inv.context.count_factorizations(seq)
    return result, {"exact": True}


def _class_semigroup_result(group: Group, seed: int) -> tuple[dict, dict]:
    from . import classsemi
    semi = classsemi.build(group, seed=seed)
    idem = classsemi.idempotent_structure(semi)
    uq = classsemi.unit_and_quotient_subgroups(semi)
    reg = classsemi.regularity_report(semi)
    result = {
        "size": semi.n_classes,
        "op": [list(row) for row in semi.op],
        "accept": [bool(a) for a in semi.accept],
        "pi_sets": [[group.name(g) for g in group.mask_elements(m)]
                    for m in semi.pi_masks],
        "representatives": [str(semi.representative(c))
                            for c in range(semi.n_classes)],
        "idempotents": list(idem.idempotents),
        "smallest_idempotent": idem.smallest,
        "rees_pairs": [list(p) for p in idem.rees_pairs],
        "units": list(uq.units),
        "unit_map": [[group.name(z), c] for z, c in uq.unit_map],
        "quotient_classes": list(uq.quotient_classes),
        "quotient_map": [[group.name(r), c] for r, c in uq.quotient_map],
        "is_clifford": reg.is_clifford,
        "regular": list(reg.regular),
        "non_regular": list(reg.non_regular),
    }
    prov = {"exact": True, "validated": True}
    prov.update(semi.provenance)
    return result, prov


def _unions_result(group: Group, k: int) -> tuple[dict, dict]:
    from . import invariants
    rep = invariants.unions_of_lengths(group, k)
    result = {
        "k": rep.k,
        "union": list(rep.union),
        "rho": rep.rho,
        "lambda": rep.lam,
        "distinct_products": rep.n_products,
    }
    return result, {"exact": True}


def _delta_result(group: Group, bound: int) -> tuple[dict, dict]:
    from . import invariants
    inv = invariants.GroupInvariants(group)
    omega_exact = None
    pp_holds = None
    if group.is_abelian and group.order <= 12:
        from .checks import property_P
        omega_rep = invariants.omega(group, inv=inv)
        if omega_rep.exact:
            omega_exact = omega_rep.lower
        pp_holds = property_P(group, engine=inv.engine).holds
    rep = invariants.delta_set(group, bound, inv=inv,
                               omega_exact=omega_exact,
                               property_p_holds=pp_holds)
    result = {
        "delta": list(rep.delta),
        "length_bound": rep.length_bound,
    }
    return result, {"exact": rep.exact, "reason": rep.reason,
                    "bound": rep.length_bound}


def _semigroup_davenport_from_op(op) -> dict:
    from .invariants import semigroup_davenport
    sd = semigroup_davenport(op)
    return {
        "small": sd.small,
        "large": sd.large,
        "semigroup_size": sd.size,
        "witness_classes": list(sd.witness),
    }


def _omega_result(group: Group, seed: int) -> tuple[dict, dict]:
    from .invariants import omega
    semi = None
    if not group.is_abelian:
        from .classsemi import build
        semi = build(group, seed=seed)
    rep = omega(group, class_semigroup=semi)
    result = {
        "lower": rep.lower,
        "upper": rep.upper,
        "exact": rep.exact,
        "witness_atom": str(rep.witness_atom),
        "witness_factors": [str(f) for f in rep.witness_factors],
    }
    return result, {"exact": rep.exact, "upper_reason": rep.upper_reason,
                    "seed": seed}


def _check_result(group: Group, prop: str, bound: Optional[int]) -> tuple[dict, dict]:
    from . import checks
    if prop == "p":
        verdict = checks.property_P(group, max_len=bound)
    elif prop == "seminormal":
        verdict = checks.seminormality(group, 6 if bound is None else bound)
    else:
        verdict = checks.krull_witness(group, 6 if bound is None else bound)
    d = verdict.as_dict()
    return d, {"exact": verdict.holds is not None, "bound": verdict.bound}


# -- output -----------------------------------------------------------------


def _emit(report: dict, args, hit: bool) -> None:
    result = report["result"]
    print(f"group: {report['group_spec']}   computation: {report['computation']}"
          + ("   [cached]" if hit else ""))
    _print_result(result)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
        print(f"json report written to {args.json}")
    if getattr(args, "dot", None):
        from .dot import lattice_dot_from_result
        text = lattice_dot_from_result(result)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"dot lattice written to {args.dot}")


def _print_result(result: dict, indent: str = "  ") -> None:
    for key, value in sorted(result.items()):
        if key == "op":
            print(f"{indent}op: {len(value)}x{len(value)} table (see JSON report)")
            continue
        if isinstance(value, list) and len(value) > 16:
            print(f"{indent}{key}: [{len(value)} entries]")
            continue
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_result(value, indent + "  ")
            continue
        print(f"{indent}{key}: {value}")


def _run_single(args) -> int:
    group = parse_group(args.group)
    cache_dir = None if args.no_cache else (args.cache_dir or _default_cache_dir())
    cache = ReportCache(cache_dir)
    seed = getattr(args, "seed", 0)
    bound = getattr(args, "bound", None)

    command = args.command
    if command == "group":
        params = {}
        compute = lambda: _group_result(group)
    elif command == "atoms":
        params = {}
        compute = lambda: _atoms_result(group)
    elif command == "davenport":
        params = {}
        compute = lambda: _davenport_result(group)
    elif command == "lengths":
        from .sequences import Sequence
        params = {"seq": str(Sequence.from_literal(group, args.seq)),
                  "count": bool(args.count)}
        compute = lambda: _lengths_result(group, args.seq, args.count)
    elif command == "class-semigroup":
        params = {"seed": seed}
        compute = lambda: _class_semigroup_result(group, seed)
    elif command == "unions":
        params = {"k": args.k}
        compute = lambda: _unions_result(group, args.k)
    elif command == "delta":
        b = bound if bound is not None else 8
        params = {"bound": b}
        compute = lambda: _delta_result(group, b)
    elif command == "omega":
        params = {"seed": seed}
        compute = lambda: _omega_result(group, seed)
    elif command == "semigroup-davenport":
        params = {"seed": seed}

        def compute():
            semi_result, semi_prov = _class_semigroup_result(group, seed)
            out = _semigroup_davenport_from_op(semi_result["op"])
            return out, {"exact": True, "class_semigroup": semi_prov}
    elif command == "check":
        params = {"property": args.prop, "bound": bound}
        compute = lambda: _check_result(group, args.prop, bound)
    else:
        raise GroupSpecError(f"unknown command {command}")

    report, hit = cached_report(cache, group, command, params, compute)
    _emit(report, args, hit)
    return 0


def _run_atlas(args) -> int:
    cache_dir = None if args.no_cache else (args.cache_dir or _default_cache_dir())
    cache = ReportCache(cache_dir)
    rows = []
    for spec in args.groups:
        try:
            group = parse_group(spec)
            dav, _ = cached_report(cache, group, "davenport", {},
                                   lambda: _davenport_result(group))
            semi, _ = cached_report(cache, group, "class-semigroup", {"seed": args.seed},
                                    lambda: _class_semigroup_result(group, args.seed))
            rows.append({
                "group": spec,
                "order": group.order,
                "small_davenport": dav["result"]["small"],
                "large_davenport": dav["result"]["large"],
                "class_semigroup_size": semi["result"]["size"],
                "idempotents": len(semi["result"]["idempotents"]),
                "units": len(semi["result"]["units"]),
                "is_clifford": semi["result"]["is_clifford"],
            })
        except COMPUTATION_ERRORS as exc:
            rows.append({"group": spec, "error": str(exc)})
    header = f"{'group':<10}{'|G|':>5}{'d':>4}{'D':>4}{'|C|':>6}{'idem':>6}{'units':>7}  clifford"
    print(header)
    print("-" * len(header))
    for row in rows:
        if "error" in row:
            print(f"{row['group']:<10} error: {row['error']}")
        else:
            print(f"{row['group']:<10}{row['order']:>5}{row['small_davenport']:>4}"
                  f"{row['large_davenport']:>4}{row['class_semigroup_size']:>6}"
                  f"{row['idempotents']:>6}{row['units']:>7}  {row['is_clifford']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"atlas": rows}))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "atlas":
            return _run_atlas(args)
        return _run_single(args)
    except COMPUTATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
