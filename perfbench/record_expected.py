"""Record the expected answers of every benchmark job into expected.json.

    python3 perfbench/record_expected.py

Run it only when a change to prodone is meant to change an answer, and say
so in the change.  The acceptance pins below are checked before anything is
written; the other values are whatever the current code computes.  The
query pools are drawn from a fixed seed, so the pools do not depend on the
benchmark's ``--seed``; the seed picks which pool entries a run queries.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from prodone import checks, classsemi, factor, invariants  # noqa: E402
from prodone.factor import FactorizationContext  # noqa: E402
from prodone.groups import parse_group  # noqa: E402
from prodone.sequences import PiEngine, Sequence  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = 200
QUERY_LENGTHS = (8, 14)

# Acceptance pins of the test suite (tests/test_acceptance.py).
PINS = {
    ("semigroup", "D6"): {"classes": 26, "idempotents": 6, "non_regular": 14,
                          "semigroup_davenport": [5, 6]},
    ("semigroup", "D8"): {"classes": 18, "idempotents": 5,
                          "semigroup_davenport": [4, 5]},
    ("semigroup", "Q8"): {"classes": 18, "idempotents": 5,
                          "semigroup_davenport": [4, 5]},
    ("invariants", "D6"): {"davenport": [3, 6]},
    ("invariants", "D8"): {"davenport": [4, 6]},
    ("invariants", "Q8"): {"davenport": [4, 6]},
    ("invariants", "C6"): {"davenport": [5, 6], "omega": [6, 6]},
}


def query_cost(group, atoms, seq) -> int:
    """Work of one query from cold: the pi memo entries it creates.  It ranks
    the pool by cost nearly as measured time does, and repeats exactly."""
    engine = PiEngine(group)
    ctx = FactorizationContext(group, atoms, engine)
    ctx.lengths(seq)
    ctx.count_factorizations(seq)
    return engine.memo_size()


def query_pool(group, inv) -> list:
    """Distinct random product-one sequences with their L(B) and counts,
    ordered by cost (see ``workloads.query_stream``)."""
    rng = random.Random(f"pool-{group.spec}")
    engine = PiEngine(group)
    n = group.order
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        exps = [0] * n
        for _ in range(rng.randint(*QUERY_LENGTHS) - 1):
            exps[rng.randrange(n)] += 1
        # close the sequence with the inverse of one of its products
        products = group.mask_elements(engine.pi_mask(exps))
        exps[group.inv[rng.choice(products)]] += 1
        if tuple(exps) in seen:
            continue
        seen.add(tuple(exps))
        seq = Sequence(group, tuple(exps))
        pool.append((query_cost(group, inv.atoms, seq), exps,
                     list(inv.context.lengths(seq).lengths),
                     inv.context.count_factorizations(seq)))
    return [entry[1:] for entry in sorted(pool)]


def record_invariants(out: dict) -> None:
    for spec in workloads.GROUPS["invariants"]:
        group = parse_group(spec)
        inv = invariants.GroupInvariants(group)
        dav = inv.davenport()
        want = {
            "atoms": len(inv.atoms),
            "davenport": [dav.small, dav.large],
            "unions": {str(k): list(invariants.unions_of_lengths(group, k, inv).union)
                       for k in ((1, 2) if spec == "Q8" else (1, 2, 3))},
            "rho4": invariants.rho_even_certificate(inv, 4)[1],
            "delta": list(invariants.delta_set(group, 8, inv=inv).delta),
        }
        if group.is_abelian:
            om = invariants.omega(group, inv=inv)
            want["omega"] = [om.lower, om.upper]
        assert want["rho4"] == 2 * dav.large, spec
        out["invariants"][spec] = want
        out["queries"][spec] = query_pool(group, invariants.GroupInvariants(group))


def record_scan(out: dict) -> None:
    g = {spec: parse_group(spec) for spec in workloads.GROUPS["scan"]}
    dav = factor.davenport(g["D10"])
    out["scan"] = {
        "property_P_Q8": checks.property_P(g["Q8"]).holds,
        "property_P_D14": checks.property_P(g["D14"]).holds,
        "seminormality_D14": checks.seminormality(g["D14"], 5).holds,
        "krull_D8": checks.krull_witness(g["D8"], 6).holds,
        "davenport_D10": [dav.small, dav.large],
    }
    assert out["scan"]["property_P_Q8"] is True


def record_semigroup(out: dict) -> None:
    for spec in workloads.GROUPS["semigroup"]:
        group = parse_group(spec)
        semi = classsemi.build(group, seed=0)
        sd = invariants.semigroup_davenport(semi.op)
        want = {
            "classes": semi.n_classes,
            "idempotents": len(classsemi.idempotent_structure(semi).idempotents),
            "units": len(classsemi.unit_and_quotient_subgroups(semi).units),
            "non_regular": len(classsemi.regularity_report(semi).non_regular),
            "semigroup_davenport": [sd.small, sd.large],
        }
        if spec in ("D6", "Q8"):
            om = invariants.omega(group, class_semigroup=semi)
            want["omega"] = [om.lower, om.upper]
        out["semigroup"][spec] = want


def record_cli(out: dict) -> None:
    """CLI answers, read from --no-cache reports of the current code."""
    env = workloads.cli_env()
    with tempfile.TemporaryDirectory() as tmp:
        def report(*args):
            path = os.path.join(tmp, "report.json")
            subprocess.run([sys.executable, "-m", "prodone.cli", *args, "--no-cache",
                            "--json", path], env=env, check=True,
                           capture_output=True)
            with open(path, "r", encoding="utf-8") as fh:
                rep = json.load(fh)
            return rep.get("result", rep)

        grp = report("group", "D8")
        atoms = report("atoms", "Q8")
        dav = report("davenport", "D8")
        unions = report("unions", "D6", "-k", "2")
        semi = report("class-semigroup", "D6")
        om = report("omega", "C6")
        atlas = report("atlas", "C3", "C4", "D6")
        out["cli"] = {
            "group_D8": [grp["order"], grp["abelian"], grp["abelianization"],
                         sorted(grp["element_orders"])],
            "atoms_Q8": [atoms["count"], atoms["max_length"], atoms["by_length"]],
            "davenport_D8": [dav["small"], dav["large"]],
            "unions_D6_2": [unions["union"], unions["rho"], unions["lambda"]],
            "seminormal_D6": report("check", "D6", "--property", "seminormal")["holds"],
            "class_semigroup_D6": [semi["size"], len(semi["idempotents"]),
                                   len(semi["non_regular"]), len(semi["units"]),
                                   semi["is_clifford"]],
            "omega_C6": [om["lower"], om["upper"]],
            "atlas": [[row["small_davenport"], row["large_davenport"],
                       row["class_semigroup_size"], row["idempotents"]]
                      for row in atlas["atlas"]],
        }


def main() -> None:
    out: dict = {"invariants": {}, "queries": {}, "semigroup": {}}
    record_invariants(out)
    record_scan(out)
    record_semigroup(out)
    record_cli(out)
    for (section, spec), pins in PINS.items():
        for key, value in pins.items():
            got = out[section][spec][key]
            if got != value:
                raise SystemExit(f"{section} {spec} {key}: {got!r} breaks the pin {value!r}")
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
