"""Acceptance suite: every criterion of the build contract, at its stated
tolerance, printing one PASS line per criterion (run with -s or -v).

All numeric targets are exact; witnesses are machine-checked; the oracle
suites have zero tolerance.
"""

from __future__ import annotations

import time
from math import comb

from oracles import oracle_is_atom, oracle_pi
from prodone.checks import (
    property_P,
    quotient_group_member_mask,
    seminormality,
)
from prodone.classsemi import (
    idempotent_structure,
    regularity_report,
    unit_and_quotient_subgroups,
)
from prodone.factor import davenport, enumerate_atoms, is_atom
from prodone.groups import (
    Group,
    abelian_invariants,
    analyze,
    parse_group,
)
from prodone.invariants import (
    GroupInvariants,
    omega,
    semigroup_davenport,
    unions_of_lengths,
)
from prodone.sequences import PiEngine, Sequence, iter_multisets


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_class_semigroup_cardinalities(class_semigroups):
    want = {"Q8": 18, "D8": 18, "D6": 26}
    for spec, size in want.items():
        semi, elapsed = class_semigroups[spec]
        assert semi.n_classes == size, spec
        assert elapsed < 60.0, f"{spec} build took {elapsed:.1f}s"
    report(1, "class semigroup sizes Q8=18 D8=18 D6=26, each under 60s")


def test_criterion_02_davenport_constants(groups, engines):
    start = time.perf_counter()
    want = {"Q8": (4, 6), "D8": (4, 6), "D6": (3, 6)}
    for spec, (d, dd) in want.items():
        t0 = time.perf_counter()
        rep = davenport(groups[spec], engine=engines[spec])
        assert (rep.small, rep.large) == (d, dd), spec
        assert time.perf_counter() - t0 < 30.0
    for n in range(3, 13):
        t0 = time.perf_counter()
        rep = davenport(parse_group(f"C{n}"))
        assert (rep.small, rep.large) == (n - 1, n), n
        assert time.perf_counter() - t0 < 30.0
    report(2, f"(d, D) exact on Q8/D8/D6 and C3..C12 "
              f"in {time.perf_counter() - start:.1f}s total")


def _sub_semigroup_as_group(semi, classes, identity):
    members = list(classes)
    members.remove(identity)
    members.insert(0, identity)
    pos = {c: i for i, c in enumerate(members)}
    table = [[pos[semi.op[a][b]] for b in members] for a in members]
    return Group(table)


def test_criterion_03_unit_group_and_quotient_copy(groups, engines, class_semigroups):
    for spec in ("Q8", "D8", "D6"):
        group = groups[spec]
        semi = class_semigroups[spec][0]
        uq = unit_and_quotient_subgroups(semi)  # raises unless bijective + hom
        st = analyze(group)
        center_as_group = _subgroup_as_group(group, st.center.sorted_members())
        units_as_group = _sub_semigroup_as_group(semi, list(uq.units), semi.zero)
        assert abelian_invariants(units_as_group) == abelian_invariants(center_as_group)
        e_star = idempotent_structure(semi).smallest
        quot_as_group = _sub_semigroup_as_group(semi, list(uq.quotient_classes), e_star)
        assert abelian_invariants(quot_as_group) == abelian_invariants(st.abelianization)
    from prodone.classsemi import build
    for spec in ("C3", "C4", "C5", "C6", "C2xC2"):
        group = groups[spec]
        semi = build(group, engine=engines[spec])
        uq = unit_and_quotient_subgroups(semi)
        units_as_group = _sub_semigroup_as_group(semi, list(uq.units), semi.zero)
        assert abelian_invariants(units_as_group) == abelian_invariants(group)
        assert len(uq.quotient_classes) == group.order
    report(3, "units isomorphic to the center and embedded quotient copy "
              "isomorphic to G/G' on all fixtures (explicit bijections)")


def _subgroup_as_group(group, members):
    members = list(members)
    pos = {g: i for i, g in enumerate(members)}
    table = [[pos[group.mul[a][b]] for b in members] for a in members]
    return Group(table)


def test_criterion_04_idempotents(groups, class_semigroups):
    want = {"Q8": 5, "D8": 5, "D6": 6}
    for spec, count in want.items():
        group = groups[spec]
        semi = class_semigroups[spec][0]
        rep = idempotent_structure(semi)
        assert len(rep.idempotents) == count, spec
        comm_mask = quotient_group_member_mask(group)
        assert semi.pi_masks[rep.smallest] == comm_mask
    report(4, "idempotent counts 5/5/6 with smallest idempotent's product "
              "set equal to the commutator subgroup")


def test_criterion_05_cliffordness(class_semigroups):
    assert regularity_report(class_semigroups["Q8"][0]).is_clifford
    assert regularity_report(class_semigroups["D8"][0]).is_clifford
    rep = regularity_report(class_semigroups["D6"][0])
    assert not rep.is_clifford
    assert len(rep.non_regular) == 14
    report(5, "Clifford for Q8/D8, not Clifford for D6 with exactly 14 "
              "non-regular classes")


def test_criterion_06_d6_equivalence_spot_checks(groups, class_semigroups):
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    cls = lambda s: semi.class_of(Sequence.from_literal(d6, s))
    assert cls("b^2") == cls("b^4")
    assert cls("b") != cls("b^3")
    assert cls("a^2") == cls("a^5")
    assert cls("a,a2") == cls("a^3")
    report(6, "D6 equivalences b^2~b^4, b!~b^3, a^2~a^5, a*a2~a^3")


def test_criterion_07_unions_and_rho(groups, invariants_ctx):
    start = time.perf_counter()
    for spec in ("D6", "Q8", "C4", "C6"):
        inv = invariants_ctx[spec]
        big = inv.davenport().large
        assert unions_of_lengths(groups[spec], 2, inv).rho == big, spec
        from prodone.invariants import rho_even_certificate
        witness, rho4 = rho_even_certificate(inv, 4)
        assert rho4 == 2 * big, spec
        ls = inv.context.lengths(witness).lengths
        assert 4 in ls and rho4 in ls and max(ls) == rho4
    for spec in ("C3", "C4", "C5", "C6", "D6", "D8", "Q8"):
        for k in (1, 2, 3):
            rep = unions_of_lengths(groups[spec], k, invariants_ctx[spec])
            assert rep.union == tuple(range(rep.lam, rep.rho + 1)), (spec, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(7, f"rho_2 = D and rho_4 = 2D on D6/Q8/C4/C6; U_k intervals for "
              f"k <= 3 on all fixtures in {elapsed:.0f}s")


def test_criterion_08_property_p(groups, engines):
    assert property_P(groups["Q8"], engines["Q8"]).holds is True
    for spec in ("C3", "C4", "C5", "C6", "C2xC2"):
        assert property_P(groups[spec], engines[spec]).holds is True

    d18 = parse_group("D18")
    engine = PiEngine(d18)
    verdict = property_P(d18, engine=engine, max_len=7)
    assert verdict.holds is False
    wit = verdict.witness
    # machine-check the found witness end to end
    atom = wit["atom"]
    assert is_atom(atom, engine)
    h1, h2 = (d18.index_of(n) for n in wit["factors"])
    g = d18.index_of(wit["term"])
    assert d18.mul[h1][h2] == g
    assert min(wit["split_lengths"]) >= 3
    # a specific length-7 atom whose one-term split factors into three
    # atoms: re-validate the atom and the three factors end to end
    u_seven = Sequence.from_literal(d18, "b^2,a8b^3,a2,a4b")
    assert is_atom(u_seven, engine) and oracle_is_atom(u_seven)
    parts = [Sequence.from_literal(d18, "b^2"),
             Sequence.from_literal(d18, "a8b^2"),
             Sequence.from_literal(d18, "a7b,a8b,a5b,a4b")]
    for part in parts:
        assert is_atom(part, engine)
    u_split = Sequence.from_literal(d18, "b^2,a8b^3,a7b,a5b,a4b")
    assert parts[0].concat(parts[1]).concat(parts[2]) == u_split
    report(8, "two-atom splitting holds for Q8 and abelian fixtures, fails "
              "for D18 with a machine-checked witness")


def test_criterion_09_seminormality(groups, engines):
    assert seminormality(groups["D8"], 4, engines["D8"]).holds is True
    assert seminormality(groups["Q8"], 4, engines["Q8"]).holds is True
    from test_checks import validate_seminormality_witness
    v6 = seminormality(groups["D6"], 4, engines["D6"])
    assert v6.holds is False
    validate_seminormality_witness(groups["D6"], engines["D6"],
                                   v6.witness["sequence"])
    validate_seminormality_witness(groups["D6"], engines["D6"],
                                   Sequence.from_literal(groups["D6"], "a,b^2"))
    d14 = parse_group("D14")
    engine14 = PiEngine(d14)
    v14 = seminormality(d14, 5, engine14)
    assert v14.holds is False
    validate_seminormality_witness(d14, engine14,
                                   Sequence.from_literal(d14, "a^3,b^2"))
    report(9, "seminormal for D8/Q8; fails for D6 and D14 with the named "
              "witnesses a^((n-1)/2) * b^2 machine-checked")


def test_criterion_10_omega(groups, invariants_ctx, class_semigroups):
    for n in range(3, 9):
        inv = invariants_ctx.get(f"C{n}") or GroupInvariants(groups[f"C{n}"])
        rep = omega(groups[f"C{n}"], inv=inv)
        assert rep.exact and rep.lower == rep.upper == n, n
    for spec in ("D6", "Q8"):
        semi = class_semigroups[spec][0]
        inv = invariants_ctx[spec]
        rep = omega(groups[spec], class_semigroup=semi, inv=inv)
        big = inv.davenport().large
        d_c = semigroup_davenport(semi.op).small
        assert big <= rep.lower <= rep.upper == big + d_c
    report(10, "omega(C_n) = n for n = 3..8; certified brackets "
               "D(G) <= omega <= D(G)+d(C) for D6 and Q8")


GOLDEN_SEMIGROUP_DAVENPORT = {"Q8": (4, 5), "D8": (4, 5), "D6": (5, 6)}


def test_criterion_11_semigroup_davenport(groups, class_semigroups):
    for spec, (d_c, dd_c) in GOLDEN_SEMIGROUP_DAVENPORT.items():
        semi = class_semigroups[spec][0]
        sd = semigroup_davenport(semi.op)
        assert (sd.small, sd.large) == (d_c, dd_c), spec
        assert sd.large == sd.small + 1
        assert sd.large <= semi.n_classes
        quotient = analyze(groups[spec]).abelianization
        assert davenport(quotient).large <= sd.large
    report(11, "D(C) = d(C)+1 <= |C| with golden values 5/5/6 and "
               "D(G/G') <= D(C) on Q8/D8/D6")


def test_criterion_12a_pi_oracle_equivalence(groups, engines):
    checked = 0
    for spec, group in groups.items():
        if group.order > 8 or group.order < 2:
            continue
        engine = engines[spec]
        for exps in iter_multisets(group.order, 6):
            seq = Sequence(group, exps)
            assert engine.pi_mask(bytes(exps)) == group.mask_of(oracle_pi(seq)), \
                (spec, seq)
            checked += 1
    report(12, f"pi dynamic programming agrees with the all-permutations "
               f"oracle on {checked} sequences (length <= 6, |G| <= 8)")


def test_criterion_12b_atom_oracle_equivalence(groups, engines):
    from oracles import oracle_atoms
    for spec in ("C3", "C4", "C5", "C6", "D6"):
        group = groups[spec]
        atom_set = enumerate_atoms(group, engine=engines[spec])
        got = {a.exps for a in atom_set.atoms}
        want = {a.exps for a in oracle_atoms(group, group.order)}
        assert got == want, spec
    report(12, "atom enumeration agrees with the unpruned naive oracle for "
               "all groups of order <= 6")


def test_criterion_12c_recognition_validation(groups, class_semigroups, engines):
    for spec in ("Q8", "D8", "D6"):
        group = groups[spec]
        semi = class_semigroups[spec][0]
        prov = semi.provenance
        from prodone.factor import small_davenport
        d = small_davenport(group, engines[spec])
        assert prov["recognition_exhaustive_len"] == d + 4
        assert prov["recognition_exhaustive_count"] == comb(d + 4 + group.order,
                                                            group.order)
        assert prov["recognition_random_count"] == 1000
        assert prov["seed"] == 0
    report(12, "recognition agreed with direct membership on the exhaustive "
               "sweep (length <= d+4) and 1000 seeded random sequences per "
               "fixture group")
