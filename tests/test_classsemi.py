from __future__ import annotations

import random

import pytest

from prodone.classsemi import (
    are_equivalent,
    build,
    discover_folds,
    idempotent_structure,
    quotient_copy,
    regularity_report,
    unit_and_quotient_subgroups,
)
from prodone.groups import abelian_invariants, parse_group
from prodone.sequences import Sequence, iter_multisets


def test_fold_examples(groups, engines):
    q8 = groups["Q8"]
    folds = discover_folds(q8, engine=engines["Q8"])
    i = q8.index_of("I")
    assert (folds.thresholds[i], folds.periods[i]) == (1, 4)
    assert (folds.thresholds[0], folds.periods[0]) == (0, 1)

    d6 = groups["D6"]
    folds = discover_folds(d6, engine=engines["D6"])
    b = d6.index_of("b")
    a = d6.index_of("a")
    assert (folds.thresholds[b], folds.periods[b]) == (2, 2)
    assert (folds.thresholds[a], folds.periods[a]) == (2, 3)


def test_fold_map():
    from prodone.classsemi import FoldParams
    fp = FoldParams((2,), (3,))
    assert [fp.fold(0, e) for e in range(9)] == [0, 1, 2, 3, 4, 2, 3, 4, 2]


def test_sizes(class_semigroups):
    assert class_semigroups["D6"][0].n_classes == 26
    assert class_semigroups["Q8"][0].n_classes == 18
    assert class_semigroups["D8"][0].n_classes == 18


def test_abelian_class_semigroup_is_the_group(groups, engines):
    for spec in ("C2", "C3", "C5", "C2xC2"):
        group = groups[spec]
        semi = build(group, engine=engines[spec])
        assert semi.n_classes == group.order
        assert set(semi.units()) == set(range(semi.n_classes))
        # singletons realize every class
        classes = {semi.class_of(Sequence.from_terms(group, [g]))
                   for g in range(group.order)}
        assert classes == set(range(semi.n_classes))


def test_d6_equivalence_claims(groups, class_semigroups):
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    lit = lambda s: Sequence.from_literal(d6, s)
    assert are_equivalent(semi, lit("b^2"), lit("b^4"))
    assert not are_equivalent(semi, lit("b"), lit("b^3"))
    assert are_equivalent(semi, lit("a^2"), lit("a^5"))
    assert are_equivalent(semi, lit("a,a2"), lit("a^3"))
    assert are_equivalent(semi, lit("ab^2"), lit("ab^4"))
    assert are_equivalent(semi, lit("a2^2"), lit("a^4"))
    assert are_equivalent(semi, lit("a2^3"), lit("a^3"))
    assert not are_equivalent(semi, lit("a"), lit("a^4"))
    assert not are_equivalent(semi, lit("a^2"), lit("a2"))
    assert not are_equivalent(semi, lit("b,ab"), lit("b,a2b"))


def test_d8_central_absorption(groups, class_semigroups):
    d8 = groups["D8"]
    semi = class_semigroups["D8"][0]
    two_terms = Sequence.from_literal(d8, "a2,b")
    one_term = Sequence.from_literal(d8, "a2b")
    assert are_equivalent(semi, two_terms, one_term)
    # but the non-central pair is kept apart from its product
    assert not are_equivalent(semi, Sequence.from_literal(d8, "b,a2b"),
                              Sequence.from_literal(d8, "a2"))


def test_idempotent_structure(groups, class_semigroups):
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    rep = idempotent_structure(semi)
    assert len(rep.idempotents) == 6
    smallest_class = semi.class_of(Sequence.from_literal(d6, "a^2,b^2"))
    assert rep.smallest == smallest_class
    comm = {d6.index_of(n) for n in ("1", "a", "a2")}
    assert set(semi.group.mask_elements(semi.pi_masks[rep.smallest])) == comm
    for e, f in rep.rees_pairs:
        assert semi.op[e][f] == e
    for spec, count in (("Q8", 5), ("D8", 5)):
        assert len(idempotent_structure(class_semigroups[spec][0]).idempotents) == count


def test_unit_and_quotient_subgroups(groups, class_semigroups):
    q8 = groups["Q8"]
    semi = class_semigroups["Q8"][0]
    rep = unit_and_quotient_subgroups(semi)
    assert len(rep.units) == 2
    assert len(rep.quotient_classes) == 4
    # quotient copy is elementary abelian of rank 2: every element doubles to
    # the smallest idempotent
    e_star = idempotent_structure(semi).smallest
    for c in rep.quotient_classes:
        assert semi.op[c][c] == e_star
    d6semi = class_semigroups["D6"][0]
    rep6 = unit_and_quotient_subgroups(d6semi)
    assert len(rep6.units) == 1
    assert len(rep6.quotient_classes) == 2


def test_zero_class_is_center_sequences(groups, class_semigroups, engines):
    q8 = groups["Q8"]
    semi = class_semigroups["Q8"][0]
    engine = engines["Q8"]
    center = {0, q8.index_of("-E")}
    for exps in iter_multisets(8, 5):
        seq = Sequence(q8, exps)
        expected = set(seq.support()) <= center and engine.is_product_one(seq)
        assert (semi.class_of(seq) == semi.zero) == expected


def test_regularity_d6_matches_listed_classes(groups, class_semigroups):
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    rep = regularity_report(semi)
    assert not rep.is_clifford
    lit = lambda s: semi.class_of(Sequence.from_literal(d6, s))
    non_regular_reps = [
        "b", "ab", "a2b", "a", "a2",
        "a,b", "a,ab", "a,a2b", "a,b^2", "a,ab^2", "a,a2b^2",
        "b,ab", "b,a2b", "ab,a2b",
    ]
    assert {lit(s) for s in non_regular_reps} == set(rep.non_regular)
    assert len(rep.non_regular) == 14


def test_regularity_clifford_for_small_commutator(class_semigroups):
    for spec in ("Q8", "D8"):
        rep = regularity_report(class_semigroups[spec][0])
        assert rep.is_clifford
        assert rep.non_regular == ()


def test_d6_class_partition_structure(groups, class_semigroups):
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    lit = lambda s: semi.class_of(Sequence.from_literal(d6, s))
    g1 = ["b", "b^2", "b^3", "ab", "ab^2", "ab^3", "a2b", "a2b^2", "a2b^3",
          "a", "a^2", "a^3", "a^4", "a2"]
    g2 = ["a,b", "a,ab", "a,a2b", "a,b^2", "a,ab^2", "a,a2b^2",
          "b,ab", "b,a2b", "ab,a2b"]
    g3 = ["a^2,b^2", "a,a2,b"]
    g4 = [""]
    all_classes = [lit(s) for s in g1 + g2 + g3 + g4]
    assert len(set(all_classes)) == 26
    assert set(quotient_copy(semi)[i][2] for i in range(2)) == {lit(s) for s in g3}
    assert lit("") == semi.zero


def test_cardinality_bound_small_commutator(groups, class_semigroups):
    for spec in ("Q8", "D8"):
        group = groups[spec]
        semi = class_semigroups[spec][0]
        center = semi.structure.center.members
        bound = len(center)
        prod = 1
        for g in range(group.order):
            if g not in center:
                prod *= group.element_order(g)
        assert semi.n_classes <= bound + prod


def test_odd_powers_collapse_small_commutator(groups, class_semigroups):
    q8 = groups["Q8"]
    semi = class_semigroups["Q8"][0]
    i = q8.index_of("I")
    for k in (1, 3):
        seq_power = Sequence.from_pairs(q8, [(i, k)])
        singleton = Sequence.from_terms(q8, [q8.power(i, k)])
        assert are_equivalent(semi, seq_power, singleton)


def test_disjoint_cyclic_groups_for_noncommuting(groups, class_semigroups):
    q8 = groups["Q8"]
    semi = class_semigroups["Q8"][0]
    uq = unit_and_quotient_subgroups(semi)
    quotient = set(uq.quotient_classes)
    i, j = q8.index_of("I"), q8.index_of("J")
    orb_i = set(semi.cyclic(semi.class_of(Sequence.from_terms(q8, [i]))))
    orb_j = set(semi.cyclic(semi.class_of(Sequence.from_terms(q8, [j]))))
    assert not orb_i & orb_j
    for ei in range(1, 5):
        for ej in range(1, 5):
            mixed = Sequence.from_pairs(q8, [(i, ei), (j, ej)])
            assert semi.class_of(mixed) in quotient


def test_congruence_under_random_contexts(groups, class_semigroups, engines):
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    rng = random.Random(23)
    reps = [semi.representative(c) for c in range(semi.n_classes)]
    for _ in range(200):
        c = rng.randrange(semi.n_classes)
        t = Sequence.from_terms(d6, [rng.randrange(6)
                                     for _ in range(rng.randint(0, 4))])
        lhs = semi.class_of(reps[c].concat(t))
        rhs = semi.class_of(semi.representative(semi.class_of(t)).concat(reps[c]))
        assert lhs == rhs == semi.op[c][semi.class_of(t)]


def test_operation_matches_representative_concatenation(class_semigroups):
    for spec in ("D6", "Q8"):
        semi = class_semigroups[spec][0]
        for c1 in range(semi.n_classes):
            for c2 in range(semi.n_classes):
                joined = semi.representative(c1).concat(semi.representative(c2))
                assert semi.class_of(joined) == semi.op[c1][c2]


def test_equivalent_classes_share_product_sets(class_semigroups, engines):
    for spec in ("D6", "Q8", "D8"):
        semi = class_semigroups[spec][0]
        engine = engines[spec]
        for c in range(semi.n_classes):
            assert engine.pi_mask(semi.representative(c).exps) == semi.pi_masks[c]
            assert semi.accept[c] == bool(semi.pi_masks[c] & 1)


def test_class_partition_matches_bruteforce_context_signatures(
        groups, engines, class_semigroups):
    """Independent reconstruction: classify short sequences purely by their
    acceptance pattern over all short context multisets (no folding, no
    refinement) and compare the partitions exactly."""
    from collections import defaultdict
    for spec, seq_len, ctx_len, n_expected in (("D6", 4, 6, 26), ("Q8", 4, 6, 18)):
        group = groups[spec]
        engine = engines[spec]
        semi = class_semigroups[spec][0]
        contexts = list(iter_multisets(group.order, ctx_len))
        by_sig = defaultdict(set)
        by_cls = defaultdict(set)
        for exps in iter_multisets(group.order, seq_len):
            sig = tuple(
                engine.pi_mask(bytes(a + b for a, b in zip(exps, ctx))) & 1
                for ctx in contexts)
            by_sig[sig].add(exps)
            by_cls[semi.class_of(Sequence(group, exps))].add(exps)
        assert len(by_sig) == len(by_cls) == n_expected
        assert sorted(map(sorted, by_sig.values())) == \
            sorted(map(sorted, by_cls.values()))


def test_d8_reflection_pair_relations(groups, class_semigroups):
    """The order-8 dihedral case: commuting reflections stay separated from
    the central rotation and from the rotation pair, and their squares merge
    into one idempotent."""
    d8 = groups["D8"]
    semi = class_semigroups["D8"][0]
    lit = lambda s: semi.class_of(Sequence.from_literal(d8, s))
    assert lit("b,a2b") != lit("a2")
    assert lit("b,a2b") != lit("a^2")
    assert lit("b^2") == lit("a2b^2") == lit("b,a2b,b,a2b") == lit("b^2,a2b^2")
    assert lit("ab^2") == lit("a3b^2") == lit("ab,a3b,ab,a3b")
    assert lit("b^2") != lit("ab^2")
    e = lit("b^2")
    assert semi.op[e][e] == e


def test_build_rejects_oversized_groups_before_discovery(groups):
    from prodone.errors import BudgetExceededError
    d14 = parse_group("D14")
    with pytest.raises(BudgetExceededError):
        build(d14)


def test_build_is_invariant_under_element_relabeling(groups):
    """Rebuilding from a permuted multiplication table must give the same
    class semigroup up to the relabeling."""
    import random as random_mod
    from prodone.groups import Group
    d6 = groups["D6"]
    rng = random_mod.Random(41)
    perm = [0] + rng.sample(range(1, 6), 5)
    inv_perm = [perm.index(i) for i in range(6)]
    table = [[inv_perm[d6.mul[perm[i]][perm[j]]] for j in range(6)]
             for i in range(6)]
    names = [d6.names[perm[i]] for i in range(6)]
    shuffled = Group(table, names, spec="D6-relabeled")
    semi = build(shuffled)
    assert semi.n_classes == 26
    assert len(semi.idempotents()) == 6
    assert len(semi.units()) == 1
    assert len(regularity_report(semi).non_regular) == 14


def test_trivial_group_is_clifford_single_class(groups, engines):
    semi = build(groups["C1"], engine=engines["C1"])
    assert semi.n_classes == 1
    rep = regularity_report(semi)
    assert rep.is_clifford and rep.regular == (0,)


def test_wrong_fold_is_caught_by_validation(groups, engines):
    """A fold that wrongly merges b with b^3 must fail the recognition check
    (contexts such as (ab)^3 separate them)."""
    from prodone.classsemi import (
        FoldParams,
        _build_once,
        _validate_recognition,
        _validate_structure,
        discover_folds,
    )
    from prodone.errors import ValidationFailure
    from prodone.groups import analyze
    d6 = groups["D6"]
    engine = engines["D6"]
    good = discover_folds(d6, engine=engine)
    b = d6.index_of("b")
    thresholds = list(good.thresholds)
    periods = list(good.periods)
    thresholds[b], periods[b] = 1, 2  # claims b ~ b^3
    bad = FoldParams(tuple(thresholds), tuple(periods))
    semi = _build_once(d6, analyze(d6), bad, 0, 0)
    with pytest.raises(ValidationFailure):
        _validate_structure(semi)
        _validate_recognition(semi, engine, 0)


def test_recognition_checks_the_reported_table(groups, class_semigroups, engines):
    """class_of walks op, so one wrong op entry, reached by the sequence b^2,
    must fail the recognition sweep."""
    import copy
    from prodone.classsemi import _validate_recognition
    from prodone.errors import ValidationFailure
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    b = semi.class_of(Sequence.from_literal(d6, "b"))
    assert semi.accept[semi.op[b][b]] and not semi.accept[b]
    bad = copy.copy(semi)
    bad.op = tuple(tuple(b if (i, j) == (b, b) else cls for j, cls in enumerate(row))
                   for i, row in enumerate(semi.op))
    bad.provenance = dict(semi.provenance)
    with pytest.raises(ValidationFailure, match="recognition mismatch"):
        _validate_recognition(bad, engines["D6"], 0)


def test_build_recovers_from_forced_high_thresholds(groups, engines):
    """Oversized (but sound) folds must refine to the same class count."""
    from prodone.classsemi import _build_once, _validate_recognition, \
        _validate_structure, discover_folds
    from prodone.groups import analyze
    d6 = groups["D6"]
    engine = engines["D6"]
    folds = discover_folds(d6, engine=engine,
                           min_thresholds=(1,) * 6)
    semi = _build_once(d6, analyze(d6), folds, 0, 0)
    _validate_structure(semi)
    _validate_recognition(semi, engine, 0)
    assert semi.n_classes == 26


def test_units_of_abelian_fixture_match_group(groups, engines):
    c6 = groups["C6"]
    semi = build(c6, engine=engines["C6"])
    units = semi.units()
    pos = {c: i for i, c in enumerate(units)}
    table = [[pos[semi.op[u][v]] for v in units] for u in units]
    from prodone.groups import Group
    as_group = Group(table, validate=True)
    assert abelian_invariants(as_group) == abelian_invariants(c6)
