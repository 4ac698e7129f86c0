from __future__ import annotations

import random
from math import comb

import pytest

from oracles import oracle_associative, oracle_recognition, oracle_zero_class
from prodone import classsemi
from prodone.classsemi import (
    _quotient_cosets,
    _random_vectors,
    _validate_coset_epimorphism,
    _validate_recognition,
    _validate_structure,
    _validate_zero_class,
    are_equivalent,
    build,
    discover_folds,
    explore,
    idempotent_structure,
    quotient_copy,
    regularity_report,
    unit_and_quotient_subgroups,
)
from prodone.errors import ValidationFailure
from prodone.groups import abelian_invariants, light_failure, parse_group
from prodone.invariants import semigroup_davenport
from prodone.sequences import PiEngine, Sequence, iter_multisets


def _lasso(semi, g):
    """The least (t, p) with g^t ~ g^(t+p), read off the classes of g^e."""
    group = semi.group
    seen = {}
    for e in range(4 * group.order + 1):
        cls = semi.class_of(Sequence.from_pairs(group, [(g, e)]))
        if cls in seen:
            return seen[cls], e - seen[cls]
        seen[cls] = e
    raise AssertionError("no repeated power class")


def test_fold_examples(groups, class_semigroups):
    q8 = groups["Q8"]
    semi = class_semigroups["Q8"][0]
    lit = lambda s: Sequence.from_literal(q8, s)
    assert are_equivalent(semi, lit("I"), lit("I^5"))
    assert _lasso(semi, q8.index_of("I")) == (1, 4)
    assert _lasso(semi, 0) == (0, 1)

    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    lit = lambda s: Sequence.from_literal(d6, s)
    assert are_equivalent(semi, lit("b^2"), lit("b^4"))
    assert are_equivalent(semi, lit("a^2"), lit("a^5"))
    assert _lasso(semi, d6.index_of("b")) == (2, 2)
    assert _lasso(semi, d6.index_of("a")) == (2, 3)


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
    acceptance pattern over all short context multisets (no ordered
    search, no central collapse) and compare the partitions exactly."""
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


def test_build_rejects_oversized_groups():
    """D14 passes the class cap in the second round of the context search,
    over contexts of length <= 1, so the build stops early and says how far
    it got."""
    import time
    from prodone.classsemi import CLASS_CAP
    from prodone.errors import BudgetExceededError
    d14 = parse_group("D14")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=rf"context length 1 exceed the cap {CLASS_CAP} "
                             r"\(class counts of earlier rounds: \[124\]\)"):
        build(d14)
    assert time.perf_counter() - start < 20


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


def _failure(check, *args):
    """The message of the ValidationFailure a check raises, or None."""
    try:
        check(*args)
    except ValidationFailure as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec", ["C6", "C2xC4", "D6", "D8", "Q8", "C2xD6", "D12"])
def test_sweeps_match_their_oracles(spec):
    """The checks over merged slot-walk states pass where the per-sequence
    sweeps pass, with the same recognition counts, on a table that builds
    and validates."""
    group = parse_group(spec)
    semi = discover_folds(group)
    found = dict(semi.provenance)
    engine, oracle_engine = PiEngine(group), PiEngine(group)
    assert _failure(_validate_zero_class, semi) is None
    assert _failure(oracle_zero_class, semi, oracle_engine) is None
    _validate_recognition(semi, engine, 0)
    ours, semi.provenance = semi.provenance, dict(found)
    oracle_recognition(semi, oracle_engine, 0)
    assert ours == semi.provenance
    assert ours["recognition_exhaustive_count"] == comb(
        ours["recognition_exhaustive_len"] + group.order, group.order)


@pytest.mark.parametrize("spec,max_len,n_classes",
                         [("D6", 0, 12), ("D6", 1, 23), ("D8", 0, 12), ("Q8", 0, 12),
                          ("D10", 2, 187)])
def test_underexplored_table_is_caught_by_validation(spec, max_len, n_classes):
    """Contexts too short to tell every class apart (all of length <= L)
    give a table that fails both the structural checks and the recognition
    sweep.  The checks fail at the sequence where the per-sequence oracles
    fail."""
    group = parse_group(spec)
    engine = PiEngine(group)
    semi = explore(group, list(map(bytes, iter_multisets(group.order, max_len))),
                   engine)
    assert semi.n_classes == n_classes
    with pytest.raises(ValidationFailure):
        _validate_structure(semi)
    message = _failure(_validate_recognition, semi, engine, 0)
    assert message is not None
    assert message == _failure(oracle_recognition, semi, PiEngine(group), 0)
    assert _failure(_validate_zero_class, semi) == \
        _failure(oracle_zero_class, semi, PiEngine(group))


def test_growing_context_length_until_the_count_is_stable(class_semigroups):
    """The context list grows from the empty context, round by round, until
    the table's successors are consistent; the class count of each round
    and the index of the last are in the provenance."""
    for spec, counts, contexts, longest in (("D6", [12, 23, 26], 9, 2),
                                            ("Q8", [12, 18], 7, 1),
                                            ("D8", [12, 18], 7, 1)):
        prov = class_semigroups[spec][0].provenance
        assert prov["class_counts"] == counts
        assert prov["attempt"] == len(counts) - 1
        assert (prov["contexts"], prov["context_len"]) == (contexts, longest)


@pytest.fixture(scope="module")
def d12_semigroup():
    return build(parse_group("D12"))


def test_d12_class_semigroup_passes_every_validator(d12_semigroup):
    """build runs every validator before it returns the table."""
    assert d12_semigroup.n_classes == 52
    assert len(d12_semigroup.units()) == 2
    assert d12_semigroup.provenance["class_counts"] == [24, 46, 52]


def test_c2xd6_class_semigroup_passes_every_validator():
    """The other presentation of D12 builds and validates on its own too."""
    semi = build(parse_group("C2xD6"))
    assert semi.n_classes == 52
    assert len(semi.units()) == 2
    assert semi.provenance["class_counts"] == [24, 46, 52]


def test_d12_semigroup_davenport(d12_semigroup):
    """The frontier that carries its subset sums reaches d(C) of the
    52-class table."""
    sd = semigroup_davenport(d12_semigroup.op)
    assert (sd.small, sd.large) == (7, 8)


def _isomorphism(a, b):
    """A group isomorphism a -> b, found from the images of a generating set."""
    from itertools import product

    from prodone.groups import greedy_generators
    orders_a, orders_b = a.element_orders(), b.element_orders()
    gens = greedy_generators(a, sorted(range(a.order),
                                       key=lambda x: -orders_a[x]))
    rng = range(a.order)
    for imgs in product(*[[h for h in range(b.order) if orders_b[h] == orders_a[g]]
                          for g in gens]):
        phi, frontier = {0: 0}, [0]
        while frontier:
            x = frontier.pop()
            for g, t in zip(gens, imgs):
                y = a.mul[x][g]
                if y not in phi:
                    phi[y] = b.mul[phi[x]][t]
                    frontier.append(y)
        if len(set(phi.values())) == b.order and all(
                phi[a.mul[x][y]] == b.mul[phi[x]][phi[y]] for x in rng for y in rng):
            return phi
    raise AssertionError(f"{a.spec} and {b.spec} are not isomorphic")


def test_c2xd6_table_is_isomorphic_to_the_validated_d12_table(d12_semigroup):
    """D12 and C2xD6 present the same group.  A group isomorphism phi induces
    Phi(c) = class of phi(representative of c); Phi must be a bijection that
    preserves op, the one-term classes, acceptance and product sets.  Then
    class_of on C2xD6 is Phi of class_of on D12 through phi, so the
    unvalidated C2xD6 table recognises exactly what the validated D12 table
    does, up to phi."""
    a_semi = d12_semigroup
    b_semi = discover_folds(parse_group("C2xD6"))
    a, b = a_semi.group, b_semi.group
    assert b_semi.provenance["class_counts"] == [24, 46, 52]
    phi = _isomorphism(a, b)
    cmap = []
    for c in range(a_semi.n_classes):
        exps = [0] * b.order
        for g, e in enumerate(a_semi.representative(c).exps):
            exps[phi[g]] += e
        cmap.append(b_semi.class_of(Sequence(b, tuple(exps))))
    n = a_semi.n_classes
    assert b_semi.n_classes == n and sorted(cmap) == list(range(n))
    assert [cmap[a_semi.singletons[g]] for g in range(a.order)] == \
        [b_semi.singletons[phi[g]] for g in range(a.order)]
    for c in range(n):
        assert b_semi.accept[cmap[c]] == a_semi.accept[c]
        assert b_semi.pi_masks[cmap[c]] == b.mask_of(
            phi[g] for g in a.mask_elements(a_semi.pi_masks[c]))
        assert [cmap[a_semi.op[c][d]] for d in range(n)] == \
            [b_semi.op[cmap[c]][cmap[d]] for d in range(n)]


def test_memo_cap_bounds_the_keyed_sequences(groups):
    """More keyed sequences than the memo cap over the number of contexts
    stop the search before they are keyed."""
    from prodone.errors import BudgetExceededError
    engine = PiEngine(groups["D6"], memo_cap=200)
    contexts = list(map(bytes, iter_multisets(6, 3)))  # 84, of length <= 3
    with pytest.raises(BudgetExceededError,
                       match=r"3 sequences keyed over 84 contexts at context "
                             r"length 3 exceed the memo cap 200"):
        explore(groups["D6"], contexts, engine)


def _d6_with_bb_set_to_b(semi):
    """The D6 table with its entry (b, b) set to b: b^2 is product-one, b
    is not, so every sequence whose walk takes that step is misread."""
    import copy
    b = semi.class_of(Sequence.from_literal(semi.group, "b"))
    assert semi.accept[semi.op[b][b]] and not semi.accept[b]
    bad = copy.copy(semi)
    bad.op = tuple(tuple(b if (i, j) == (b, b) else cls for j, cls in enumerate(row))
                   for i, row in enumerate(semi.op))
    bad.provenance = dict(semi.provenance)
    return bad


def test_recognition_checks_the_reported_table(groups, class_semigroups, engines):
    """class_of walks op, so one wrong op entry, reached by the sequence b^2,
    must fail the recognition sweep."""
    bad = _d6_with_bb_set_to_b(class_semigroups["D6"][0])
    message = _failure(_validate_recognition, bad, engines["D6"], 0)
    assert message.startswith("recognition mismatch")
    assert message == _failure(oracle_recognition, bad, PiEngine(groups["D6"]), 0)


@pytest.mark.parametrize("seed,wanted", [(0, "b^2"), (1, "1,b^2,ab^2"),
                                         (2, "1,b^2,a2b^2")])
def test_random_recognition_names_the_oracles_sequence(
        seed, wanted, monkeypatch, groups, class_semigroups):
    """With the exhaustive part cut to length 1, only the random part can
    catch the corrupted (b, b) entry, and it must name the random sequence
    that the per-sequence oracle names first, for every seed."""
    monkeypatch.setattr(classsemi, "EXHAUSTIVE_BUDGET", 1)
    bad = _d6_with_bb_set_to_b(class_semigroups["D6"][0])
    d6 = groups["D6"]
    message = _failure(_validate_recognition, bad, PiEngine(d6), seed)
    assert message == f"recognition mismatch at random {wanted}"
    assert message == _failure(oracle_recognition, bad, PiEngine(d6), seed)


def _drawn_as_the_oracle_draws(seed, n, lo, hi, count):
    """The random vectors as ``oracle_recognition`` draws them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(lo, hi)
        exps = [0] * n
        for _ in range(length):
            exps[rng.randrange(n)] += 1
        out.append(exps)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31])
@pytest.mark.parametrize("n", [1, 2, 6, 8, 16])
def test_random_vectors_are_the_randint_randrange_draws(seed, n):
    """The recognition draws, by ``getrandbits`` of each range's bit length
    with rejection, give exactly the vectors of ``randint`` and
    ``randrange``, for range widths that are powers of two (1, 8, 16: at
    n = 8 or 16 half the term draws are rejected) and that are not."""
    for lo, hi in ((3, 3), (9, 16), (5, 20), (10, 18), (8, 14), (2, 40)):
        assert list(_random_vectors(seed, n, lo, hi, 300)) == \
            _drawn_as_the_oracle_draws(seed, n, lo, hi, 300)


def test_coset_validator_catches_an_entry_moved_to_another_coset(class_semigroups):
    """Any one op entry of D6 replaced by a class of the other coset of the
    commutator subgroup breaks the coset map; replaced by another class of
    the same coset, it does not."""
    import copy
    semi = class_semigroups["D6"][0]
    assert _failure(_validate_coset_epimorphism, semi) is None
    cosets = _quotient_cosets(semi)
    assert len(cosets) == 2
    coset = [next(i for i, (_, mask) in enumerate(cosets) if not pm & ~mask)
             for pm in semi.pi_masks]
    for i, row in enumerate(semi.op):
        for j, old in enumerate(row):
            other = coset.index(1 - coset[old])
            same = next(c for c, k in enumerate(coset) if k == coset[old] and c != old)
            for new, verdict in ((other, "coset map is not a homomorphism"),
                                 (same, None)):
                bad = copy.copy(semi)
                bad.op = list(semi.op)
                bad.op[i] = row[:j] + (new,) + row[j + 1:]
                assert _failure(_validate_coset_epimorphism, bad) == verdict


def test_units_of_abelian_fixture_match_group(groups, engines):
    c6 = groups["C6"]
    semi = build(c6, engine=engines["C6"])
    units = semi.units()
    pos = {c: i for i, c in enumerate(units)}
    table = [[pos[semi.op[u][v]] for v in units] for u in units]
    from prodone.groups import Group
    as_group = Group(table)
    assert abelian_invariants(as_group) == abelian_invariants(c6)


def _generated(op, singletons) -> bool:
    reached = {0}
    frontier = [0]
    for c in frontier:
        for s in singletons:
            if op[c][s] not in reached:
                reached.add(op[c][s])
                frontier.append(op[c][s])
    return len(reached) == len(op)


@pytest.mark.parametrize("spec", ["C6", "C2xC4", "D6", "D8", "Q8", "D12"])
def test_light_test_matches_the_cubic_oracle(spec, class_semigroups, d12_semigroup):
    """Light's test over the singletons agrees with the test of every
    triple on the built table, and on tables with one op entry changed
    symmetrically (still commutative, mostly not associative) whose
    singletons still generate every class; the validator rejects the
    tables that fail."""
    import copy
    if spec == "D12":
        semi = d12_semigroup
    elif spec in class_semigroups:
        semi = class_semigroups[spec][0]
    else:
        semi = build(parse_group(spec))
    assert light_failure(semi.op, semi.singletons) is None
    assert oracle_associative(semi.op)
    rng = random.Random(7)
    n = semi.n_classes
    verdicts = []
    for _ in range(40):
        i, j = sorted(rng.sample(range(1, n), 2)) if n > 2 else (1, 1)
        k = rng.choice([c for c in range(n) if c != semi.op[i][j]])
        rows = [list(row) for row in semi.op]
        rows[i][j] = rows[j][i] = k
        op = tuple(map(tuple, rows))
        if not _generated(op, semi.singletons):
            continue
        light = light_failure(op, semi.singletons) is None
        assert light == oracle_associative(op)
        verdicts.append(light)
        if not light:
            bad = copy.copy(semi)
            bad.op = op
            assert _failure(_validate_structure, bad) == \
                "operation table is not associative"
    assert False in verdicts


def test_light_test_needs_generating_singletons(groups, engines):
    """A class that the singletons do not reach can break associativity
    where Light's test over the singletons does not look, so the validator
    first checks that the singletons generate every class."""
    import copy
    semi = build(groups["C2"], engine=engines["C2"])
    assert semi.op == ((0, 1), (1, 0)) and semi.singletons == (0, 1)
    bad = copy.copy(semi)
    bad.op = ((0, 1, 2), (1, 0, 2), (2, 2, 0))  # (x x) 1 = 1, x (x 1) = 0
    assert light_failure(bad.op, bad.singletons) is None
    assert not oracle_associative(bad.op)
    assert _failure(_validate_structure, bad) == "singletons do not generate the table"


@pytest.mark.parametrize("spec,before,central", [
    ("C6", "g", "g2"), ("D8", "a", "a2"), ("Q8", "K", "-E"),
    ("C6", "g4", "g5"), ("D8", "a2b", "a3b")])
def test_central_slot_corruption_fails_with_the_oracle_messages(spec, before, central,
                                                               monkeypatch):
    """One op entry reached only through one singleton (central, or the
    last slot's), at the step from the slot before it, sends a two-term
    sequence to the zero class.  The checks over merged states, where
    exponents at a central slot merge, must fail with the per-sequence
    oracles' messages, and so must the random part alone, where the central
    products come from a power table."""
    import copy
    group = parse_group(spec)
    semi = discover_folds(group)
    c, s = semi.singletons[group.index_of(before)], semi.singletons[group.index_of(central)]
    assert semi.op[c][s] != semi.zero
    bad = copy.copy(semi)
    bad.op = tuple(tuple(semi.zero if (i, j) == (c, s) else cls
                         for j, cls in enumerate(row))
                   for i, row in enumerate(semi.op))
    bad.provenance = dict(semi.provenance)
    recognition = _failure(_validate_recognition, bad, PiEngine(group), 0)
    assert recognition.startswith("recognition mismatch at ")
    assert recognition == _failure(oracle_recognition, bad, PiEngine(group), 0)
    zero = _failure(_validate_zero_class, bad)
    assert zero.startswith("zero class mismatch at ")
    assert zero == _failure(oracle_zero_class, bad, PiEngine(group))
    monkeypatch.setattr(classsemi, "EXHAUSTIVE_BUDGET", 1)
    for seed in range(3):
        random_part = _failure(_validate_recognition, bad, PiEngine(group), seed)
        assert random_part.startswith("recognition mismatch at random ")
        assert random_part == _failure(oracle_recognition, bad, PiEngine(group), seed)


@pytest.fixture(scope="module")
def d10_semigroup():
    return build(parse_group("D10"))


def test_d10_class_semigroup_passes_every_validator(d10_semigroup):
    """D10's 227 classes, found in five rounds of the context search, pass
    every validator, with every sequence of length <= 7 checked."""
    semi = d10_semigroup
    assert semi.n_classes == 227
    assert len(semi.idempotents()) == 8
    assert len(semi.units()) == 1
    prov = semi.provenance
    assert prov["class_counts"] == [42, 122, 187, 222, 227]
    assert prov["recognition_exhaustive_len"] == 7
    assert prov["recognition_exhaustive_count"] == 19_448 == comb(17, 10)


@pytest.mark.parametrize("spec", ["C6", "D6", "D8", "Q8"])
def test_merged_states_are_the_sequences_triples(spec):
    """The merged slot walk yields exactly the (class, z, S_nc) triples of
    the sequences up to the exhaustive length, on the built table, on an
    under-explored one and on one with a corrupted central-slot entry."""
    import copy
    from prodone.classsemi import _triples, _walk
    group = parse_group(spec)
    engine = PiEngine(group)
    built = discover_folds(group, engine)
    under = explore(group, [bytes(group.order)], engine)
    bad = copy.copy(built)
    z = max(built.structure.center.members)
    c, s = built.singletons[z - 1], built.singletons[z]
    bad.op = tuple(tuple(0 if (i, j) == (c, s) else cls for j, cls in enumerate(row))
                   for i, row in enumerate(built.op))
    max_len = 9 if spec == "C6" else 7
    for semi in (built, under, bad):
        assert set(_triples(semi, max_len)) == \
            {_walk(semi, exps) for exps in iter_multisets(group.order, max_len)}
