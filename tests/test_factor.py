from __future__ import annotations

import gc
import random

import pytest

from oracles import (
    lexicographic_atoms,
    oracle_atoms,
    oracle_least_image,
    oracle_lengths,
    orbit_getters,
)
from prodone.checks import _two_atom_bound_ok
from prodone.errors import BudgetExceededError, SequenceError
from prodone.factor import (
    FactorizationContext,
    atom_splits,
    davenport,
    divides_in_B,
    enumerate_atoms,
    factorization_lengths,
    is_atom,
    small_davenport,
)
from prodone.groups import analyze, parse_group
from prodone.sequences import (
    PiEngine,
    Sequence,
    guard_bits,
    iter_multisets,
    pack,
    packed_remainders,
    unpack,
)


def test_atoms_c3_exact(groups, invariants_ctx):
    c3 = groups["C3"]
    atoms = invariants_ctx["C3"].atoms
    got = {str(a) for a in atoms.atoms}
    assert got == {"1", "g,g2", "g^3", "g2^3"}
    assert atoms.max_length == 3


def test_atoms_c1(groups):
    c1 = groups["C1"]
    atoms = enumerate_atoms(c1)
    assert [str(a) for a in atoms.atoms] == ["1"]
    assert atoms.max_length == 1


def test_atoms_match_naive_oracle_small(groups, invariants_ctx):
    for spec in ("C4", "C5", "C6", "D6"):
        group = groups[spec]
        got = {a.exps for a in invariants_ctx[spec].atoms.atoms}
        want = {a.exps for a in oracle_atoms(group, group.order)}
        assert got == want, spec


def test_every_atom_within_group_order(invariants_ctx):
    for spec, inv in invariants_ctx.items():
        assert all(a.length <= inv.group.order for a in inv.atoms.atoms)


def test_is_atom_examples(groups, engines):
    q8 = groups["Q8"]
    assert is_atom(Sequence.from_literal(q8, "I^4,J^2"), engines["Q8"])
    assert is_atom(Sequence.from_literal(q8, "E"), engines["Q8"])
    # commuting pair of inverse pairs splits
    c6 = groups["C6"]
    s = Sequence.from_literal(c6, "g,g5,g2,g4")
    assert not is_atom(s, engines["C6"])
    assert not is_atom(Sequence.empty(q8), engines["Q8"])
    # pi of the empty key is {1}, and its one pivot part is itself
    assert not engines["Q8"].is_atom(0)
    assert not PiEngine(groups["D6"]).is_atom(0)


def test_atom_support_restriction(groups, engines):
    q8 = groups["Q8"]
    sup = [q8.index_of(n) for n in ("E", "I", "-E", "-I")]
    atoms = enumerate_atoms(q8, support=sup, engine=engines["Q8"])
    assert all(set(a.support()) <= set(sup) for a in atoms.atoms)
    # the restricted monoid is that of the cyclic subgroup generated by I
    assert atoms.max_length == 4
    with pytest.raises(ValueError):
        davenport(q8, atoms=atoms)


def test_davenport_fixture_values(groups, engines):
    for spec, want in [("C6", (5, 6)), ("Q8", (4, 6)), ("D8", (4, 6)),
                       ("D6", (3, 6)), ("C1", (0, 1)), ("C2", (1, 2))]:
        rep = davenport(groups[spec], engine=engines[spec])
        assert (rep.small, rep.large) == want, spec
        assert rep.small + 1 <= rep.large
        assert rep.atom_witness.length == rep.large
        assert small_davenport(groups[spec], engines[spec]) == rep.small


def test_free_witness_plus_inverse_is_atom(groups, engines):
    """Appending the inverse of a reachable product to a product-one-free
    sequence yields an atom."""
    from prodone.factor import _free_frontier
    for spec in ("C6", "D6", "Q8", "D8"):
        group = groups[spec]
        engine = engines[spec]
        levels = _free_frontier(group, tuple(range(group.order)), engine)
        for level in levels:
            for exps, _reach in level:
                seq = Sequence(group, tuple(unpack(exps, group.order)))
                for g in engine.pi(seq).elements():
                    extended = seq.concat(Sequence.from_terms(group, [group.inv[g]]))
                    assert is_atom(extended, engine), extended


def test_divides_in_b_examples(groups, engines):
    q8, d6 = groups["Q8"], groups["D6"]
    u = Sequence.from_literal(q8, "I^4")
    w = Sequence.from_literal(q8, "I^4,J^2")
    assert not divides_in_B(u, w, engines["Q8"])
    assert divides_in_B(w, w, engines["Q8"])
    u2 = Sequence.from_literal(d6, "b^2")
    w2 = Sequence.from_literal(d6, "b^2,a^3")
    assert divides_in_B(u2, w2, engines["D6"])
    with pytest.raises(SequenceError):
        divides_in_B(Sequence.from_literal(q8, "I"), w, engines["Q8"])


def test_lengths_c3_example(groups, invariants_ctx):
    c3 = groups["C3"]
    b = Sequence.from_literal(c3, "g^3,g2^3")
    ls = invariants_ctx["C3"].context.lengths(b)
    assert ls.lengths == (2, 3)
    assert ls.delta() == (1,)
    assert invariants_ctx["C3"].context.count_factorizations(b) == 2


def test_lengths_of_atom_and_empty(groups, invariants_ctx):
    q8 = groups["Q8"]
    ctx = invariants_ctx["Q8"].context
    atom = Sequence.from_literal(q8, "I^4,J^2")
    assert ctx.lengths(atom).lengths == (1,)
    assert ctx.lengths(Sequence.empty(q8)).lengths == (0,)
    with pytest.raises(SequenceError):
        ctx.lengths(Sequence.from_literal(q8, "I"))


def test_lengths_match_oracle_small(groups, invariants_ctx, engines):
    rng = random.Random(13)
    for spec in ("C4", "D6"):
        group = groups[spec]
        ctx = invariants_ctx[spec].context
        engine = engines[spec]
        for _ in range(40):
            terms = [rng.randrange(group.order) for _ in range(rng.randint(1, 6))]
            seq = Sequence.from_terms(group, terms)
            if not engine.is_product_one(seq):
                continue
            assert set(ctx.lengths(seq).lengths) == oracle_lengths(seq), seq


def _random_vectors(seed: int, count: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 20)
        top = rng.choice((1, 3, 255))
        out.append(tuple(rng.randint(0, top) for _ in range(n)))
    return out


def test_pack_round_trip_and_order():
    vectors = _random_vectors(5, 1000)
    for v in vectors:
        assert unpack(pack(v), len(v)) == bytes(v)
    by_length: dict[int, list] = {}
    for v in vectors:
        by_length.setdefault(len(v), []).append(v)
    for same in by_length.values():
        assert sorted(same, key=pack) == sorted(same)
        for a, b in zip(same, same[1:]):
            assert (pack(a) < pack(b)) == (a < b)
    with pytest.raises(ValueError):
        pack((0, 256))


def test_guarded_subtraction_matches_slotwise():
    rng = random.Random(7)
    contained = 0
    for x in _random_vectors(9, 1000):
        n = len(x)
        guard = guard_bits(n)
        # sub-multisets of x, and ones that pass x in some slot
        parts = []
        for _ in range(4):
            a = tuple(rng.randint(0, e) for e in x)
            if rng.random() < 0.5:
                i = rng.randrange(n)
                a = a[:i] + (min(255, x[i] + rng.randint(1, 3)),) + a[i + 1:]
            parts.append(a)
        start = rng.randrange(4)
        want = [(i, bytes(t - s for s, t in zip(a, x)))
                for i, a in enumerate(parts)
                if i >= start and all(s <= t for s, t in zip(a, x))]
        got = packed_remainders(pack(x), [pack(a) for a in parts], guard,
                                start)
        assert [(i, unpack(d, n)) for i, d in got] == want, (x, parts)
        contained += len(want)
    assert 300 < contained < 2500


def test_length_mask_matches_oracle(invariants_ctx):
    """The bitmask of `length_mask`, with the atom list and without, against
    the brute-force lengths on seeded product-one sequences."""
    for spec in ("D8", "Q8"):
        inv = invariants_ctx[spec]
        local = FactorizationContext(inv.group, None, inv.engine)
        for seq in _product_one_samples(inv.group, inv.engine, 17, 12, 7):
            want = oracle_lengths(seq)
            for ctx in (inv.context, local):
                mask = ctx.length_mask(pack(seq.exps))
                assert {l for l in range(mask.bit_length())
                        if mask >> l & 1} == want, (spec, seq)


def test_lengths_without_atom_list_matches(groups, engines):
    d6 = groups["D6"]
    ctx = FactorizationContext(d6, None, engines["D6"])
    b = Sequence.from_literal(d6, "a^3,b^2,ab^2")
    withlist = factorization_lengths(b, atoms=enumerate_atoms(d6, engine=engines["D6"]),
                                     engine=engines["D6"])
    assert ctx.lengths(b).lengths == withlist.lengths


def test_local_split_lengths_reject_off_coset_parts(groups):
    """Without an atom list, L(B) tests a part T for atomicity only after
    `in_pi(T, 0)`, which rejects a T outside G' from its terms: the pi memo
    keeps 127 entries here, where an atom test on every part left 225."""
    d8 = groups["D8"]
    engine = PiEngine(d8)
    ctx = FactorizationContext(d8, None, engine)
    b = Sequence.from_literal(d8, "a^4,b^4,ab^2,a2b^2")
    assert ctx.lengths(b).lengths == (3, 4, 5)
    assert engine.memo_size() == 127


@pytest.mark.parametrize("spec,max_len", [
    ("D6", 6), ("D8", 5), ("Q8", 5), ("C2xC4", 6),
])
def test_short_split_branches_match_oracle_lengths(spec, max_len):
    """The atom and two-atom tests, with their {1} and {g, g^-1} branches,
    against the brute-force lengths on every product-one multiset of length
    <= max_len, the empty one included.  The set holds keys with the
    identity twice and with a repeated involution, and on a non-abelian
    group keys with a pair {g, g^-1} whose remainder is not product-one.
    Length 6 is the first where a pair's product-one remainder without the
    identity can fail to be an atom (three pairs); it runs on the two
    groups where it is cheap."""
    group = parse_group(spec)
    engine = PiEngine(group)
    n = group.order
    involutions = [g for g in range(1, n) if group.inv[g] == g]
    pair = "pair with a non-product-one remainder"
    met = set()
    for exps in iter_multisets(n, max_len):
        key = pack(exps)
        if not engine.has_one(key):
            continue
        want = oracle_lengths(Sequence(group, exps))
        assert engine.is_atom(key) == (1 in want), exps
        assert _two_atom_bound_ok(key, engine) == bool(want & {1, 2}), exps
        if exps[0] >= 2:
            met.add("identity twice")
        if any(exps[g] >= 2 for g in involutions):
            met.add("repeated involution")
        if any(rest and not engine.has_one(rest)
               for _, rest in engine.split_pairs(key)):
            met.add(pair)
    assert met == {"identity twice", "repeated involution"} | (
        set() if group.is_abelian else {pair})


def test_inverse_pair_product_lengths_q8(groups, invariants_ctx, engines):
    """The double of a maximal atom with its inverse sequence realizes both a
    2-factorization and a 6-factorization."""
    q8 = groups["Q8"]
    engine = engines["Q8"]
    u = Sequence.from_literal(q8, "I^4,J^2")
    v = u.inverses()
    assert is_atom(v, engine)
    b = u.concat(v)
    ls = invariants_ctx["Q8"].context.lengths(b)
    assert 2 in ls.lengths
    assert max(ls.lengths) >= 6
    # the 6-factorization: each term paired with its inverse
    for g in u.terms():
        assert is_atom(Sequence.from_terms(q8, [g, q8.inv[g]]), engine)


def test_q8_atom_census(groups, invariants_ctx):
    """Quaternion atoms by length.  The maximal lengths have closed forms:
    length 6 is exactly g1^4 * g2^2 over distinct axes; length 5 is the
    three families g1^3*g2*g3 (three different axes), g1^2*g2^2*(-E), and
    g1*(-g1)*g2*(-g2)*(-E)."""
    q8 = groups["Q8"]
    atoms = invariants_ctx["Q8"].atoms
    hist = {}
    for a in atoms.atoms:
        hist[a.length] = hist.get(a.length, 0) + 1
    assert hist == {1: 1, 2: 4, 3: 14, 4: 38, 5: 39, 6: 24}

    axes = [q8.index_of(n) for n in ("I", "J", "K", "-I", "-J", "-K")]
    neg = {g: q8.mul[q8.index_of("-E")][g] for g in axes}
    m_e = q8.index_of("-E")

    want6 = set()
    for g1 in axes:
        for g2 in axes:
            if g2 not in (g1, neg[g1]):
                exps = [0] * 8
                exps[g1] += 4
                exps[g2] += 2
                want6.add(tuple(exps))
    assert {a.exps for a in atoms.by_length(6)} == want6

    want5 = set()
    for g1 in axes:
        for g2 in axes:
            for g3 in axes:
                if g2 >= g3 or {g2, g3} & {g1, neg[g1]} or g3 == neg[g2]:
                    continue
                exps = [0] * 8
                exps[g1] += 3
                exps[g2] += 1
                exps[g3] += 1
                want5.add(tuple(exps))
        for g2 in axes:
            if g2 > g1 and g2 != neg[g1]:
                exps = [0] * 8
                exps[g1] += 2
                exps[g2] += 2
                exps[m_e] += 1
                want5.add(tuple(exps))
    for gi, gj in (("I", "J"), ("I", "K"), ("J", "K")):
        exps = [0] * 8
        for nm in (gi, "-" + gi, gj, "-" + gj, "-E"):
            exps[q8.index_of(nm)] += 1
        want5.add(tuple(exps))
    assert {a.exps for a in atoms.by_length(5)} == want5


def test_free_sequences_shorter_than_small_davenport(groups, engines):
    for spec in ("C5", "D6"):
        group = groups[spec]
        engine = engines[spec]
        d = small_davenport(group, engine)
        for exps in iter_multisets(group.order, d + 1):
            if sum(exps) == d + 1:
                assert not engine.is_product_one_free(Sequence(group, exps))


def _atoms(group, support=None, budget=None):
    kwargs = {} if budget is None else {"budget": budget}
    atom_set = enumerate_atoms(group, support, **kwargs)
    return atom_set.support, atom_set.max_length, atom_set.atoms


@pytest.mark.parametrize("spec,names", [
    ("D6", None), ("D8", None), ("Q8", None), ("D10", None),
    ("D8", ("a", "a3", "b", "a2b")),
    ("Q8", ("I", "J", "-I", "-J")),
    ("Q8", ("E", "I", "K", "-E", "-K")),
])
def test_orbit_reduced_atoms_match_unreduced_scan(unreduce, spec, names):
    group = parse_group(spec)
    support = None if names is None else [group.index_of(x) for x in names]
    reduced = _atoms(group, support)
    unreduce()
    assert _atoms(group, support) == reduced


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("spec,names", [
    ("C6", None), ("C2xC4", None), ("C2xC2xC2", None), ("D6", None),
    ("D8", None), ("Q8", None), ("D10", None),
    ("D8", ("a", "a3", "b", "a2b")),
    ("Q8", ("I", "J", "-I", "-J")),
    ("Q8", ("E", "I", "K", "-E", "-K")),
])
def test_split_scan_matches_lexicographic_scan(unreduce, spec, names, reduced):
    """Atoms grow from atoms: the split-generated scan finds exactly the
    atoms of the exhaustive scan, in the same order."""
    group = parse_group(spec)
    support = None if names is None else [group.index_of(x) for x in names]
    if not reduced:
        unreduce()
    got = [a.exps for a in enumerate_atoms(group, support).atoms]
    assert got == [a.exps for a in lexicographic_atoms(group, support)]


@pytest.mark.parametrize("spec", ["D6", "Q8"])
def test_short_atoms_match_brute_force_oracle(groups, spec):
    group = groups[spec]
    got = [a.exps for a in enumerate_atoms(group).atoms if a.length <= 5]
    assert got == [a.exps for a in oracle_atoms(group, 5)]


@pytest.mark.parametrize("spec,atoms,large", [
    ("D12", 914, 9), ("C2xD6", 914, 9), ("D16", 8021, 12),
])
def test_split_scan_reach(spec, atoms, large):
    """D(G) = d(G) + |G'| on groups with a cyclic subgroup of index 2
    (Geroldinger and Grynkiewicz, The large Davenport constant I)."""
    group = parse_group(spec)
    atom_set = enumerate_atoms(group)
    rep = davenport(group, atoms=atom_set)
    assert len(atom_set) == atoms
    assert rep.large == large
    assert rep.large == rep.small + analyze(group).commutator.order


def test_orbit_getters_fix_the_support(groups):
    d8 = groups["D8"]
    assert len(orbit_getters(d8, tuple(range(8)))) == 7
    sup = tuple(d8.index_of(x) for x in ("a", "a3", "b", "a2b"))
    assert len(orbit_getters(d8, sup)) == 3
    # a -> a^-1 moves a out of the set, b -> a^k b moves b out unless k = 0
    sup = tuple(d8.index_of(x) for x in ("1", "a", "b"))
    assert orbit_getters(d8, sup) == []


@pytest.mark.parametrize("spec,names", [
    ("D8", None), ("Q8", None), ("D14", None), ("D18", None),
    ("C2xC2xC2", None),
    ("D8", ("a", "a3", "b", "a2b")),
    ("D8", ("a", "a3")),
    ("C2xD6", None),
    ("Q8", ("I", "J", "-I", "-J")),
])
def test_orbit_trie_gives_the_least_image(spec, names):
    """Every split the atom scan yields, up to atoms of length 5, carries
    the orbit of the split under the automorphisms fixing the support set,
    one image per automorphism, and its least member, as applying every
    automorphism does.  (The name is kept from the prefix trie over Aut(G)
    that found the least member before the scan carried the images.)"""
    group = parse_group(spec)
    n = group.order
    sup = tuple(range(n)) if names is None else tuple(
        sorted(group.index_of(x) for x in names))
    getters = orbit_getters(group, sup)
    splits = 0
    for atom, t, h, least, _, images in atom_splits(
            group, sup, PiEngine(group), 10**6, 5):
        split = list(unpack(atom, n))
        split[t] -= 1
        split[h] += 1
        split[group.mul[group.inv[h]][t]] += 1
        key = bytes(split)
        assert len(images) == len(getters) + 1
        assert set(images) == {pack(key), *(pack(get(key)) for get in getters)}
        assert least == pack(oracle_least_image(key, getters))
        splits += 1
    assert splits > 10


def test_atom_enumeration_budget_counts_skipped_candidates(groups, unreduce):
    q8 = groups["Q8"]
    # distinct splits of the canonical atoms of lengths 1 to 6 (no split of
    # length 7 is an atom, which ends the scan); without the orbit
    # reduction every atom is split
    for switch, candidates in ((lambda: None, 145), (unreduce, 600)):
        switch()
        assert len(_atoms(q8, budget=candidates)[2]) == 120
        with pytest.raises(BudgetExceededError):
            _atoms(q8, budget=candidates - 1)


def test_count_factorizations_leaves_no_reference_cycles(groups, invariants_ctx):
    d6 = groups["D6"]
    ctx = invariants_ctx["D6"].context
    seq = Sequence.from_literal(d6, "b^6")
    gc.collect()
    gc.disable()
    try:
        count = ctx.count_factorizations(seq)
        found = gc.collect()
    finally:
        gc.enable()
    assert count > 0
    assert found == 0


def _product_one_samples(group, engine, seed, count, max_len):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        seq = Sequence.from_terms(group, [rng.randrange(group.order)
                                          for _ in range(rng.randint(1, max_len))])
        if engine.is_product_one(seq):
            out.append(seq)
    return out


def _count_by_min_idx(atoms, engine, key, min_idx, memo):
    """The earlier count: atoms of the whole list taken in non-decreasing
    index order."""
    if not sum(key):
        return 1
    got = memo.get((key, min_idx))
    if got is not None:
        return got
    total = 0
    for idx in range(min_idx, len(atoms)):
        a = atoms[idx]
        if all(x <= y for x, y in zip(a, key)):
            comp = bytes(y - x for x, y in zip(a, key))
            if not sum(comp) or engine.pi_mask(comp) & 1:
                total += _count_by_min_idx(atoms, engine, comp, idx, memo)
    memo[(key, min_idx)] = total
    return total


@pytest.mark.parametrize("spec", ["D6", "D8", "Q8"])
def test_pivot_count_matches_min_idx_recursion(invariants_ctx, spec):
    inv = invariants_ctx[spec]
    atoms = [bytes(a.exps) for a in inv.atoms.atoms]
    for seq in _product_one_samples(inv.group, inv.engine, 61, 25, 10):
        want = _count_by_min_idx(atoms, inv.engine, bytes(seq.exps), 0, {})
        assert inv.context.count_factorizations(seq) == want, seq


@pytest.mark.parametrize("spec", ["D6", "D8", "Q8"])
def test_local_split_lengths_match_atom_list(invariants_ctx, spec):
    inv = invariants_ctx[spec]
    local = FactorizationContext(inv.group, None, inv.engine)
    for seq in _product_one_samples(inv.group, inv.engine, 67, 25, 9):
        assert local.lengths(seq) == inv.context.lengths(seq), seq
    # the split tests built on sub_multisets against the brute-force oracle
    for seq in _product_one_samples(inv.group, inv.engine, 71, 25, 8):
        want = oracle_lengths(seq)
        assert set(local.lengths(seq).lengths) == want, seq
        assert is_atom(seq, inv.engine) == (1 in want), seq
        assert _two_atom_bound_ok(pack(seq.exps),
                                  inv.engine) == bool(want & {1, 2}), seq
