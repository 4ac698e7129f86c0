from __future__ import annotations

import itertools
import random

import pytest

from oracles import (
    oracle_atoms,
    oracle_pi,
    oracle_pi_lattice,
    oracle_subsequence_products,
)
from prodone.errors import ResourceLimitError, SequenceError
from prodone.groups import center_of, commutator_subgroup, parse_group
from prodone.sequences import (
    PiEngine,
    Sequence,
    is_product_one,
    is_product_one_free,
    iter_multisets,
    iter_multisets_exact,
    pivot,
    pivot_splits,
    product_set,
    subsequence_products,
)


def test_literal_parse_and_roundtrip(groups):
    d6 = groups["D6"]
    s = Sequence.from_literal(d6, "a^2,b^2")
    assert s.exps == (0, 2, 0, 2, 0, 0)
    assert str(s) == "a^2,b^2"
    assert Sequence.from_literal(d6, str(s)) == s
    assert Sequence.from_literal(d6, "") == Sequence.empty(d6)
    assert Sequence.from_literal(d6, "b, a, b").exps == (0, 1, 0, 2, 0, 0)


def test_literal_parse_product_group_names():
    g = parse_group("C2xC2")
    s = Sequence.from_literal(g, "(g,1)^2,(1,g)")
    assert s.length == 3


def test_literal_rejects_unknown_and_zero():
    d6 = parse_group("D6")
    with pytest.raises(Exception):
        Sequence.from_literal(d6, "z^2")
    with pytest.raises(SequenceError):
        Sequence.from_literal(d6, "a^0")


def test_pi_known_values(groups):
    d6, q8, c3 = groups["D6"], groups["Q8"], groups["C3"]
    assert product_set(Sequence.from_literal(d6, "a^2,b^2")).names() == ("1", "a", "a2")
    assert set(product_set(Sequence.from_literal(q8, "I,J")).names()) == {"K", "-K"}
    assert product_set(Sequence.empty(d6)).names() == ("1",)
    assert set(subsequence_products(Sequence.from_literal(d6, "a,b")).names()) == \
        {"a", "b", "ab", "a2b"}
    assert set(subsequence_products(Sequence.from_literal(c3, "g^2")).names()) == \
        {"g", "g2"}
    # a single term of order > 1 reaches only itself
    assert subsequence_products(Sequence.from_literal(q8, "I")).names() == ("I",)


def test_product_one_predicates(groups):
    d6 = groups["D6"]
    assert is_product_one(Sequence.from_literal(d6, "a^3"))
    assert not is_product_one(Sequence.from_literal(d6, "a,b"))
    assert is_product_one_free(Sequence.from_literal(d6, "a^2,b"))
    assert not is_product_one_free(Sequence.from_literal(d6, "a^3,b"))


def test_pi_matches_oracle_exhaustive_small(groups, engines):
    # C4 is abelian, D6 has a trivial center, D8 and Q8 have a center of
    # order 2: every mix of identity, central and non-central terms occurs
    for spec in ("C4", "D6", "D8", "Q8"):
        group = groups[spec]
        engine = engines[spec]
        for exps in iter_multisets(group.order, 4):
            seq = Sequence(group, exps)
            assert engine.pi_mask(bytes(exps)) == group.mask_of(oracle_pi(seq)), seq


def test_pi_matches_oracle_random_longer(groups, engines):
    rng = random.Random(7)
    for spec in ("D8", "Q8", "C6"):
        group = groups[spec]
        engine = engines[spec]
        for _ in range(60):
            terms = [rng.randrange(group.order) for _ in range(rng.randint(5, 7))]
            seq = Sequence.from_terms(group, terms)
            assert engine.pi(seq).mask == group.mask_of(oracle_pi(seq))


def test_subsequence_products_match_oracle(groups, engines):
    rng = random.Random(11)
    for spec in ("D6", "Q8"):
        group = groups[spec]
        engine = engines[spec]
        for _ in range(30):
            terms = [rng.randrange(group.order) for _ in range(rng.randint(1, 5))]
            seq = Sequence.from_terms(group, terms)
            assert engine.subsequence_mask(seq.exps) == \
                group.mask_of(oracle_subsequence_products(seq))


def test_pi_lands_in_single_commutator_coset(groups, engines):
    from prodone.groups import analyze
    rng = random.Random(3)
    for spec in ("D6", "D8", "Q8"):
        group = groups[spec]
        engine = engines[spec]
        comm = analyze(group).commutator.members
        for _ in range(80):
            terms = [rng.randrange(group.order) for _ in range(rng.randint(0, 8))]
            seq = Sequence.from_terms(group, terms)
            elems = engine.pi(seq).elements()
            p = elems[0]
            for q in elems:
                assert group.mul[p][group.inv[q]] in comm


def test_pi_submultiplicative(groups, engines):
    rng = random.Random(5)
    for spec in ("D6", "Q8"):
        group = groups[spec]
        engine = engines[spec]
        for _ in range(60):
            s = Sequence.from_terms(group, [rng.randrange(group.order)
                                            for _ in range(rng.randint(0, 4))])
            t = Sequence.from_terms(group, [rng.randrange(group.order)
                                            for _ in range(rng.randint(0, 4))])
            ps, pt = engine.pi(s).elements(), engine.pi(t).elements()
            pst = engine.pi_mask(s.concat(t).exps)
            for x in ps:
                for y in pt:
                    assert pst >> group.mul[x][y] & 1


def test_single_product_iff_commuting_support(groups, engines):
    from prodone.groups import closure_of
    rng = random.Random(9)
    for spec in ("D8", "Q8"):
        group = groups[spec]
        engine = engines[spec]
        for _ in range(80):
            terms = [rng.randrange(group.order) for _ in range(rng.randint(1, 6))]
            seq = Sequence.from_terms(group, terms)
            sup = closure_of(group, seq.support())
            abelian = all(group.mul[a][b] == group.mul[b][a]
                          for a in sup for b in sup)
            assert (len(engine.pi(seq)) == 1) == abelian


def test_sequence_algebra(groups):
    d6 = groups["D6"]
    s = Sequence.from_literal(d6, "a,b^2")
    t = Sequence.from_literal(d6, "a^2")
    assert str(s.concat(t)) == "a^3,b^2"
    assert s.concat(t).remove(t) == s
    assert s.contains(Sequence.from_literal(d6, "b"))
    assert not s.contains(t)
    with pytest.raises(SequenceError):
        s.remove(t)
    assert s.repeat(2).exps == (0, 2, 0, 4, 0, 0)
    q8 = groups["Q8"]
    u = Sequence.from_literal(q8, "I^4,J^2")
    assert str(u.inverses()) == "-I^4,-J^2"


def test_resource_cap_is_a_hard_error(groups):
    q8 = groups["Q8"]
    big = Sequence.from_terms(q8, [g for g in range(8) for _ in range(6)])
    with pytest.raises(ResourceLimitError):
        product_set(big, memo_cap=1000)


def test_engine_memo_cap_and_central_split(groups):
    q8, c6, d8 = groups["Q8"], groups["C6"], groups["D8"]
    # the non-central part of `big` has 7^6 sub-multisets, but the DP stops
    # at each node that fills its commutator coset: 43 entries beside the
    # empty key, so a cap just below that count is a hard error
    big = bytes([6] * 8)
    engine = PiEngine(q8)
    engine.pi_mask(big)
    assert engine.memo_size() == 44
    with pytest.raises(ResourceLimitError):
        PiEngine(q8, memo_cap=40).pi_mask(big)

    # abelian: every term is central, so the memo gains only the query
    engine = PiEngine(c6)
    key = bytes([5] * 6)
    z = 0
    for g in range(6):
        for _ in range(5):
            z = c6.mul[z][g]
    assert engine.pi_mask(key) == 1 << z
    assert engine.memo_size() <= 2

    # D8: pi(S_nc + central terms) = pi(S_nc) * z, one new memo entry
    central = sorted(center_of(d8).members)
    assert len(central) == 2 and central[0] == 0
    r = central[1]
    engine = PiEngine(d8)
    s_nc = Sequence.from_terms(d8, [g for g in range(8) if g not in central] * 2)
    pi_nc = engine.pi_mask(s_nc.exps)
    before = engine.memo_size()
    s = s_nc.concat(Sequence.from_terms(d8, [0, 0, r, r, r]))
    assert engine.pi_mask(s.exps) == d8.mul_mask(pi_nc, r)
    assert engine.memo_size() == before + 1


def test_deep_key_saturates_without_recursion(groups):
    """Multiplicities up to 255: the DP fills the coset of the key in a
    couple of thousand entries, on an explicit stack; the memo cap still
    stops it."""
    d6 = groups["D6"]
    key = bytes([0] + [255] * 5)
    c = 0
    for g, e in enumerate(key):
        for _ in range(e):
            c = d6.mul[c][g]
    comm = commutator_subgroup(d6).mask()
    engine = PiEngine(d6)
    assert engine.pi_mask(key) == d6.mul_mask(comm, c)
    assert engine.memo_size() < 2000
    with pytest.raises(ResourceLimitError):
        PiEngine(d6, memo_cap=1000).pi_mask(key)


def _random_key(rng, order, length):
    exps = [0] * order
    for _ in range(length):
        exps[rng.randrange(order)] += 1
    return bytes(exps)


@pytest.mark.parametrize("spec", ["D6", "D8", "Q8", "D10", "D12", "C2xD6"])
def test_saturating_pi_matches_the_lattice_dp(spec):
    """pi_mask and every memo entry it leaves equal the full-lattice DP on
    seeded keys of length <= 14; on keys of length 14 a fresh engine stores
    strictly fewer entries than the lattice."""
    group = parse_group(spec)
    rng = random.Random(f"saturate-{spec}")
    engine = PiEngine(group)
    lattice = {bytes(group.order): 1}
    for _ in range(150):
        key = _random_key(rng, group.order, rng.randint(0, 14))
        assert engine.pi_mask(key) == oracle_pi_lattice(group, key, lattice)
    assert all(lattice[k] == mask for k, mask in engine._memo.items())
    for _ in range(3):
        key = _random_key(rng, group.order, 14)
        fresh, own = PiEngine(group), {bytes(group.order): 1}
        assert fresh.pi_mask(key) == oracle_pi_lattice(group, key, own)
        assert fresh.memo_size() < len(own)


def test_multiplicities_above_a_byte_are_rejected(groups):
    d6 = groups["D6"]
    assert Sequence(d6, (255,) + (0,) * 5).length == 255
    for exps in [(256,) + (0,) * 5, (0, -1, 0, 0, 0, 0)]:
        with pytest.raises(SequenceError):
            Sequence(d6, exps)
    with pytest.raises(SequenceError):
        Sequence.from_literal(d6, "a^200,a^100")


def test_engine_memo_is_deterministic(groups):
    q8 = groups["Q8"]
    s = Sequence.from_literal(q8, "I^3,J,K^2")
    m1 = PiEngine(q8).pi_mask(s.exps)
    m2 = PiEngine(q8).pi_mask(s.exps)
    assert m1 == m2


@pytest.mark.parametrize("spec", ["D6", "Q8"])
def test_engine_is_atom_matches_oracle_atoms(groups, spec):
    group = groups[spec]
    engine = PiEngine(group)
    want = {a.exps for a in oracle_atoms(group, group.order)}
    got = {exps for exps in iter_multisets(group.order, group.order)
           if sum(exps) and engine.is_atom(bytes(exps))}
    assert got == want


@pytest.mark.parametrize("spec", ["C1", "D6", "Q8"])
def test_has_one_agrees_with_pi_mask(groups, spec):
    """`has_one` on a cold and on a warm memo, against the identity bit of
    a second engine's `pi_mask`."""
    group = groups[spec]
    engine, reference = PiEngine(group), PiEngine(group)
    keys = [bytes(e) for e in iter_multisets(group.order, 4)]
    for _ in range(2):
        got = [engine.has_one(key) for key in keys]
        assert got == [reference.pi_mask(key) & 1 for key in keys]
    assert 0 < sum(got) < len(keys) or group.order == 1


def _recursive_multisets_exact(n, total):
    """The earlier recursive generator, kept as the order reference."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_multisets_exact(n - 1, total - first):
            yield (first,) + rest


def test_iter_multisets_exact_keeps_the_recursive_order():
    for n in range(1, 7):
        for total in range(7):
            assert (list(iter_multisets_exact(n, total))
                    == list(_recursive_multisets_exact(n, total))), (n, total)


def test_pivot_splits_are_exact_and_cover_every_split():
    assert pivot(bytes((0, 0, 3, 1))) == 2
    for n in range(1, 5):
        for exps in iter_multisets(n, 5):
            if not sum(exps):
                continue
            key = bytes(exps)
            p = pivot(key)
            subs = [bytes(t) for t in itertools.product(*(range(e + 1) for e in key))]
            splits = [(t, bytes(a - b for a, b in zip(key, t))) for t in subs]
            got = list(pivot_splits(key))
            # every (T, key - T) with T holding the pivot, once, ascending
            assert got == [(t, c) for t, c in splits if t[p]], key
            assert got[-1] == (key, bytes(n))
            pairs = set(got)
            assert all((t, c) in pairs or (c, t) in pairs for t, c in splits), key
