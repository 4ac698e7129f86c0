from __future__ import annotations

import random

import pytest

from oracles import oracle_is_atom
from prodone.checks import (
    _two_atom_bound_ok,
    krull_witness,
    property_P,
    quotient_group_member_mask,
    seminormality,
)
from prodone.errors import BudgetExceededError
from prodone.factor import (
    canonical_atoms,
    is_atom,
    least_image,
    orbit_trie,
)
from prodone.groups import parse_group
from prodone.sequences import PiEngine, Sequence


def validate_seminormality_witness(group, engine, seq):
    """The three defining conditions of a seminormality counterexample."""
    comm_mask = quotient_group_member_mask(group)
    pm = engine.pi_mask(bytes(seq.exps))
    assert not pm & ~comm_mask, "witness must lie in the quotient group"
    assert not pm & 1, "witness must not be product-one"
    assert engine.is_product_one(seq.repeat(2))
    assert engine.is_product_one(seq.repeat(3))


def test_property_p_quaternion_and_abelian(groups, engines):
    assert property_P(groups["Q8"], engines["Q8"]).holds is True
    for spec in ("C3", "C4", "C5", "C6"):
        assert property_P(groups[spec], engines[spec]).holds is True


def test_property_p_trivial_group(groups):
    assert property_P(groups["C1"]).holds is True


def test_property_p_bounded_scan_is_tri_state(groups):
    v = property_P(groups["Q8"], max_len=2)
    assert v.holds is None
    assert v.bound == 2


def test_property_p_d14_witness_is_first_of_full_scan():
    """The orbit-reduced scan returns the counterexample that the full scan
    meets first."""
    v = property_P(parse_group("D14"))
    assert v.holds is False and v.bound == 14
    assert v.as_dict()["witness"] == {
        "atom": "a3^2,a4^3,a5b,a6b",
        "term": "a5b",
        "factors": ("a5", "b"),
        "split_sequence": "a3^2,a4^3,a5,b,a6b",
        "split_lengths": [3],
    }


def test_property_p_budget_counts_skipped_candidates(groups, unreduce):
    d8 = groups["D8"]
    # distinct splits of the canonical atoms of lengths 1 to 6 (no split of
    # length 7 is an atom, which ends the scan); without the orbit
    # reduction every atom is split
    for switch, candidates in ((lambda: None, 199), (unreduce, 393)):
        switch()
        assert property_P(d8, budget=candidates).holds is True
        with pytest.raises(BudgetExceededError):
            property_P(d8, budget=candidates - 1)


def test_bounded_property_p_counts_the_splits_it_tests(groups):
    d8 = groups["D8"]
    # the distinct splits of the canonical atoms of lengths 1 to 3, which
    # the scan forms to hand them to the two-atom test
    assert property_P(d8, max_len=3, budget=52).holds is None
    with pytest.raises(BudgetExceededError):
        property_P(d8, max_len=3, budget=51)


@pytest.mark.parametrize("spec", ["D6", "D8", "Q8"])
def test_bounded_property_p_matches_unreduced(groups, unreduce, spec):
    group = groups[spec]
    n = group.order
    reduced = [property_P(group, max_len=m) for m in range(1, n + 1)]
    assert [v.holds for v in reduced] == [None] * (n - 1) + [True]
    unreduce()
    assert [property_P(group, max_len=m) for m in range(1, n + 1)] == reduced


def test_property_p_orbit_cache_matches_unreduced(groups, unreduce):
    """Testing one split per Aut(G)-orbit gives the verdict of testing every
    split, with a smaller pi memo."""
    cases = {spec: groups[spec] for spec in ("D6", "D8", "Q8")}
    cases["D10"] = parse_group("D10")
    engines = {spec: (PiEngine(group), PiEngine(group))
               for spec, group in cases.items()}
    reduced = {spec: property_P(group, engines[spec][0])
               for spec, group in cases.items()}
    unreduce()
    for spec, group in cases.items():
        assert property_P(group, engines[spec][1]) == reduced[spec], spec
        assert reduced[spec].holds is True, spec
    reduced_engine, full_engine = engines["D10"]
    assert reduced_engine.memo_size() < full_engine.memo_size()


def test_two_atom_verdict_is_automorphism_invariant(groups, engines):
    """The fact the orbit cache of property_P rests on: every split of every
    canonical atom gets the verdict of each of its images under Aut(G), and
    `least_image` is the least of those images."""
    for spec, n_auts in (("D8", 8), ("Q8", 24)):
        group, engine = groups[spec], engines[spec]
        n = group.order
        auts = group.automorphisms()
        assert len(auts) == n_auts
        trie = orbit_trie(group, tuple(range(n)))
        for atom in canonical_atoms(group, tuple(range(n)), engine,
                                    10_000, n):
            for g in Sequence(group, atom).support():
                for h1 in range(n):
                    split = list(atom)
                    split[g] -= 1
                    split[h1] += 1
                    split[group.mul[group.inv[h1]][g]] += 1
                    key = bytes(split)
                    ok = _two_atom_bound_ok(key, engine)
                    images = []
                    for sigma in auts:
                        image = [0] * n
                        for x, e in enumerate(split):
                            image[sigma[x]] += e
                        images.append(tuple(image))
                        assert _two_atom_bound_ok(bytes(image), engine) == ok
                    assert least_image(key, trie) == min(images)


def test_property_p_over_the_automorphism_cap_is_unreduced(unreduce):
    group = parse_group("C2xC2xC2xC2")
    reduced_engine, full_engine = PiEngine(group), PiEngine(group)
    got = property_P(group, reduced_engine, max_len=4)
    unreduce()
    assert property_P(group, full_engine, max_len=4) == got
    assert got.holds is None
    assert reduced_engine.memo_size() == full_engine.memo_size()


def test_seminormality_verdicts(groups, engines):
    assert seminormality(groups["D8"], 4, engines["D8"]).holds is True
    assert seminormality(groups["Q8"], 4, engines["Q8"]).holds is True
    assert seminormality(groups["C5"], 4, engines["C5"]).holds is True
    v = seminormality(groups["D6"], 4, engines["D6"])
    assert v.holds is False
    validate_seminormality_witness(groups["D6"], engines["D6"],
                                   v.witness["sequence"])


def test_seminormality_dihedral_halfrotation_witnesses(groups, engines):
    d6 = groups["D6"]
    validate_seminormality_witness(d6, engines["D6"],
                                   Sequence.from_literal(d6, "a,b^2"))
    d14 = parse_group("D14")
    validate_seminormality_witness(d14, PiEngine(d14),
                                   Sequence.from_literal(d14, "a^3,b^2"))


def test_seminormality_unknown_when_bound_too_small(groups):
    # commutator of order 3; a bound of 1 cannot see any witness
    v = seminormality(groups["D6"], 1)
    assert v.holds is None


def test_krull_verdicts(groups, engines):
    assert krull_witness(groups["C6"], engine=engines["C6"]).holds is True
    v = krull_witness(groups["D6"], 4, engines["D6"])
    assert v.holds is False
    root = v.witness["root_witness"]
    k = v.witness["power"]
    engine = engines["D6"]
    assert not engine.is_product_one(root)
    assert engine.is_product_one(root.repeat(k))
    comm_mask = quotient_group_member_mask(groups["D6"])
    assert not engine.pi_mask(bytes(root.exps)) & ~comm_mask


def test_krull_obstruction_atom_q8(groups, engines):
    q8 = groups["Q8"]
    v = krull_witness(q8, 4, engines["Q8"])
    assert v.holds is False
    atom = v.witness["obstruction_atom"]
    assert is_atom(atom, engines["Q8"])
    assert oracle_is_atom(atom)
    g, h = v.witness["obstruction_pair"]
    gi, hi = q8.index_of(g), q8.index_of(h)
    assert q8.mul[gi][hi] != q8.mul[hi][gi]
    # the canonical exhibit built from the first non-commuting pair (I, J)
    want = Sequence.from_terms(q8, [
        gi, hi, q8.inv[gi], q8.mul[q8.mul[gi][q8.inv[hi]]][q8.inv[gi]]])
    assert atom == want


def test_krull_root_failure_shape_d6(groups, engines):
    """The dihedral quotient-group element a*b^2 squares into the monoid."""
    d6 = groups["D6"]
    engine = engines["D6"]
    s = Sequence.from_literal(d6, "a,b^2")
    assert not engine.is_product_one(s)
    assert engine.is_product_one(s.repeat(2))


def test_cofinality(groups, engines):
    """Appending the inverse of any reachable product makes any sequence
    product-one: exhaustive at small order, randomized above."""
    from prodone.sequences import iter_multisets
    d6, engine6 = groups["D6"], engines["D6"]
    for exps in iter_multisets(6, 6):
        seq = Sequence(d6, exps)
        for g in engine6.pi(seq).elements():
            ext = seq.concat(Sequence.from_terms(d6, [d6.inv[g]]))
            assert engine6.is_product_one(ext)
    rng = random.Random(17)
    for spec in ("Q8", "C6", "D8"):
        group = groups[spec]
        engine = engines[spec]
        for _ in range(60):
            terms = [rng.randrange(group.order) for _ in range(rng.randint(0, 6))]
            seq = Sequence.from_terms(group, terms)
            for g in engine.pi(seq).elements():
                ext = seq.concat(Sequence.from_terms(group, [group.inv[g]]))
                assert engine.is_product_one(ext)


def test_krull_iff_abelian_on_fixtures(groups, engines):
    for spec, group in groups.items():
        verdict = krull_witness(group, 4, engines[spec])
        assert verdict.holds == group.is_abelian, spec
