from __future__ import annotations

import json

import pytest

from prodone.errors import GroupSpecError, GroupValidationError
from prodone.groups import (
    AUTOMORPHISM_CAP,
    Group,
    abelian_group_name,
    abelian_invariants,
    analyze,
    cyclic_group,
    dihedral_group,
    parse_group,
    quaternion_group,
    subgroup_generated,
)


def test_parse_basic_specs():
    assert parse_group("C1").order == 1
    assert parse_group("C12").order == 12
    assert parse_group("D6").order == 6
    assert parse_group("Q8").order == 8
    assert parse_group("C2xC3").order == 6
    assert parse_group("C2xC2xC2").order == 8


@pytest.mark.parametrize("bad", ["", "C0", "D7", "D0", "Q16", "nope", "Cx"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(GroupSpecError):
        parse_group(bad)


def test_group_from_file(tmp_path):
    c3 = cyclic_group(3)
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({
        "order": 3,
        "table": [list(r) for r in c3.mul],
        "names": list(c3.names),
    }))
    g = parse_group(f"file:{path}")
    assert g.mul == c3.mul
    assert g.names == c3.names


def test_group_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GroupSpecError):
        parse_group(f"file:{path}")
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 1]]}))
    with pytest.raises(GroupValidationError):
        parse_group(f"file:{path}")


@pytest.mark.parametrize("data", [
    {"order": 2, "table": [[0, 1], [1, 0.0]]},
    {"order": 2, "table": [[0, True], [True, 0]]},
    {"order": 2.0, "table": [[0, 1], [1, 0]]},
    {"order": 2, "table": [[0, 1], "10"]},
    {"order": 2, "table": [[0, 1], [1, 0]], "names": ["1", 2]},
    {"order": 2, "table": [[0, 1], [1, 0]], "names": "ab"},
])
def test_group_from_file_rejects_mistyped_entries(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GroupSpecError):
        parse_group(f"file:{path}")


# a Latin square with identity that is not associative
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validation_catches_non_associative_latin_square():
    with pytest.raises(GroupValidationError):
        Group(NON_ASSOCIATIVE_LOOP)


def test_validation_is_exact_above_order_64():
    # the loop times C13: an order-65 Latin square with identity that is
    # not associative
    loop, m = NON_ASSOCIATIVE_LOOP, 13
    table = [[loop[x][y] * m + (i + j) % m for y in range(5) for j in range(m)]
             for x in range(5) for i in range(m)]
    with pytest.raises(GroupValidationError, match="associativity"):
        Group(table)
    assert parse_group("D66").order == 66


def test_quaternion_relations():
    q8 = quaternion_group()
    name = q8.name
    mul = lambda a, b: name(q8.mul[q8.index_of(a)][q8.index_of(b)])
    assert mul("I", "J") == "K"
    assert mul("J", "I") == "-K"
    assert mul("J", "K") == "I"
    assert mul("K", "J") == "-I"
    assert mul("K", "I") == "J"
    assert mul("I", "K") == "-J"
    assert mul("I", "I") == "-E"
    assert name(q8.mul[q8.mul[q8.index_of("I")][q8.index_of("J")]][q8.index_of("K")]) == "-E"


def test_dihedral_relation():
    d6 = dihedral_group(6)
    b, a = d6.index_of("b"), d6.index_of("a")
    # b*a = a^2*b
    assert d6.name(d6.mul[b][a]) == "a2b"
    assert d6.element_order(a) == 3
    assert d6.element_order(b) == 2


def test_analyze_q8():
    q8 = quaternion_group()
    st = analyze(q8)
    assert {q8.name(g) for g in st.center.members} == {"E", "-E"}
    assert {q8.name(g) for g in st.commutator.members} == {"E", "-E"}
    assert abelian_invariants(st.abelianization) == (2, 2)


def test_analyze_d6():
    d6 = dihedral_group(6)
    st = analyze(d6)
    assert {d6.name(g) for g in st.center.members} == {"1"}
    assert {d6.name(g) for g in st.commutator.members} == {"1", "a", "a2"}
    assert abelian_invariants(st.abelianization) == (2,)


def test_analyze_abelian():
    c4 = cyclic_group(4)
    st = analyze(c4)
    assert st.center.members == frozenset(range(4))
    assert st.commutator.members == frozenset({0})
    assert abelian_invariants(st.abelianization) == (4,)


def test_projection_is_homomorphism():
    for spec in ("D6", "D8", "Q8", "C6"):
        g = parse_group(spec)
        st = analyze(g)
        ab = st.abelianization
        for x in range(g.order):
            for y in range(g.order):
                assert st.projection[g.mul[x][y]] == \
                    ab.mul[st.projection[x]][st.projection[y]]


def test_commutator_subgroup_is_normal():
    for spec in ("D6", "D8", "Q8"):
        g = parse_group(spec)
        st = analyze(g)
        for x in range(g.order):
            for c in st.commutator.members:
                assert g.conj(x, c) in st.commutator.members


@pytest.mark.parametrize("n", list(range(1, 25)))
def test_cyclic_groups_are_abelian_with_trivial_commutator(n):
    g = cyclic_group(n)
    st = analyze(g)
    assert st.commutator.members == frozenset({0})
    assert st.center.members == frozenset(range(n))


def test_subgroup_generated_examples():
    q8 = quaternion_group()
    got = subgroup_generated(q8, [q8.index_of("I")])
    assert {q8.name(g) for g in got.members} == {"E", "I", "-E", "-I"}
    assert subgroup_generated(q8, []).members == frozenset({0})
    d6 = dihedral_group(6)
    got = subgroup_generated(d6, [d6.index_of("a2"), d6.index_of("b")])
    assert got.members == frozenset(range(6))


def test_abelian_invariants_and_names():
    assert abelian_invariants(parse_group("C2xC2")) == (2, 2)
    assert abelian_invariants(parse_group("C2xC4")) == (2, 4)
    assert abelian_invariants(parse_group("C2xC3")) == (6,)
    assert abelian_invariants(parse_group("C2xC2xC3")) == (2, 6)
    assert abelian_group_name(parse_group("C1")) == "C1"
    assert abelian_group_name(parse_group("C2xC3")) == "C6"
    with pytest.raises(GroupValidationError):
        abelian_invariants(parse_group("D6"))


def test_direct_product_names_and_order():
    g = parse_group("C2xC3")
    assert g.names[0] == "(1,1)"
    assert g.name(g.mul[g.index_of("(g,1)")][g.index_of("(1,g)")]) == "(g,g)"


def test_inverses_and_orders():
    q8 = quaternion_group()
    assert q8.name(q8.inv[q8.index_of("I")]) == "-I"
    assert q8.element_orders() == (1, 4, 4, 4, 2, 4, 4, 4)
    assert q8.exponent() == 4


def test_mul_mask_matches_elementwise():
    d8 = dihedral_group(8)
    import random
    rng = random.Random(1)
    for _ in range(50):
        members = [g for g in range(8) if rng.random() < 0.5]
        mask = d8.mask_of(members)
        h = rng.randrange(8)
        want = d8.mask_of([d8.mul[g][h] for g in members])
        assert d8.mul_mask(mask, h) == want


@pytest.mark.parametrize("spec", [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2", "D6", "D8", "Q8",
    "D14", "C2xC2xC2xC2"])
def test_byte_tables_match_the_per_bit_definition(spec):
    """Each row entry v of byte b under g is the mask of h*g over the set
    bits i of v with h = 8b + i < n, built bit by bit here."""
    group = parse_group(spec)
    n = group.order
    want = [[[sum({1 << group.mul[8 * b + i][g]
                   for i in range(8) if v >> i & 1 and 8 * b + i < n})
              for v in range(256)]
             for b in range((n + 7) // 8)]
            for g in range(n)]
    assert group._build_byte_tables() == want


@pytest.mark.parametrize("spec,count", [
    ("C1", 1), ("C2", 1), ("C3", 2), ("C4", 2), ("C5", 4), ("C6", 2),
    ("C7", 6), ("C8", 4), ("D6", 6), ("D8", 8), ("Q8", 24), ("D10", 20),
    ("D14", 42),
])
def test_automorphism_counts(spec, count):
    assert len(parse_group(spec).automorphisms()) == count


@pytest.mark.parametrize("spec", ["C6", "C2xC2", "D8", "Q8", "D10", "C2xC4"])
def test_automorphisms_are_bijective_homomorphisms(spec):
    group = parse_group(spec)
    n = group.order
    auts = group.automorphisms()
    assert auts[0] == tuple(range(n))
    assert len(set(auts)) == len(auts)
    for aut in auts:
        assert sorted(aut) == list(range(n))
        for x in range(n):
            for y in range(n):
                assert aut[group.mul[x][y]] == group.mul[aut[x]][aut[y]]


def test_automorphisms_over_the_cap_fall_back_to_identity():
    group = parse_group("C2xC2xC2xC2")   # |Aut| = |GL(4, 2)| = 20160
    assert AUTOMORPHISM_CAP < 20160
    assert group.automorphisms() == (tuple(range(16)),)
