"""The value types: records are NamedTuples; Sequence, Subgroup, ProductSet
and AtomSet are __slots__ classes with explicit equality, hash and repr."""

from __future__ import annotations

import pytest

from prodone.checks import Verdict
from prodone.errors import GroupValidationError
from prodone.factor import AtomSet, enumerate_atoms
from prodone.groups import Subgroup, closure_of, parse_group
from prodone.sequences import ProductSet, Sequence


def test_sequence_equality_and_hash():
    c4 = parse_group("C4")
    a, b = Sequence(c4, (0, 2, 0, 1)), Sequence(parse_group("C4"), (0, 2, 0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != Sequence(c4, (0, 1, 0, 2))
    assert len({a, b, Sequence(c4, (0, 1, 0, 2))}) == 2
    assert len(a) == a.length == 3
    assert not hasattr(a, "__dict__")
    assert repr(a) == "Sequence(group=Group(C4, order=4), exps=(0, 2, 0, 1))"


def test_sequences_over_different_groups_of_equal_order_differ():
    exps = (0, 1, 1, 0)
    a, b = Sequence(parse_group("C4"), exps), Sequence(parse_group("C2xC2"), exps)
    assert a != b
    assert len({a, b}) == 2


def test_subgroup_rejects_members_that_are_not_the_closure():
    d6 = parse_group("D6")
    gens = (1,)
    members = closure_of(d6, gens)
    sub = Subgroup(d6, members, gens)
    assert sub == Subgroup(d6, members, gens) and hash(sub) == hash(
        Subgroup(d6, members, gens))
    assert sub.order == len(members)
    with pytest.raises(GroupValidationError, match="closure"):
        Subgroup(d6, members | {d6.order - 1}, gens)


def test_product_set_equality_needs_the_same_group():
    c4, k4 = parse_group("C4"), parse_group("C2xC2")
    assert ProductSet(c4, 0b0110) == ProductSet(parse_group("C4"), 0b0110)
    assert ProductSet(c4, 0b0110) != ProductSet(k4, 0b0110)
    assert len(ProductSet(c4, 0b0110)) == 2
    assert 1 in ProductSet(c4, 0b0110) and 0 not in ProductSet(c4, 0b0110)


def test_atom_set_len_and_equality():
    d6 = parse_group("D6")
    atoms = enumerate_atoms(d6)
    assert len(atoms) == len(atoms.atoms) > 0
    assert atoms == enumerate_atoms(parse_group("D6"))
    empty = AtomSet(d6, (), (), 0)
    assert len(empty) == 0 and empty != atoms


def test_verdict_defaults_and_keywords():
    v = Verdict("P", True, "complete")
    assert (v.bound, v.witness) == (None, None)
    assert v.as_dict() == {"property": "P", "holds": True,
                           "reason": "complete", "bound": None}
    w = Verdict(property="P", holds=None, reason="bounded", bound=7)
    assert w.property == "P" and w.holds is None and w.bound == 7
    assert w == Verdict("P", None, "bounded", 7, None)

