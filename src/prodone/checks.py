"""Structural verdicts: two-atom splitting (Property P), seminormality and
Krull/root-closure.

Verdicts are three-valued.  A False verdict always carries a machine-checked
witness; a True verdict carries either a reason valid for the whole class of
groups or an exhausted complete search; anything else is reported as unknown
up to the bound actually searched.

The two-atom splitting scan runs on the splits of the atom scan,
`factor.atom_splits` (see `factor` for the atom test, the split-generated
scan and the orbit reduction): a sequence is a product of two atoms when
some split (T, B - T) from `sequences.pivot_splits` has two atom parts.
Whether a split needs three atoms is invariant under Aut(G), so each split
is tested once per orbit, on the least member the scan found for it, and
not at all when that member is an atom; every split of the orbit takes
that verdict.  The scan yields the splits of the canonical atoms in the
order of a full scan of all multisets, by length and then
lexicographically, so the first counterexample of the full scan is the
least of its orbit, and it is the first atom with a bad split met here too;
the witness is reported from the raw split met first, as the unreduced
exhaustive scan finds it.  The scan stops at the first length without an
atom, or past the length bound; the budget counts the distinct splits it
forms, those of the atoms at the bound included, bar the splits longer than
|G| >= D(G), which are never atoms.

Membership of a sequence S in the quotient group of the product-one monoid
is decided by a coset test: S belongs to it exactly when every product of S
lands in the commutator subgroup (the products of any sequence fill part of
a single commutator coset, and product-one multiples shift it to the trivial
coset; appending the inverse of one product gives the converse).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import ValidationFailure
from .factor import FactorizationContext, atom_splits, is_atom
from .groups import Group, analyze
from .sequences import (
    PiEngine,
    Sequence,
    iter_multisets_exact,
    pivot_splits,
)

PROPERTY_P_BUDGET = 2_000_000


class Verdict(NamedTuple):
    property: str
    holds: Optional[bool]          # None = unknown up to the bound
    reason: str
    bound: Optional[int] = None
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {
            "property": self.property,
            "holds": self.holds,
            "reason": self.reason,
            "bound": self.bound,
        }
        if self.witness is not None:
            out["witness"] = {
                k: (str(v) if isinstance(v, Sequence) else v)
                for k, v in self.witness.items()
            }
        return out


def _two_atom_bound_ok(key: bytes, engine: PiEngine) -> bool:
    """Whether the sequence is an atom or a product of exactly two atoms."""
    if engine.is_atom(key):
        return True
    has_one = engine.has_one
    for sub, comp in pivot_splits(key):
        if (any(comp) and has_one(sub) and has_one(comp)
                and engine.is_atom(sub) and engine.is_atom(comp)):
            return True
    return False


def property_P(group: Group, engine: Optional[PiEngine] = None,
               max_len: Optional[int] = None,
               budget: int = PROPERTY_P_BUDGET) -> Verdict:
    """Split one term of an atom into two factors; the result must factor
    into at most two atoms.  Scans atoms by increasing length and stops at
    the first counterexample.  The splits are those of the atom scan,
    `factor.atom_splits`, up to atoms of length max_len; each is tested on
    the least member of its Aut(G)-orbit, once per orbit, and only when
    that member is not an atom.  Every distinct split the scan forms counts
    against the budget, the ones that are not the least of their
    Aut(G)-orbit included."""
    engine = engine or PiEngine(group)
    n = group.order
    cap = max_len if max_len is not None else n
    orbit_ok: dict[tuple[int, ...], bool] = {}  # by least orbit member
    for exps, g, h1, least, atom in atom_splits(group, tuple(range(n)),
                                                engine, budget, cap):
        if atom:
            continue
        ok = orbit_ok.get(least)
        if ok is None:
            ok = orbit_ok[least] = _two_atom_bound_ok(bytes(least), engine)
        if not ok:
            h2 = group.mul[group.inv[h1]][g]
            split = list(exps)
            split[g] -= 1
            split[h1] += 1
            split[h2] += 1
            split_seq = Sequence(group, tuple(split))
            ctx = FactorizationContext(group, None, engine)
            lengths = ctx.lengths(split_seq).lengths
            return Verdict(
                property="two-atom-splitting",
                holds=False,
                reason="splitting a term yields a sequence that "
                       "needs at least three atoms",
                bound=cap,
                witness={
                    "atom": Sequence(group, exps),
                    "term": group.name(g),
                    "factors": (group.name(h1), group.name(h2)),
                    "split_sequence": split_seq,
                    "split_lengths": list(lengths),
                })
    complete = cap >= n
    return Verdict(
        property="two-atom-splitting",
        holds=True if complete else None,
        reason="every split of every atom factors into at most two atoms"
               if complete else "no counterexample up to the length bound",
        bound=cap)


def quotient_group_member_mask(group: Group) -> int:
    """Mask of the commutator subgroup (coset test for quotient membership)."""
    return analyze(group).commutator.mask()


def seminormality(group: Group, length_bound: int = 6,
                  engine: Optional[PiEngine] = None) -> Verdict:
    """Seminormality of the product-one monoid.

    A counterexample is a sequence in the quotient group with square and cube
    product-one but not the sequence itself.  Abelian groups and groups with
    a two-element commutator subgroup are seminormal outright.
    """
    engine = engine or PiEngine(group)
    if group.is_abelian:
        return Verdict("seminormal", True,
                       "abelian: the monoid embeds as a divisor-closed "
                       "saturated submonoid", length_bound)
    comm = analyze(group).commutator.members
    witness = _seminormality_witness(group, engine, length_bound)
    if witness is not None:
        return Verdict("seminormal", False,
                       "witness lies in the quotient group, has product-one "
                       "square and cube, but is not product-one",
                       length_bound, witness)
    if len(comm) == 2:
        return Verdict("seminormal", True,
                       "commutator subgroup of order 2 forces seminormality",
                       length_bound)
    return Verdict("seminormal", None,
                   "no witness up to the length bound", length_bound)


def _quotient_non_product_one(group: Group, engine: PiEngine,
                              length_bound: int) -> Iterator[Sequence]:
    """The non-empty sequences of length <= length_bound in the quotient
    group that are not product-one: their products all lie in the commutator
    subgroup and miss 1."""
    outside = ~quotient_group_member_mask(group) | 1
    for length in range(1, length_bound + 1):
        for exps in iter_multisets_exact(group.order, length):
            if not engine.pi_mask(bytes(exps)) & outside:
                yield Sequence(group, exps)


def _seminormality_witness(group: Group, engine: PiEngine,
                           length_bound: int) -> Optional[dict]:
    for seq in _quotient_non_product_one(group, engine, length_bound):
        sq = seq.repeat(2)
        cb = seq.repeat(3)
        if engine.is_product_one(sq) and engine.is_product_one(cb):
            return {"sequence": seq, "square": str(sq), "cube": str(cb)}
    return None


def krull_witness(group: Group, length_bound: int = 6,
                  engine: Optional[PiEngine] = None) -> Verdict:
    """Krull property of the product-one monoid (= root closure here).

    Abelian groups embed by a divisor homomorphism; for non-abelian groups
    the verdict is False and carries both a root-closure failure witness and
    a non-commuting atom that obstructs any transfer to the abelian setting.
    """
    engine = engine or PiEngine(group)
    if group.is_abelian:
        return Verdict("krull", True,
                       "abelian: the embedding into the free monoid is a "
                       "divisor homomorphism", length_bound)
    gh = next((g, h) for g in range(group.order) for h in range(group.order)
              if group.mul[g][h] != group.mul[h][g])
    g, h = gh
    obstruction = Sequence.from_terms(group, [
        g, h, group.inv[g],
        group.mul[group.mul[g][group.inv[h]]][group.inv[g]],
    ])
    if not is_atom(obstruction, engine):
        raise ValidationFailure(
            "non-commuting obstruction sequence must be an atom")
    witness = _root_closure_witness(group, engine, length_bound)
    wit_dict = {
        "obstruction_atom": obstruction,
        "obstruction_pair": (group.name(g), group.name(h)),
    }
    if witness is not None:
        wit_dict.update(witness)
    return Verdict("krull", False,
                   "non-abelian: not root-closed; witness power is "
                   "product-one while the witness is not",
                   length_bound, wit_dict)


def _root_closure_witness(group: Group, engine: PiEngine,
                          length_bound: int) -> Optional[dict]:
    exponent = group.exponent()
    for seq in _quotient_non_product_one(group, engine, length_bound):
        for k in range(2, exponent + 1):
            if engine.is_product_one(seq.repeat(k)):
                return {"root_witness": seq, "power": k}
    return None
