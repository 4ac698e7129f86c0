"""The class semigroup of the product-one monoid inside the free monoid.

Two sequences are equivalent when no context multiset can tell them apart:
S ~ S' iff for every T, S*T is product-one exactly when S'*T is.  The
quotient of all sequences by this congruence is a finite commutative monoid
C(G), generated by the |G| classes of the one-term sequences.

It is found by one ordered search (Froidure & Pin, "Algorithms for computing
finite semigroups", 1997).  A sequence S is keyed by the product sets
pi(S*T) over every context multiset T of length at most L.  Equivalent
sequences have equal keys (g lies in pi(U) iff U*g^-1 is product-one), so
distinct keys prove two sequences inequivalent and the number of keys found
is a lower bound on |C(G)|.  Central terms are equivalent to their product,
so the search runs over the exponent vectors of the non-central elements
only, popping them in lexicographic order and extending by one term only
the vectors whose key is new; each class z*D then arises from a class D of
the search and an element z of the center.  L grows from 0 until the class
count at L equals the count at L - 1, as in an observation table (Angluin,
"Learning regular sets from queries and counterexamples", 1987).

A bounded key can merge inequivalent sequences, so every build is validated
once: all structural facts (unit group, embedded quotient group, idempotent
product sets, ...) are checked, and recognition through the reported table
is compared against direct product-one tests on an exhaustive short-sequence
sweep plus seeded random longer sequences.  A failure raises
``ValidationFailure``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb
from operator import add
from typing import Optional

from .errors import BudgetExceededError, ValidationFailure
from .groups import Group, GroupStructure, analyze
from .sequences import PiEngine, Sequence, iter_multisets

CLASS_CAP = 500
EXHAUSTIVE_BUDGET = 25_000
N_RANDOM = 1000
ZERO_CLASS_CHECK_LEN = 4  # longest sequences checked against the zero class


class ClassSemigroup:
    """Finite commutative monoid of context-equivalence classes, held as its
    Cayley table ``op``.

    Class 0 is the class of the empty sequence (the identity), and
    ``singletons[g]`` is the class of the one-term sequence g.  The
    singletons generate the monoid, so the class of a sequence is a walk
    through ``op``.  Classes are numbered by their least member: by the
    index of its central product in the sorted center, then by the
    lexicographic order of its non-central exponents.  That member, with
    its central part written as one term, is the class representative.
    """

    zero = 0

    def __init__(self, group: Group, structure: GroupStructure,
                 singletons: tuple[int, ...], op, accept, pi_masks,
                 representatives: tuple[Sequence, ...], provenance: dict):
        self.group = group
        self.structure = structure
        self.singletons = singletons
        self.op = op
        self.accept = accept
        self.pi_masks = pi_masks
        self.representatives = representatives
        self.provenance = provenance

    @property
    def n_classes(self) -> int:
        return len(self.op)

    def class_of(self, seq: Sequence) -> int:
        if seq.group != self.group:
            raise ValueError("sequence is over a different group")
        op = self.op
        cls = self.zero
        for g, e in enumerate(seq.exps):
            single = self.singletons[g]
            for _ in range(e):
                cls = op[cls][single]
        return cls

    def representative(self, cls: int) -> Sequence:
        return self.representatives[cls]

    def cyclic(self, cls: int) -> tuple[int, ...]:
        """The cyclic subsemigroup generated by a class."""
        seen = []
        cur = cls
        while cur not in seen:
            seen.append(cur)
            cur = self.op[cur][cls]
        return tuple(seen)

    def idempotents(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.n_classes) if self.op[c][c] == c)

    def rees_leq(self, e: int, f: int) -> bool:
        return self.op[e][f] == e

    def smallest_idempotent(self) -> int:
        idems = self.idempotents()
        for e in idems:
            if all(self.rees_leq(e, f) for f in idems):
                return e
        raise ValidationFailure("idempotents have no smallest element")

    def units(self) -> tuple[int, ...]:
        zero = self.zero
        return tuple(c for c in range(self.n_classes)
                     if any(self.op[c][d] == zero for d in range(self.n_classes)))

    def is_regular(self, cls: int) -> bool:
        """Whether the class lies in a subgroup of the semigroup."""
        for e in self.idempotents():
            if self.op[cls][e] != cls:
                continue
            for y in range(self.n_classes):
                if self.op[cls][y] == e:
                    return True
        return False


def build(group: Group, engine: Optional[PiEngine] = None,
          seed: int = 0) -> ClassSemigroup:
    """The class semigroup found by ``discover_folds``, validated once.

    Provenance: ``attempt`` is the final L (rounds start at L = 0),
    ``class_counts`` the class count at each L, ``states`` the number of
    sequences keyed in the final round, plus the recognition counts.
    """
    engine = engine or PiEngine(group)
    semi = discover_folds(group, engine)
    semi.provenance["seed"] = seed
    try:
        _validate_structure(semi, engine)
        _validate_recognition(semi, engine, seed)
    except ValidationFailure as exc:
        raise ValidationFailure(
            f"class semigroup of {group.spec} explored at context length "
            f"{semi.provenance['attempt']} failed validation: {exc}") from None
    return semi


def discover_folds(group: Group,
                   engine: Optional[PiEngine] = None) -> ClassSemigroup:
    """``explore`` at L = 0, 1, ... until the class count at L equals the
    count at L - 1, unvalidated; the counts go to ``class_counts``.  (The
    folds are the identifications S ~ S'; perfbench times this stage.)"""
    engine = engine or PiEngine(group)
    counts: list[int] = []
    while len(counts) < 2 or counts[-1] != counts[-2]:
        try:
            semi = explore(group, len(counts), engine)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"{exc} (counts at shorter context lengths: {counts})") from None
        counts.append(semi.n_classes)
    semi.provenance["class_counts"] = counts
    return semi


def explore(group: Group, max_len: int,
            engine: Optional[PiEngine] = None) -> ClassSemigroup:
    """The table of the classes that contexts of length <= ``max_len`` tell
    apart, unvalidated.

    The first member the search keys in each class is its least one:
    lexicographic order is translation-invariant, so every vector one term
    below a least member is a least member too, and the heap pops vectors
    in increasing order.  More than ``CLASS_CAP`` classes, or more keyed
    sequences than the product-set memo cap over the number of contexts,
    raise ``BudgetExceededError``.
    """
    engine = engine or PiEngine(group)
    structure = analyze(group)
    n = group.order
    center = structure.center.members
    nc = [g for g in range(n) if g not in center]
    contexts = [bytes(t) for t in iter_multisets(n, max_len)]
    pi_mask = engine.pi_mask
    mul_mask = group.mul_mask
    max_keyed = engine.memo_cap // len(contexts)

    def over_budget(what: str, limit: str) -> BudgetExceededError:
        return BudgetExceededError(
            f"class semigroup of {group.spec}: {what} at context length "
            f"{max_len} exceed {limit}")

    # ordered search over non-central exponent vectors (central slots stay 0)
    keys: dict[bytes, tuple[int, ...]] = {}
    least: dict[tuple[int, ...], bytes] = {}
    heap = [bytes(n)]
    while heap:
        e = heappop(heap)
        if e in keys:
            continue
        if len(keys) >= max_keyed:
            raise over_budget(f"{len(keys) + 1} sequences keyed over {len(contexts)} "
                              "contexts", f"the memo cap {engine.memo_cap}")
        key = keys[e] = tuple(pi_mask(bytes(map(add, e, t))) for t in contexts)
        if key in least:
            continue
        least[key] = e
        if len(least) > CLASS_CAP:
            raise over_budget(f"{len(least)} classes", f"the cap {CLASS_CAP}")
        for g in nc:
            f = bytearray(e)
            f[g] += 1
            heappush(heap, bytes(f))

    # the classes z*D, numbered by their first (central product, vector);
    # a central term z multiplies every product set of the key by z
    def key_at(z: int, e: bytes) -> tuple[int, ...]:
        return tuple(mul_mask(m, z) for m in keys[e])

    index: dict[tuple[int, ...], int] = {}
    members: list[tuple[int, bytes]] = []
    for z in sorted(center):
        for e in least.values():
            key = key_at(z, e)
            if key not in index:
                index[key] = len(members)
                members.append((z, e))
    if len(members) > CLASS_CAP:
        raise over_budget(f"{len(members)} classes", f"the cap {CLASS_CAP}")

    def successor(z: int, e: bytes, g: int) -> int:
        if g in center:
            return index[key_at(group.mul[z][g], e)]
        f = bytearray(e)
        f[g] += 1
        return index[key_at(z, bytes(f))]

    step = [[successor(z, e, g) for z, e in members] for g in range(n)]
    representatives = []
    for z, e in members:
        exps = bytearray(e)
        if z:
            exps[z] = 1
        representatives.append(Sequence(group, tuple(exps)))

    # op[c][d] walks c along the terms of d's representative
    op = []
    for c in range(len(members)):
        row = []
        for rep in representatives:
            cls = c
            for g, e in enumerate(rep.exps):
                for _ in range(e):
                    cls = step[g][cls]
            row.append(cls)
        op.append(tuple(row))

    pi_masks = tuple(pi_mask(rep.exps) for rep in representatives)
    return ClassSemigroup(group, structure, tuple(step[g][0] for g in range(n)),
                          tuple(op), tuple(bool(m & 1) for m in pi_masks),
                          pi_masks, tuple(representatives),
                          {"attempt": max_len, "states": len(keys)})


# -- validation ---------------------------------------------------------------


def _validate_structure(semi: ClassSemigroup, engine: PiEngine) -> None:
    group = semi.group
    n_cl = semi.n_classes
    op = semi.op
    rng = range(n_cl)
    for i in rng:
        for j in rng:
            oij = op[i][j]
            if oij != op[j][i]:
                raise ValidationFailure("operation table is not commutative")
            for k in rng:
                if op[oij][k] != op[i][op[j][k]]:
                    raise ValidationFailure("operation table is not associative")
    for c in rng:
        if op[semi.zero][c] != c:
            raise ValidationFailure("empty class is not the identity")
    if n_cl < group.order:
        raise ValidationFailure("fewer classes than group elements")
    if len(set(semi.singletons)) != group.order:
        raise ValidationFailure("distinct singletons merged")
    for c in rng:
        if semi.accept[c] != bool(semi.pi_masks[c] & 1):
            raise ValidationFailure("acceptance disagrees with product set")

    _validate_units(semi)
    _validate_idempotents(semi)
    _validate_quotient_copy(semi)
    _validate_coset_epimorphism(semi)
    _validate_zero_class(semi, engine)
    if len(semi.structure.commutator.members) == 2:
        _validate_commutator_two(semi)


def _validate_units(semi: ClassSemigroup) -> None:
    group = semi.group
    units = semi.units()
    center = sorted(semi.structure.center.members)
    image = {z: semi.singletons[z] for z in center}
    if sorted(image.values()) != sorted(units):
        raise ValidationFailure("units are not the center singletons")
    if len(set(image.values())) != len(center):
        raise ValidationFailure("center does not embed injectively")
    for z1 in center:
        for z2 in center:
            prod = group.mul[z1][z2]
            if semi.op[image[z1]][image[z2]] != image[prod]:
                raise ValidationFailure("center embedding is not a homomorphism")


def _validate_idempotents(semi: ClassSemigroup) -> None:
    group = semi.group
    comm_mask = semi.structure.commutator.mask()
    idems = semi.idempotents()
    smallest = semi.smallest_idempotent()
    if semi.pi_masks[smallest] != comm_mask:
        raise ValidationFailure(
            "smallest idempotent's product set is not the commutator subgroup")
    for e in idems:
        if not semi.accept[e]:
            raise ValidationFailure("non-accepting idempotent")
        mask = semi.pi_masks[e]
        if mask & ~comm_mask:
            raise ValidationFailure("idempotent product set leaves the commutator")
        if not mask & 1:
            raise ValidationFailure("idempotent product set misses the identity")
        for x in group.mask_elements(mask):
            if group.mul_mask(mask, x) != mask:
                raise ValidationFailure("idempotent product set is not a subgroup")


def _quotient_cosets(semi: ClassSemigroup) -> list[tuple[int, int]]:
    """(least member, coset mask) for every coset of the commutator
    subgroup, ordered by least member as `GroupStructure.projection` numbers
    them."""
    masks = [0] * semi.structure.abelianization.order
    for g, coset in enumerate(semi.structure.projection):
        masks[coset] |= 1 << g
    return [(semi.group.mask_elements(mask)[0], mask) for mask in masks]


def quotient_copy(semi: ClassSemigroup) -> list[tuple[int, int, int]]:
    """(coset rep, coset mask, class) of the embedded quotient-group copy."""
    smallest = semi.smallest_idempotent()
    return [(rep, mask, semi.op[semi.singletons[rep]][smallest])
            for rep, mask in _quotient_cosets(semi)]


def _validate_quotient_copy(semi: ClassSemigroup) -> None:
    group = semi.group
    copy = quotient_copy(semi)
    classes = [c for _, _, c in copy]
    if len(set(classes)) != len(copy):
        raise ValidationFailure("quotient copy classes are not distinct")
    by_mask = {mask: c for _, mask, c in copy}
    for rep1, mask1, c1 in copy:
        if semi.pi_masks[c1] != mask1:
            raise ValidationFailure("quotient copy class has wrong product set")
        for rep2, mask2, c2 in copy:
            prod_mask = group.mul_mask(mask1, rep2)
            if semi.op[c1][c2] != by_mask[prod_mask]:
                raise ValidationFailure("quotient copy is not a homomorphic image")
    # absorption: adding any class to the copy stays in the copy
    copy_set = set(classes)
    for c in range(semi.n_classes):
        for c2 in classes:
            if semi.op[c][c2] not in copy_set:
                raise ValidationFailure("quotient copy does not absorb products")


def _validate_coset_epimorphism(semi: ClassSemigroup) -> None:
    group = semi.group
    cosets = _quotient_cosets(semi)
    coset_id_of_mask = {mask: i for i, (_, mask) in enumerate(cosets)}
    coset_of_class = []
    for c in range(semi.n_classes):
        pm = semi.pi_masks[c]
        homes = [i for i, (_, mask) in enumerate(cosets) if not pm & ~mask]
        if len(homes) != 1:
            raise ValidationFailure(
                "class product set is not contained in a single coset")
        coset_of_class.append(homes[0])
    if set(coset_of_class) != set(range(len(cosets))):
        raise ValidationFailure("coset map is not surjective")
    for c1 in range(semi.n_classes):
        for c2 in range(semi.n_classes):
            m1 = cosets[coset_of_class[c1]][1]
            rep2 = cosets[coset_of_class[c2]][0]
            want = coset_id_of_mask[group.mul_mask(m1, rep2)]
            if coset_of_class[semi.op[c1][c2]] != want:
                raise ValidationFailure("coset map is not a homomorphism")


def _validate_zero_class(semi: ClassSemigroup, engine: PiEngine) -> None:
    group = semi.group
    center = semi.structure.center.members
    for exps in iter_multisets(group.order, ZERO_CLASS_CHECK_LEN):
        seq = Sequence(group, exps)
        in_zero = semi.class_of(seq) == semi.zero
        over_center = all(g in center for g in seq.support())
        expected = over_center and engine.is_product_one(seq)
        if in_zero != expected:
            raise ValidationFailure(
                f"zero class mismatch at {seq.display()}")


def _validate_commutator_two(semi: ClassSemigroup) -> None:
    group = semi.group
    center = semi.structure.center.members
    bound = len(center)
    for g in range(group.order):
        if g not in center:
            bound *= group.element_order(g)
    if semi.n_classes > bound:
        raise ValidationFailure("size bound for commutator of order 2 violated")
    for g in range(group.order):
        o = group.element_order(g)
        for k in range(1, o + 1, 2):
            gk = group.power(g, k)
            if gk in center:
                continue
            c1 = semi.class_of(Sequence.from_pairs(group, [(g, k)]))
            c2 = semi.singletons[gk]
            if c1 != c2:
                raise ValidationFailure(
                    "odd power sequence does not match its product singleton")


def _validate_recognition(semi: ClassSemigroup, engine: PiEngine,
                          seed: int) -> None:
    """Compare acceptance through ``class_of``, a walk through the reported
    table, with direct product-one tests: every sequence up to the
    exhaustive length, then N_RANDOM seeded longer ones."""
    from .factor import small_davenport
    group = semi.group
    n = group.order
    l_target = small_davenport(group, engine) + 4
    l_exh = l_target
    while l_exh > 1 and comb(l_exh + n, n) > EXHAUSTIVE_BUDGET:
        l_exh -= 1
    checked = 0
    for exps in iter_multisets(n, l_exh):
        seq = Sequence(group, exps)
        direct = engine.is_product_one(seq)
        via_classes = semi.accept[semi.class_of(seq)]
        if direct != via_classes:
            raise ValidationFailure(
                f"recognition mismatch at {seq.display()}")
        checked += 1
    rng = random.Random(seed)
    l_max = 2 * l_target
    for _ in range(N_RANDOM):
        length = rng.randint(l_exh + 1, l_max)
        exps = [0] * n
        for _ in range(length):
            exps[rng.randrange(n)] += 1
        seq = Sequence(group, tuple(exps))
        direct = engine.is_product_one(seq)
        via_classes = semi.accept[semi.class_of(seq)]
        if direct != via_classes:
            raise ValidationFailure(
                f"recognition mismatch at random {seq.display()}")
    semi.provenance.update({
        "recognition_exhaustive_len": l_exh,
        "recognition_exhaustive_count": checked,
        "recognition_random_count": N_RANDOM,
        "recognition_random_max_len": l_max,
    })


# -- reported operations ------------------------------------------------------


def are_equivalent(semi: ClassSemigroup, s1: Sequence, s2: Sequence) -> bool:
    return semi.class_of(s1) == semi.class_of(s2)


@dataclass(frozen=True)
class IdempotentReport:
    idempotents: tuple[int, ...]
    rees_pairs: tuple[tuple[int, int], ...]  # (e, f) with e <= f
    smallest: int


def idempotent_structure(semi: ClassSemigroup) -> IdempotentReport:
    idems = semi.idempotents()
    pairs = tuple((e, f) for e in idems for f in idems if semi.rees_leq(e, f))
    return IdempotentReport(idems, pairs, semi.smallest_idempotent())


@dataclass(frozen=True)
class UnitQuotientReport:
    units: tuple[int, ...]
    unit_map: tuple[tuple[int, int], ...]      # (center element, class)
    quotient_classes: tuple[int, ...]
    quotient_map: tuple[tuple[int, int], ...]  # (coset rep, class)


def unit_and_quotient_subgroups(semi: ClassSemigroup) -> UnitQuotientReport:
    _validate_units(semi)
    _validate_quotient_copy(semi)
    _validate_coset_epimorphism(semi)
    units = semi.units()
    unit_map = tuple((z, semi.singletons[z])
                     for z in sorted(semi.structure.center.members))
    copy = quotient_copy(semi)
    return UnitQuotientReport(
        units=units,
        unit_map=unit_map,
        quotient_classes=tuple(c for _, _, c in copy),
        quotient_map=tuple((rep, c) for rep, _, c in copy),
    )


@dataclass(frozen=True)
class RegularityReport:
    is_clifford: bool
    regular: tuple[int, ...]
    non_regular: tuple[int, ...]


def regularity_report(semi: ClassSemigroup) -> RegularityReport:
    regular = tuple(c for c in range(semi.n_classes) if semi.is_regular(c))
    non_regular = tuple(c for c in range(semi.n_classes) if c not in set(regular))
    if len(semi.structure.commutator.members) == 2:
        _check_singleton_pi_orders(semi)
        if non_regular:
            raise ValidationFailure(
                "semigroup must be Clifford when the commutator has order 2")
    return RegularityReport(not non_regular, regular, non_regular)


def _check_singleton_pi_orders(semi: ClassSemigroup) -> None:
    group = semi.group
    for c in range(semi.n_classes):
        mask = semi.pi_masks[c]
        if mask.bit_count() != 1:
            continue
        g = mask.bit_length() - 1
        orbit = semi.cyclic(c)
        o = group.element_order(g)
        if len(orbit) != o or semi.op[orbit[-1]][c] != orbit[0]:
            raise ValidationFailure(
                "singleton product set class does not generate a cyclic group "
                "of the right order")
