"""The class semigroup of the product-one monoid inside the free monoid.

Two sequences are equivalent when no context multiset can tell them apart:
S ~ S' iff for every T, S*T is product-one exactly when S'*T is.  The
quotient of all sequences by this congruence is a finite commutative monoid
C(G), generated by the |G| classes of the one-term sequences.

It is found by one ordered search (Froidure & Pin, "Algorithms for computing
finite semigroups", 1997) over an observation table (Angluin, "Learning
regular sets from queries and counterexamples", 1987).  A sequence S is
keyed by the product sets pi(S*T) over a list of contexts T.  Equivalent
sequences have equal keys (g lies in pi(U) iff U*g^-1 is product-one), so
distinct keys prove two sequences inequivalent and the number of keys found
is a lower bound on |C(G)|.  Central terms are equivalent to their product,
so the search runs over the exponent vectors of the non-central elements
only, popping them in lexicographic order and extending by one term only
the vectors whose key is new; each class z*D then arises from a class D of
the search and an element z of the center.  The contexts start as the empty
one alone; where two members of a class have successors S*g whose keys
differ at a context T, T*g tells them apart and joins the list, until a
round adds none.

A bounded key can merge inequivalent sequences, so every build is validated
once: associativity by Light's test over the one-term classes, all
structural facts (unit group, embedded quotient group, idempotent product
sets, ...), and recognition through the table against direct product-one
tests on every short sequence and on seeded random longer ones.  S is
product-one iff z^-1 lies in pi(S_nc), z the product of its central terms,
so each check depends only on the triple (class, z, S_nc), and the
exhaustive checks run once per distinct triple (``_triples``).  The random
sequences are the ones ``randint`` and ``randrange`` draw from the seed,
drawn as ``getrandbits`` with rejection (``_random_vectors``), and each is
walked slot by slot through precomputed rows of singleton steps, as
``class_of`` walks it, so a failure names the sequence that a per-sequence
sweep names.  A failure raises ``ValidationFailure``.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from math import comb, prod
from typing import NamedTuple, Optional

from .errors import BudgetExceededError, ValidationFailure
from .groups import Group, GroupStructure, analyze, light_failure
from .sequences import (
    PiEngine,
    Sequence,
    iter_multisets,
    pack,
    slot_units,
    unpack,
)

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
        return _walk(self, seq.exps)[0]

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
        return tuple(c for c, row in enumerate(self.op) if self.zero in row)


def build(group: Group, engine: Optional[PiEngine] = None,
          seed: int = 0) -> ClassSemigroup:
    """The class semigroup found by ``discover_folds``, validated once.

    Provenance: ``attempt`` is the index of the last round of the context
    search (from 0), ``class_counts`` the class count of each round,
    ``states`` the vectors keyed in the last round, ``contexts`` the number
    of contexts and ``context_len`` the longest, and the recognition counts.
    """
    engine = engine or PiEngine(group)
    semi = discover_folds(group, engine)
    semi.provenance["seed"] = seed
    try:
        _validate_structure(semi)
        _validate_recognition(semi, engine, seed)
    except ValidationFailure as exc:
        raise ValidationFailure(
            f"class semigroup of {group.spec} explored over "
            f"{semi.provenance['contexts']} contexts failed validation: {exc}"
        ) from None
    return semi


def discover_folds(group: Group,
                   engine: Optional[PiEngine] = None) -> ClassSemigroup:
    """``explore`` in rounds, unvalidated: round 0 keys over the empty
    context alone, each round appends the contexts that ``explore``'s
    consistency check finds, and the first round that finds none is the
    last.  The key columns are kept, so a round keys only new vectors and
    new contexts.  (The folds are the identifications S ~ S'.)"""
    engine = engine or PiEngine(group)
    contexts, keys, counts = [0], {}, []
    while True:
        splitters: set[int] = set()
        try:
            semi = explore(group, contexts, engine, keys, splitters)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"{exc} (class counts of earlier rounds: {counts})") from None
        counts.append(semi.n_classes)
        if not splitters:
            break
        contexts += sorted(splitters)
    semi.provenance.update(attempt=len(counts) - 1, class_counts=counts)
    return semi


def explore(group: Group, contexts: list[int],
            engine: Optional[PiEngine] = None, keys: Optional[dict] = None,
            splitters: Optional[set] = None) -> ClassSemigroup:
    """The table of the classes that ``contexts`` (packed exponent vectors)
    tell apart, unvalidated.

    The first member the search keys in each class is its least one:
    lexicographic order is translation-invariant, so every vector one term
    below a least member is a least member too, and the heap pops vectors
    in increasing order.  ``keys`` caches the product sets of each vector
    over a prefix of ``contexts``; a vector and a context add as packed
    ints, and `PiEngine.pi_mask` rejects a sum with a slot past
    `MAX_MULTIPLICITY`.  If ``splitters`` is given, the
    consistency check adds to it: for a keyed e whose class has least member
    r != e, and for central translates z*e, z'*e' with one key, successors
    by each non-central g must share a key; where they differ at a context
    T, the context T*g tells the two apart.  More than ``CLASS_CAP`` classes, or more
    vectors keyed than the memo cap over the number of contexts, raise
    ``BudgetExceededError``.
    """
    engine = engine or PiEngine(group)
    structure = analyze(group)
    n = group.order
    center = structure.center.members
    nc = [g for g in range(n) if g not in center]
    pi_mask, mul_mask = engine.pi_mask, group.mul_mask
    units = slot_units(n)
    keys = {} if keys is None else keys
    width = len(contexts)
    longest = max(sum(unpack(t, n)) for t in contexts)
    max_keyed = engine.memo_cap // width

    def over_budget(what: str, limit: str) -> BudgetExceededError:
        return BudgetExceededError(
            f"class semigroup of {group.spec}: {what} at context length "
            f"{longest} exceed {limit}")

    seen: dict[int, tuple[int, ...]] = {}  # the vectors keyed this round

    def key_at(z: int, e: int) -> tuple[int, ...]:
        """The key of z*e: a central term z multiplies every product set."""
        key = seen.get(e)
        if key is None:
            if len(seen) >= max_keyed:
                raise over_budget(f"{len(seen) + 1} sequences keyed over {width} "
                                  "contexts", f"the memo cap {engine.memo_cap}")
            key = keys.get(e, ())
            if len(key) < width:
                key = keys[e] = key + tuple(pi_mask(e + t)
                                            for t in contexts[len(key):])
            seen[e] = key
        return tuple(mul_mask(m, z) for m in key) if z else key

    # ordered search over non-central exponent vectors (central slots stay 0)
    least: dict[tuple[int, ...], int] = {}
    heap = [0]
    while heap:
        e = heappop(heap)
        if e in seen:
            continue
        key = key_at(0, e)
        if key in least:
            continue
        least[key] = e
        if len(least) > CLASS_CAP:
            raise over_budget(f"{len(least)} classes", f"the cap {CLASS_CAP}")
        for g in nc:
            heappush(heap, e + units[g])

    def split(z1: int, e1: int, z2: int, e2: int) -> None:
        for g in nc:
            k1, k2 = key_at(z1, e1 + units[g]), key_at(z2, e2 + units[g])
            if k1 != k2:
                t = next(t for t, (m1, m2) in enumerate(zip(k1, k2)) if m1 != m2)
                splitters.add(contexts[t] + units[g])

    if splitters is not None:
        for e, key in list(seen.items()):
            if least[key] != e:
                split(0, e, 0, least[key])

    # the classes z*D, numbered by their first (central product, vector)
    index: dict[tuple[int, ...], int] = {}
    members: list[tuple[int, int]] = []
    for z in sorted(center):
        for e in least.values():
            first = index.setdefault(key_at(z, e), len(members))
            if first == len(members):
                members.append((z, e))
            elif splitters is not None:
                split(z, e, *members[first])
    if len(members) > CLASS_CAP:
        raise over_budget(f"{len(members)} classes", f"the cap {CLASS_CAP}")

    def successor(z: int, e: int, g: int) -> int:
        if g in center:
            return index[key_at(group.mul[z][g], e)]
        return index[key_at(z, e + units[g])]

    step = [[successor(z, e, g) for z, e in members] for g in range(n)]
    packed = [e + units[z] if z else e for z, e in members]
    representatives = tuple(Sequence(group, tuple(unpack(r, n)))
                            for r in packed)

    def walk(c: int, rep: Sequence) -> int:
        """op[c][d]: c walked along the terms of d's representative."""
        for g, e in enumerate(rep.exps):
            for _ in range(e):
                c = step[g][c]
        return c

    op = tuple(tuple(walk(c, rep) for rep in representatives)
               for c in range(len(members)))
    pi_masks = tuple(map(pi_mask, packed))
    return ClassSemigroup(group, structure, tuple(step[g][0] for g in range(n)),
                          op, tuple(bool(m & 1) for m in pi_masks),
                          pi_masks, representatives,
                          {"states": len(seen), "contexts": width,
                           "context_len": longest})


# -- validation ---------------------------------------------------------------


def _validate_structure(semi: ClassSemigroup) -> None:
    group = semi.group
    n_cl = semi.n_classes
    op = tuple(map(tuple, semi.op))
    if tuple(zip(*op)) != op:
        raise ValidationFailure("operation table is not commutative")
    if op[semi.zero] != tuple(range(n_cl)):
        raise ValidationFailure("empty class is not the identity")
    # Light's test over the singletons: the identity passes it, and every
    # class reached from it by singleton steps is a product of passing
    # middles, so the whole table is associative
    reached, seen = [semi.zero], {semi.zero}
    for c in reached:
        new = set(map(op[c].__getitem__, semi.singletons)) - seen
        seen |= new
        reached += new
    if len(reached) != n_cl:
        raise ValidationFailure("singletons do not generate the table")
    if light_failure(op, semi.singletons):
        raise ValidationFailure("operation table is not associative")
    if n_cl < group.order:
        raise ValidationFailure("fewer classes than group elements")
    if len(set(semi.singletons)) != group.order:
        raise ValidationFailure("distinct singletons merged")
    if tuple(semi.accept) != tuple(bool(m & 1) for m in semi.pi_masks):
        raise ValidationFailure("acceptance disagrees with product set")

    _validate_units(semi)
    _validate_idempotents(semi)
    _validate_quotient_copy(semi)
    _validate_coset_epimorphism(semi)
    _validate_zero_class(semi)
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
    # want[i][c2]: the coset of (coset i) * (coset of c2), one mul_mask per
    # pair of cosets
    coset_mul = [[coset_id_of_mask[group.mul_mask(m1, rep2)] for rep2, _ in cosets]
                 for _, m1 in cosets]
    want = [list(map(row.__getitem__, coset_of_class)) for row in coset_mul]
    for c1, row in enumerate(semi.op):
        if list(map(coset_of_class.__getitem__, row)) != want[coset_of_class[c1]]:
            raise ValidationFailure("coset map is not a homomorphism")


def _validate_zero_class(semi: ClassSemigroup) -> None:
    """S lies in the zero class iff S_nc is empty and S is product-one, that
    is z = 1; checked on every sequence up to ``ZERO_CLASS_CHECK_LEN``."""
    zero = semi.zero
    _check_states(semi, ZERO_CLASS_CHECK_LEN, "zero class",
                  lambda cls, z, nc: (cls == zero) == (not z and not nc))


def _validate_commutator_two(semi: ClassSemigroup) -> None:
    group = semi.group
    center = semi.structure.center.members
    bound = len(center) * prod(group.element_order(g)
                               for g in range(group.order) if g not in center)
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


def _walk(semi: ClassSemigroup, exps) -> tuple[int, int, int]:
    """(class, z, S_nc) of an exponent vector: its walk through ``op``, the
    product z of its central terms, and the vector with those slots zeroed,
    packed."""
    op, single, mul = semi.op, semi.singletons, semi.group.mul
    center = semi.structure.center.members
    cls = z = 0
    nc = bytearray(exps)
    for g, e in enumerate(exps):
        for _ in range(e):
            cls = op[cls][single[g]]
        if g in center:
            z, nc[g] = mul[z][semi.group.power(g, e)], 0
    return cls, z, pack(nc)


def _triples(semi: ClassSemigroup, max_len: int):
    """The (class, z, S_nc) triples of all sequences of length <= ``max_len``.

    The slots 0..n-1 are walked in order with ``_walk``'s steps, and a state
    (class, z, S_nc prefix) is kept with the least length that reaches it:
    every way to finish a longer prefix finishes the least one too.  So the
    triples are exactly the sequences' triples, for any table.  At a central
    slot, exponents that reach one (class, z) merge, and an exponent that
    reaches a state held at no greater length ends its loop.  One slot's
    states are held, each packed in an int around the packed S_nc prefix;
    the last slot's are yielded.
    """
    group = semi.group
    n, n_cl = group.order, len(semi.op)
    op, single, mul = semi.op, semi.singletons, group.mul
    center = semi.structure.center.members
    units = slot_units(n)
    base = n * n_cl
    states = {semi.zero: 0}  # S_nc * base + z * n_cl + class -> least length
    for g in range(n):
        # a central g steps z, any other the S_nc prefix
        s, zg, unit = ((single[g], g, 0) if g in center
                       else (single[g], 0, units[g]))
        nxt: dict[int, int] = {}
        while states:  # popping frees each state as its successors are made
            state, used = states.popitem()
            nc, state = divmod(state, base)
            z, cls = divmod(state, n_cl)
            for k in range(used, max_len + 1):
                if k > used:
                    cls, z, nc = op[cls][s], mul[z][zg], nc + unit
                if g == n - 1:
                    yield cls, z, nc
                    continue
                state = nc * base + z * n_cl + cls
                if nxt.get(state, k + 1) <= k:
                    break
                nxt[state] = k
        states = nxt


def _check_states(semi: ClassSemigroup, max_len: int, what: str, ok) -> None:
    """Check ok(class, z, S_nc) on every triple of ``_triples``.  On a
    failure, name the first sequence in ``iter_multisets`` order whose
    triple fails, as a per-sequence sweep would."""
    if all(ok(*triple) for triple in _triples(semi, max_len)):
        return
    for exps in iter_multisets(semi.group.order, max_len):
        if not ok(*_walk(semi, exps)):
            raise ValidationFailure(
                f"{what} mismatch at {Sequence(semi.group, exps).display()}")
    raise ValidationFailure(f"{what} mismatch")


def _random_vectors(seed: int, n: int, lo: int, hi: int, count: int):
    """The exponent vectors of ``count`` seeded random sequences over n
    slots: a length ``rng.randint(lo, hi)``, then one ``rng.randrange(n)``
    per term.  Each is drawn as ``random.Random`` draws it, as
    ``getrandbits`` of the range's bit length, drawn again while out of
    range, so every seed gives exactly the vectors of that loop."""
    bits = random.Random(seed).getrandbits
    width = hi - lo + 1
    k_len, k_term = width.bit_length(), n.bit_length()
    for _ in range(count):
        r = bits(k_len)
        while r >= width:
            r = bits(k_len)
        exps = [0] * n
        for _ in range(lo + r):
            g = bits(k_term)
            while g >= n:
                g = bits(k_term)
            exps[g] += 1
        yield exps


def _check_random(semi: ClassSemigroup, ok, seed: int, lo: int, hi: int) -> None:
    """Check ok(class, z, S_nc) on ``N_RANDOM`` seeded random sequences of
    length ``lo``..``hi`` (``_random_vectors``), in order, naming the first
    that fails.  Each is walked as ``_walk`` walks it, slot by slot, through
    rows ``rows[g][e][c]``, the class c after e steps ``op[c][singletons[g]]``,
    built once up to the largest exponent drawn in slot g; z is read from a
    power table of the central elements."""
    group = semi.group
    n, n_cl = group.order, len(semi.op)
    op, single, mul = semi.op, semi.singletons, group.mul
    center = sorted(semi.structure.center.members)
    # all vectors first (as bytes), so that each slot's rows stop at its
    # largest exponent
    vectors = list(map(bytes, _random_vectors(seed, n, lo, hi, N_RANDOM)))
    tops = list(map(max, zip(*vectors)))
    rows = []  # rows[g][e][c]: the class c after e steps op[c][singletons[g]]
    for g, top in enumerate(tops):
        step, row = [r[single[g]] for r in op], range(n_cl)
        rows.append([row])
        for _ in range(top):
            row = tuple(map(step.__getitem__, row))
            rows[g].append(row)
    powers = {g: [group.power(g, e) for e in range(tops[g] + 1)] for g in center}
    units = slot_units(n)
    slots_nc = [(g, units[g]) for g in range(n) if g not in center]
    for exps in vectors:
        cls = 0
        for row, e in zip(rows, exps):
            cls = row[e][cls]
        z = nc = 0
        for g in center:
            z = mul[z][powers[g][exps[g]]]
        for g, unit in slots_nc:
            nc += exps[g] * unit
        if not ok(cls, z, nc):
            seq = Sequence(group, tuple(exps))
            raise ValidationFailure(f"recognition mismatch at random {seq.display()}")


def _validate_recognition(semi: ClassSemigroup, engine: PiEngine,
                          seed: int) -> None:
    """Compare acceptance through the reported table with direct
    product-one tests: every sequence up to the exhaustive length, then
    N_RANDOM seeded longer ones.  S is product-one iff z^-1 lies in
    pi(S_nc), z the product of its central terms, so the check of S depends
    only on its triple (class, z, S_nc); `PiEngine.in_pi` answers it from
    the coset of S_nc when z^-1 lies outside it, with no product set and no
    memo entry.  The exhaustive part checks each triple of ``_triples``
    once, which covers all comb(l + n, n) sequences of length <= l: the
    count reported.  The random part (``_check_random``) draws the vectors
    that ``randint`` and ``randrange`` would draw from the seed, and walks
    each through the table slot by slot, as ``class_of`` does, so no
    associativity is assumed and a failure names the sequence that a
    per-sequence sweep names first.
    """
    from .factor import small_davenport
    group = semi.group
    n = group.order
    accept, inv = semi.accept, group.inv
    in_pi = engine.in_pi
    l_target = small_davenport(group, engine) + 4
    l_exh = l_target
    while l_exh > 1 and comb(l_exh + n, n) > EXHAUSTIVE_BUDGET:
        l_exh -= 1

    def ok(cls: int, z: int, nc: int) -> bool:
        return accept[cls] == in_pi(nc, inv[z])

    _check_states(semi, l_exh, "recognition", ok)
    l_max = 2 * l_target
    _check_random(semi, ok, seed, l_exh + 1, l_max)
    semi.provenance.update({
        "recognition_exhaustive_len": l_exh,
        "recognition_exhaustive_count": comb(l_exh + n, n),
        "recognition_random_count": N_RANDOM,
        "recognition_random_max_len": l_max,
    })


# -- reported operations ------------------------------------------------------


def are_equivalent(semi: ClassSemigroup, s1: Sequence, s2: Sequence) -> bool:
    return semi.class_of(s1) == semi.class_of(s2)


class IdempotentReport(NamedTuple):
    idempotents: tuple[int, ...]
    rees_pairs: tuple[tuple[int, int], ...]  # (e, f) with e <= f
    smallest: int


def idempotent_structure(semi: ClassSemigroup) -> IdempotentReport:
    idems = semi.idempotents()
    pairs = tuple((e, f) for e in idems for f in idems if semi.rees_leq(e, f))
    return IdempotentReport(idems, pairs, semi.smallest_idempotent())


class UnitQuotientReport(NamedTuple):
    units: tuple[int, ...]
    unit_map: tuple[tuple[int, int], ...]      # (center element, class)
    quotient_classes: tuple[int, ...]
    quotient_map: tuple[tuple[int, int], ...]  # (coset rep, class)


def unit_and_quotient_subgroups(semi: ClassSemigroup) -> UnitQuotientReport:
    _validate_units(semi)
    _validate_quotient_copy(semi)
    _validate_coset_epimorphism(semi)
    unit_map = tuple((z, semi.singletons[z])
                     for z in sorted(semi.structure.center.members))
    copy = quotient_copy(semi)
    return UnitQuotientReport(semi.units(), unit_map, tuple(c for _, _, c in copy),
                              tuple((rep, c) for rep, _, c in copy))


class RegularityReport(NamedTuple):
    is_clifford: bool
    regular: tuple[int, ...]
    non_regular: tuple[int, ...]


def regularity_report(semi: ClassSemigroup) -> RegularityReport:
    """A class c is regular when it lies in a subgroup of the semigroup:
    some idempotent e has c + e = c and c + y = e for some y.  The
    idempotents are found once, so the report takes one row scan per
    class and idempotent."""
    idems = semi.idempotents()
    regular = tuple(c for c, row in enumerate(semi.op)
                    if any(row[e] == c and e in row for e in idems))
    regular_set = set(regular)
    non_regular = tuple(c for c in range(semi.n_classes) if c not in regular_set)
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
