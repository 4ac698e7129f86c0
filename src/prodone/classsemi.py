"""The class semigroup of the product-one monoid inside the free monoid.

Two sequences are equivalent when no context multiset can tell them apart:
S ~ S' iff for every T, S*T is product-one exactly when S'*T is.  The
quotient of all sequences by this congruence is a finite commutative
semigroup, computed here in three stages:

1. fold discovery: for every group element g find a threshold t and period p
   with g^[t] ~ g^[t+p]; candidates are screened by acceptance signatures
   over a bounded family of contexts.
2. central collapse + folded grid: terms from the center multiply into a
   single center-valued component (central terms are context-equivalent to
   their product); non-central exponents live in the folded range [0, t+p).
   Folding is a congruence of the free monoid provided the fold relations
   hold, so the grid is a finite commutative monoid quotient.
3. partition refinement: starting from the (accept, product-set) partition
   of the grid, split blocks until every one-generator transition maps
   blocks into blocks.  The fixpoint is the syntactic congruence of the
   acceptance set on the grid, i.e. the class semigroup.

The grid lives only inside the build.  What is kept is the Cayley table of
the classes, the class of every one-term sequence and one representative
per class; the class of a sequence is a walk through the table, one step
per term, starting at the class of the empty sequence.

Folds are candidates, not certificates, so every build is validated: all
structural facts (unit group, embedded quotient group, idempotent product
sets, ...) are checked, and recognition through the reported table is
compared against direct product-one tests on an exhaustive short-sequence
sweep plus seeded random longer sequences.  A failed validation escalates
the fold caps and retries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import BudgetExceededError, FoldNotFoundError, ValidationFailure
from .groups import Group, GroupStructure, analyze
from .sequences import PiEngine, Sequence, iter_multisets

SIG_CONTEXT_BUDGET = 20_000
EXHAUSTIVE_BUDGET = 25_000
STATE_CAP = 1 << 21
N_RANDOM = 1000
MAX_RETRIES = 3


@dataclass(frozen=True)
class FoldParams:
    """Per-element exponent folding: e maps to e if e < t+p, else t + (e-t) % p."""

    thresholds: tuple[int, ...]
    periods: tuple[int, ...]

    def fold(self, g: int, e: int) -> int:
        t, p = self.thresholds[g], self.periods[g]
        return e if e < t + p else t + (e - t) % p

    def domain(self, g: int) -> int:
        return self.thresholds[g] + self.periods[g]


def _signature_contexts(group: Group, sig_len: int, exponent_count: int,
                        budget: int = SIG_CONTEXT_BUDGET) -> list[tuple[int, ...]]:
    # keep the whole signature table (elements x exponents x contexts) small
    n = group.order
    per_element = max(500, 3_000_000 // (n * exponent_count))
    budget = min(budget, per_element)
    while sig_len > 1 and comb(sig_len + n, n) > budget:
        sig_len -= 1
    return list(iter_multisets(n, sig_len))


def discover_folds(group: Group, cap: Optional[int] = None,
                   engine: Optional[PiEngine] = None,
                   min_thresholds: Optional[tuple[int, ...]] = None) -> FoldParams:
    """Smallest (t, p) per element whose bounded signatures form a lasso.

    The signature of g^[e] records which contexts (multisets of length up to
    ``cap``, shortened to the context budget) make it product-one.  Equal
    signatures at e = t and e = t+p are necessary for g^[t] ~ g^[t+p] but not
    sufficient; the class semigroup build re-validates the outcome.
    """
    engine = engine or PiEngine(group)
    max_ord = max(group.element_orders())
    cap = cap if cap is not None else max_ord + 2
    if cap < max_ord:
        raise ValueError("context cap below maximal element order")
    contexts = _signature_contexts(group, cap, 2 * cap + 1)
    n = group.order
    thresholds = []
    periods = []
    for g in range(n):
        t_min = min_thresholds[g] if min_thresholds else 0
        sigs: list[int] = []
        for e in range(2 * cap + 1):
            sig = 0
            for i, ctx in enumerate(contexts):
                exps = list(ctx)
                exps[g] += e
                if engine.pi_mask(bytes(exps)) & 1:
                    sig |= 1 << i
            sigs.append(sig)
        found = None
        for t in range(t_min, cap + 1):
            for p in range(1, cap + 1):
                if sigs[t] == sigs[t + p]:
                    found = (t, p)
                    break
            if found:
                break
        if found is None:
            raise FoldNotFoundError(
                f"no exponent lasso for {group.name(g)} within cap {cap}")
        thresholds.append(found[0])
        periods.append(found[1])
    return FoldParams(tuple(thresholds), tuple(periods))


class ClassSemigroup:
    """Finite commutative semigroup of context-equivalence classes, held as
    its Cayley table ``op``.

    Class 0 is the class of the empty sequence (the identity), and
    ``singletons[g]`` is the class of the one-term sequence g.  The
    singletons generate the semigroup, so the class of a sequence is a walk
    through ``op``.  Classes are numbered by the least folded state they
    contain, so numbering is stable across runs.
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
    """Compute the class semigroup, validate it, and retry on failure."""
    engine = engine or PiEngine(group)
    structure = analyze(group)
    max_ord = max(group.element_orders())
    # any sound fold needs t >= 1 and a period divisible by ord(g) for
    # non-central g (their power sequences have singleton product sets and
    # never merge with the empty class), so the grid can never be smaller
    # than this; fail before paying for fold discovery
    min_states = len(structure.center.members)
    for g in range(group.order):
        if g not in structure.center.members:
            min_states *= group.element_order(g) + 1
        if min_states > STATE_CAP:
            raise BudgetExceededError(
                f"class semigroup of {group.spec} needs at least {min_states} "
                f"folded states, over the cap {STATE_CAP}")
    folds = discover_folds(group, engine=engine)
    last_error: Optional[Exception] = None
    for attempt in range(MAX_RETRIES + 1):
        semi = _build_once(group, structure, folds, seed, attempt)
        try:
            _validate_structure(semi)
            _validate_recognition(semi, engine, seed)
            return semi
        except ValidationFailure as exc:
            last_error = exc
            # a failed validation means a fold candidate was too eager:
            # re-discover with longer contexts and strictly larger thresholds
            folds = discover_folds(
                group, cap=max_ord + 2 + (attempt + 1), engine=engine,
                min_thresholds=tuple(t + 1 for t in folds.thresholds))
    raise ValidationFailure(
        f"class semigroup of {group.spec} failed validation after "
        f"{MAX_RETRIES + 1} attempts: {last_error}")


def _build_once(group: Group, structure: GroupStructure, folds: FoldParams,
                seed: int, attempt: int) -> ClassSemigroup:
    """The class semigroup as the syntactic congruence of acceptance on the
    folded grid.  A state is z_idx * grid + sum(digit * stride): the index
    of the central product in ``zc`` and the folded exponent of every
    non-central element of ``nc``."""
    n = group.order
    center = set(structure.center.members)
    zc = sorted(center)
    nc = [g for g in range(n) if g not in center]
    m = [folds.domain(g) for g in nc]
    grid = 1
    for mm in m:
        grid *= mm
    n_states = len(zc) * grid
    if n_states > STATE_CAP:
        raise BudgetExceededError(
            f"{n_states} folded states exceed cap {STATE_CAP}")

    strides = []
    acc = 1
    for mm in reversed(m):
        strides.append(acc)
        acc *= mm
    strides = list(reversed(strides))

    # product sets over the non-central grid, then tensor with the center
    mul_mask = group.mul_mask
    box = [0] * grid
    box[0] = 1
    for idx in range(1, grid):
        mask = 0
        rest = idx
        for pos, (mm, stride) in enumerate(zip(m, strides)):
            d, rest = divmod(rest, stride)
            if d:
                mask |= mul_mask(box[idx - stride], nc[pos])
        box[idx] = mask

    pi_state = [0] * n_states
    accept_state = bytearray(n_states)
    for z_idx, z in enumerate(zc):
        base = z_idx * grid
        for e_idx in range(grid):
            pm = mul_mask(box[e_idx], z)
            pi_state[base + e_idx] = pm
            accept_state[base + e_idx] = pm & 1

    # one-generator transitions
    trans = []
    for h in range(n):
        row = [0] * n_states
        if h in center:
            zmap = [0] * len(zc)
            for z_idx, z in enumerate(zc):
                znew = group.mul[z][h]
                zmap[z_idx] = zc.index(znew)
            for state in range(n_states):
                z_idx, e_idx = divmod(state, grid)
                row[state] = zmap[z_idx] * grid + e_idx
        else:
            pos = nc.index(h)
            stride = strides[pos]
            mm = m[pos]
            t = folds.thresholds[h]
            for state in range(n_states):
                d = (state // stride) % mm
                nd = d + 1 if d + 1 < mm else t
                row[state] = state + (nd - d) * stride
        trans.append(row)

    # partition refinement on (accept, product set), then transition splits
    initial: dict[tuple[int, int], int] = {}
    block = [0] * n_states
    for state in range(n_states):
        key = (accept_state[state], pi_state[state])
        got = initial.get(key)
        if got is None:
            got = len(initial)
            initial[key] = got
        block[state] = got
    n_blocks = len(initial)

    while True:
        sig_ids: dict[tuple, int] = {}
        new_block = [0] * n_states
        for state in range(n_states):
            sig = (block[state],) + tuple(block[row[state]] for row in trans)
            got = sig_ids.get(sig)
            if got is None:
                got = len(sig_ids)
                sig_ids[sig] = got
            new_block[state] = got
        if len(sig_ids) == n_blocks:
            break
        block = new_block
        n_blocks = len(sig_ids)

    # stable numbering: classes ordered by least member state
    first_state: dict[int, int] = {}
    for state in range(n_states):
        first_state.setdefault(block[state], state)
    order = sorted(first_state, key=first_state.get)
    relabel = {old: new for new, old in enumerate(order)}
    block = [relabel[b] for b in block]
    rep_states = [first_state[old] for old in order]

    n_classes = n_blocks
    accept = tuple(bool(accept_state[rep_states[c]]) for c in range(n_classes))
    pi_masks = tuple(pi_state[rep_states[c]] for c in range(n_classes))

    # representatives: the least state of each class, its central component
    # written as one term
    representatives = []
    for state in rep_states:
        z_idx, rest = divmod(state, grid)
        exps = [0] * n
        if z_idx:
            exps[zc[z_idx]] = 1
        for g, stride in zip(nc, strides):
            exps[g], rest = divmod(rest, stride)
        representatives.append(Sequence(group, tuple(exps)))

    # the partition is a congruence, so each one-term transition acts on
    # classes; op[c][d] walks c along the terms of d's representative
    step = [[block[row[state]] for state in rep_states] for row in trans]
    op = []
    for c in range(n_classes):
        row = []
        for rep in representatives:
            cls = c
            for g, e in enumerate(rep.exps):
                for _ in range(e):
                    cls = step[g][cls]
            row.append(cls)
        op.append(tuple(row))

    # blocks must have constant product sets (they start split by them and
    # refinement only splits further); verify and record
    for state in range(n_states):
        c = block[state]
        if pi_state[state] != pi_masks[c] or bool(accept_state[state]) != accept[c]:
            raise ValidationFailure("class with inconsistent product sets")
    provenance = {
        "seed": seed,
        "attempt": attempt,
        "states": n_states,
        "fold_thresholds": list(folds.thresholds),
        "fold_periods": list(folds.periods),
    }
    return ClassSemigroup(group, structure, tuple(step[g][0] for g in range(n)),
                          tuple(op), accept, pi_masks, tuple(representatives),
                          provenance)


# -- validation ---------------------------------------------------------------


def _validate_structure(semi: ClassSemigroup) -> None:
    group = semi.group
    n_cl = semi.n_classes
    op = semi.op
    rng = range(n_cl)
    for i in rng:
        for j in rng:
            if op[i][j] != op[j][i]:
                raise ValidationFailure("operation table is not commutative")
    for i in rng:
        for j in rng:
            oij = op[i][j]
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
    comm_mask = group.mask_of(semi.structure.commutator.members)
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
    """(least member, coset mask) for every coset of the commutator subgroup."""
    group = semi.group
    comm_mask = group.mask_of(semi.structure.commutator.members)
    seen = 0
    cosets = []
    for g in range(group.order):
        if seen >> g & 1:
            continue
        mask = group.mul_mask(comm_mask, g)
        cosets.append((min(group.mask_elements(mask)), mask))
        seen |= mask
    return cosets


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


def _validate_zero_class(semi: ClassSemigroup, max_len: int = 4) -> None:
    group = semi.group
    center = semi.structure.center.members
    engine = PiEngine(group)
    for exps in iter_multisets(group.order, max_len):
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
