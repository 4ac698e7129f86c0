"""Independent brute-force oracles used to pin expected values.

Everything here works by explicit enumeration of orderings and splits, with
no sharing of code paths with the package's dynamic programming, except
`lexicographic_atoms`: it keeps the package's atom test and orbit reduction
and checks only how the atom scan finds its candidates.  Likewise
`oracle_zero_class` and `oracle_recognition` keep `ClassSemigroup.class_of`
and `PiEngine.is_product_one`, one `Sequence` at a time, and check only how
the class semigroup's checks merge sequences into slot-walk states;
`oracle_associative` tests every triple of the table, where the validator
runs Light's test over the one-term classes; `oracle_semigroup_davenport`
recounts every sub-multiset sum of every frontier candidate; and
`oracle_pi_lattice` keeps the central split of `PiEngine.pi_mask` but fills
the whole sub-multiset lattice, with no stop at the commutator coset; and
`oracle_least_image` keeps `factor.orbit_getters` but applies every
automorphism to the key, with no trie.  `oracle_atom_products`,
`oracle_delta_set` and `oracle_witness_size` keep the package's atoms,
`FactorizationContext.lengths`, `pi_mask` and `divides_in_B`, and check only
the product sweep, the reading of L(B) off its levels and omega's packed
sub-product sums: the first rebuilds every orbit from the getter list, the
second scans every multiset and the third concatenates `Sequence`s.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from operator import add

from prodone import classsemi
from prodone.errors import BudgetExceededError, ValidationFailure
from prodone.factor import divides_in_B, orbit_getters, small_davenport
from prodone.groups import Group, center_of, closure_of
from prodone.invariants import GroupInvariants, SemigroupDavenport
from prodone.sequences import (
    PiEngine,
    Sequence,
    iter_multisets,
    iter_multisets_exact,
)


def oracle_pi(seq: Sequence) -> set[int]:
    """Products over every distinct ordering of the terms (multinomial
    time): a walk over the remaining multiplicities that visits each
    ordering once, multiplying one term onto the product of its prefix."""
    mul = seq.group.mul
    terms = seq.support()
    counts = [seq.exps[g] for g in terms]
    out: set[int] = set()

    def walk(prefix: int, left: int) -> None:
        if not left:
            out.add(prefix)
            return
        row = mul[prefix]
        for i, g in enumerate(terms):
            c = counts[i]
            if c:
                counts[i] = c - 1
                walk(row[g], left - 1)
                counts[i] = c

    walk(0, len(seq))
    return out


def oracle_pi_lattice(group: Group, key: bytes, memo: dict[bytes, int]) -> int:
    """pi(key) by the full-lattice DP: pi(S_nc) * z as in `PiEngine.pi_mask`,
    with P(M) = union over g in supp(M) of P(M - g) * g stored in `memo` for
    every sub-multiset M of S_nc.  `memo` must hold the empty key, which
    maps to 1 << 0; it gains S_nc's whole lattice and the full key."""
    got = memo.get(key)
    if got is not None:
        return got
    mul, mul_mask = group.mul, group.mul_mask
    nc = bytearray(key)
    z = 0
    for g in center_of(group).members:
        for _ in range(nc[g]):
            z = mul[z][g]
        nc[g] = 0
    stack = [nc]
    while stack:
        cur = stack[-1]
        ck = bytes(cur)
        if ck in memo:
            stack.pop()
            continue
        mask = 0
        missing = False
        for g, e in enumerate(cur):
            if e:
                cur[g] = e - 1
                sub = bytes(cur)
                cur[g] = e
                sm = memo.get(sub)
                if sm is None:
                    stack.append(bytearray(sub))
                    missing = True
                else:
                    mask |= mul_mask(sm, g)
        if not missing:
            memo[ck] = mask
            stack.pop()
    got = memo[key] = mul_mask(memo[bytes(nc)], z)
    return got


def oracle_subsequence_products(seq: Sequence) -> set[int]:
    terms = seq.terms()
    out: set[int] = set()
    for r in range(1, len(terms) + 1):
        for combo in set(combinations(terms, r)):
            out |= oracle_pi(Sequence.from_terms(seq.group, combo))
    return out


def oracle_is_product_one(seq: Sequence) -> bool:
    return 0 in oracle_pi(seq)


def oracle_is_product_one_free(seq: Sequence) -> bool:
    return 0 not in oracle_subsequence_products(seq)


def _proper_splits(seq: Sequence):
    terms = seq.terms()
    n = len(terms)
    seen = set()
    for r in range(1, n):
        for idx in combinations(range(n), r):
            left = tuple(sorted(terms[i] for i in idx))
            if left in seen:
                continue
            seen.add(left)
            right = list(terms)
            for i in sorted(idx, reverse=True):
                right.pop(i)
            yield (Sequence.from_terms(seq.group, left),
                   Sequence.from_terms(seq.group, right))


def oracle_is_atom(seq: Sequence) -> bool:
    if len(seq) == 0 or not oracle_is_product_one(seq):
        return False
    for left, right in _proper_splits(seq):
        if oracle_is_product_one(left) and oracle_is_product_one(right):
            return False
    return True


def oracle_atoms(group: Group, max_len: int) -> list[Sequence]:
    out = []
    for exps in iter_multisets(group.order, max_len):
        if not sum(exps):
            continue
        seq = Sequence(group, exps)
        if oracle_is_atom(seq):
            out.append(seq)
    return out


def oracle_least_image(key: bytes, getters) -> tuple[int, ...]:
    """The least (lexicographically) member of the orbit of an exponent
    vector: the key and its image under every getter of
    `factor.orbit_getters`."""
    return min([tuple(key), *[get(key) for get in getters]])


def lexicographic_atoms(group: Group, support=None) -> list[Sequence]:
    """The atoms over the support by the exhaustive scan: every multiset
    over the support of each length up to |<support>|, in lexicographic
    order.  Only the least multiset of each orbit under the automorphisms
    fixing the support set is tested with `PiEngine.is_atom`, and each atom
    found is expanded to its orbit.  By length, then lexicographically."""
    sup = sorted(set(range(group.order) if support is None else support))
    getters = orbit_getters(group, tuple(sup))
    engine = PiEngine(group)
    out: set[tuple[int, ...]] = set()
    for length in range(1, len(closure_of(group, sup)) + 1):
        for packed in iter_multisets_exact(len(sup), length):
            exps = [0] * group.order
            for slot, e in zip(sup, packed):
                exps[slot] = e
            exps = tuple(exps)
            if any(get(exps) < exps for get in getters):
                continue
            if engine.is_atom(bytes(exps)):
                out.update((exps, *(get(exps) for get in getters)))
    return [Sequence(group, exps)
            for exps in sorted(out, key=lambda e: (sum(e), e))]


def oracle_atom_products(inv: GroupInvariants,
                         k: int) -> tuple[list[bytes], int]:
    """The k-atom products Z_k, one Aut(G)-orbit representative each (the
    least exponent tuple of its orbit), and |Z_k|: every canonical product
    of k - 1 atoms times every atom, each raw product's orbit rebuilt from
    `factor.orbit_getters`."""
    group = inv.group
    getters = orbit_getters(group, tuple(range(group.order)))
    atoms = [a.exps for a in inv.atoms.atoms]
    level: list[tuple[int, ...]] = [(0,) * group.order]
    size = 1
    for _ in range(k):
        nxt: dict[tuple[int, ...], None] = {}
        seen: set[tuple[int, ...]] = set()
        size = 0
        for prod in level:
            for a in atoms:
                key = tuple(map(add, prod, a))
                if key in seen:
                    continue
                seen.add(key)
                orbit = {key, *(get(key) for get in getters)}
                rep = min(orbit)
                if rep not in nxt:
                    nxt[rep] = None
                    size += len(orbit)
        level = list(nxt)
    return [bytes(p) for p in level], size


def oracle_delta_set(group: Group, length_bound: int,
                     inv: GroupInvariants) -> tuple[int, ...]:
    """Delta over the product-one B with 0 < |B| <= length_bound: every
    multiset that is the least of its orbit under `factor.orbit_getters`,
    tested with `pi_mask`, its L(B) from `FactorizationContext.lengths`."""
    getters = orbit_getters(group, tuple(range(group.order)))
    delta: set[int] = set()
    for exps in iter_multisets(group.order, length_bound):
        if not sum(exps) or any(get(exps) < exps for get in getters):
            continue
        if inv.engine.pi_mask(bytes(exps)) & 1:
            delta.update(inv.context.lengths(Sequence(group, exps)).delta())
    return tuple(sorted(delta))


def oracle_witness_size(atom: Sequence, factors, engine: PiEngine) -> int:
    """omega's witness check by `divides_in_B` on the full product and on
    each proper non-empty sub-product, concatenated term by term."""
    group = atom.group
    full = Sequence.empty(group)
    for f in factors:
        full = full.concat(f)
    if not divides_in_B(atom, full, engine):
        return 0
    n = len(factors)
    for mask in range(1, (1 << n) - 1):
        sub = Sequence.empty(group)
        for i in range(n):
            if mask >> i & 1:
                sub = sub.concat(factors[i])
        if divides_in_B(atom, sub, engine):
            return 0
    return n


def oracle_lengths(seq: Sequence) -> set[int]:
    """Set of factorization lengths by exhaustive splitting."""
    if len(seq) == 0:
        return {0}
    if not oracle_is_product_one(seq):
        return set()
    memo: dict[tuple[int, ...], set[int]] = {}

    def rec(s: Sequence) -> set[int]:
        key = s.exps
        if key in memo:
            return memo[key]
        if len(s) == 0:
            return {0}
        out: set[int] = set()
        if oracle_is_atom(s):
            out.add(1)
        for left, right in _proper_splits(s):
            if oracle_is_atom(left) and oracle_is_product_one(right):
                out |= {1 + l for l in rec(right)}
        memo[key] = out
        return out

    return rec(seq)


def oracle_associative(op) -> bool:
    """Whether (a*b)*c == a*(b*c) on every triple: the cubic loop that
    Light's test over the one-term classes (`groups.light_failure`)
    replaces in `classsemi._validate_structure`."""
    rng = range(len(op))
    return all(op[op[a][b]][c] == op[a][op[b][c]]
               for a in rng for b in rng for c in rng)


def oracle_zero_class(semi, engine: PiEngine) -> None:
    """The zero-class check one `Sequence` at a time: a sequence lies in
    the zero class iff all its terms are central and it is product-one."""
    group = semi.group
    center = semi.structure.center.members
    for exps in iter_multisets(group.order, classsemi.ZERO_CLASS_CHECK_LEN):
        seq = Sequence(group, exps)
        in_zero = semi.class_of(seq) == semi.zero
        over_center = all(g in center for g in seq.support())
        expected = over_center and engine.is_product_one(seq)
        if in_zero != expected:
            raise ValidationFailure(f"zero class mismatch at {seq.display()}")


def oracle_recognition(semi, engine: PiEngine, seed: int) -> None:
    """The recognition sweep one `Sequence` at a time: acceptance through
    `class_of` against `is_product_one` on every sequence up to the
    exhaustive length, then on `N_RANDOM` seeded longer ones.  Writes the
    same provenance counts as `classsemi._validate_recognition`."""
    group = semi.group
    n = group.order
    l_target = small_davenport(group, engine) + 4
    l_exh = l_target
    while l_exh > 1 and comb(l_exh + n, n) > classsemi.EXHAUSTIVE_BUDGET:
        l_exh -= 1
    checked = 0
    for exps in iter_multisets(n, l_exh):
        seq = Sequence(group, exps)
        direct = engine.is_product_one(seq)
        via_classes = semi.accept[semi.class_of(seq)]
        if direct != via_classes:
            raise ValidationFailure(f"recognition mismatch at {seq.display()}")
        checked += 1
    rng = random.Random(seed)
    l_max = 2 * l_target
    for _ in range(classsemi.N_RANDOM):
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
        "recognition_random_count": classsemi.N_RANDOM,
        "recognition_random_max_len": l_max,
    })


def oracle_semigroup_davenport(op, budget: int) -> tuple[SemigroupDavenport, int]:
    """d(C) by the frontier search over canonical multisets that recounts
    every sub-multiset sum of each candidate, with the number of candidates
    it explored.  The operation table is taken as valid."""
    table = [list(row) for row in op]
    size = len(table)
    ident = next(e for e in range(size)
                 if all(table[e][x] == x == table[x][e] for x in range(size)))
    frontier: list[tuple[tuple[int, ...], int]] = [((), ident)]
    best: tuple[int, ...] = ()
    explored = 0
    while frontier:
        nxt: list[tuple[tuple[int, ...], int]] = []
        for ms, total in frontier:
            start = ms[-1] if ms else 0
            for c in range(start, size):
                cand = ms + (c,)
                cand_total = table[total][c]
                explored += 1
                if explored > budget:
                    raise BudgetExceededError(
                        f"semigroup Davenport frontier exceeded {budget}")
                if _is_irredundant(cand, cand_total, table, ident):
                    nxt.append((cand, cand_total))
        if not nxt:
            break
        best = nxt[0][0]
        frontier = nxt
    d = len(best)
    return SemigroupDavenport(d, d + 1, size, best), explored


def _is_irredundant(ms: tuple[int, ...], total: int,
                    table: list[list[int]], ident: int) -> bool:
    """No proper sub-multiset of ms sums to the total: the full multiset is
    the only one counted at the total."""
    counts: dict[int, int] = {}
    for c in ms:
        counts[c] = counts.get(c, 0) + 1
    sums = {ident: 1}  # value -> number of sub-multisets with that sum
    for c, k in counts.items():
        new: dict[int, int] = {}
        for val, cnt in sums.items():
            cur = val
            new[cur] = new.get(cur, 0) + cnt
            for _ in range(k):
                cur = table[cur][c]
                new[cur] = new.get(cur, 0) + cnt
        sums = new
    return sums.get(total, 0) <= 1
