"""Independent brute-force oracles used to pin expected values.

Everything here works by explicit enumeration of orderings and splits, with
no sharing of code paths with the package's dynamic programming, except
`lexicographic_atoms`: it keeps the package's atom test and orbit reduction
and checks only how the atom scan finds its candidates.
"""

from __future__ import annotations

from itertools import combinations

from prodone.factor import orbit_getters
from prodone.groups import Group, closure_of
from prodone.sequences import PiEngine, Sequence, iter_multisets_exact


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
    from prodone.sequences import iter_multisets
    out = []
    for exps in iter_multisets(group.order, max_len):
        if not sum(exps):
            continue
        seq = Sequence(group, exps)
        if oracle_is_atom(seq):
            out.append(seq)
    return out


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
