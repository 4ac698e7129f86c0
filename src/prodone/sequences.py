"""Sequences over a finite group and their product sets.

A sequence is a multiset of group elements stored as an exponent vector.
The central computation is pi(S): the set of all products of the terms of S
over every ordering, realized by dynamic programming over sub-multisets
(P(M) = union over g in supp(M) of P(M - g) * g) with memoization on packed
exponent vectors.  All product sets are bitmasks over the group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ResourceLimitError, SequenceError
from .groups import Group

DEFAULT_MEMO_CAP = 1 << 24


@dataclass(frozen=True)
class Sequence:
    """Element of the free abelian monoid over a group: v_g multiplicities."""

    group: Group
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exps) != self.group.order:
            raise SequenceError("exponent vector length does not match group order")
        if any(e < 0 for e in self.exps):
            raise SequenceError("negative multiplicity")

    @staticmethod
    def empty(group: Group) -> "Sequence":
        return Sequence(group, (0,) * group.order)

    @staticmethod
    def from_terms(group: Group, terms: Iterable[int]) -> "Sequence":
        exps = [0] * group.order
        for g in terms:
            exps[g] += 1
        return Sequence(group, tuple(exps))

    @staticmethod
    def from_pairs(group: Group, pairs: Iterable[tuple[int, int]]) -> "Sequence":
        exps = [0] * group.order
        for g, k in pairs:
            exps[g] += k
        return Sequence(group, tuple(exps))

    @staticmethod
    def from_literal(group: Group, literal: str) -> "Sequence":
        """Parse `name^k` terms separated by commas, e.g. ``a^2,b^2``."""
        literal = literal.strip()
        if not literal:
            return Sequence.empty(group)
        exps = [0] * group.order
        for term in _split_terms(literal):
            name, _, mult = term.rpartition("^")
            if name and mult.isdigit():
                k = int(mult)
            else:
                name, k = term, 1
            if k < 1:
                raise SequenceError(f"multiplicity in {term!r} must be >= 1")
            exps[group.index_of(name.strip())] += k
        return Sequence(group, tuple(exps))

    def __len__(self) -> int:
        return sum(self.exps)

    @property
    def length(self) -> int:
        return sum(self.exps)

    def support(self) -> tuple[int, ...]:
        return tuple(g for g, e in enumerate(self.exps) if e > 0)

    def support_mask(self) -> int:
        m = 0
        for g, e in enumerate(self.exps):
            if e > 0:
                m |= 1 << g
        return m

    def concat(self, other: "Sequence") -> "Sequence":
        self._same_group(other)
        return Sequence(self.group, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def remove(self, other: "Sequence") -> "Sequence":
        self._same_group(other)
        diff = tuple(a - b for a, b in zip(self.exps, other.exps))
        if any(d < 0 for d in diff):
            raise SequenceError("not a sub-multiset")
        return Sequence(self.group, diff)

    def contains(self, other: "Sequence") -> bool:
        self._same_group(other)
        return all(a >= b for a, b in zip(self.exps, other.exps))

    def repeat(self, k: int) -> "Sequence":
        return Sequence(self.group, tuple(e * k for e in self.exps))

    def inverses(self) -> "Sequence":
        """The sequence of inverses of the terms."""
        exps = [0] * self.group.order
        for g, e in enumerate(self.exps):
            exps[self.group.inv[g]] += e
        return Sequence(self.group, tuple(exps))

    def terms(self) -> tuple[int, ...]:
        out: list[int] = []
        for g, e in enumerate(self.exps):
            out.extend([g] * e)
        return tuple(out)

    def _same_group(self, other: "Sequence") -> None:
        if self.group is not other.group and self.group != other.group:
            raise SequenceError("sequences belong to different groups")

    def __str__(self) -> str:
        parts = []
        for g, e in enumerate(self.exps):
            if e == 1:
                parts.append(self.group.name(g))
            elif e > 1:
                parts.append(f"{self.group.name(g)}^{e}")
        return ",".join(parts)

    def display(self) -> str:
        return str(self) or "(empty)"


def _split_terms(literal: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in literal:
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            cur.append(ch)
    out.append("".join(cur).strip())
    return [t for t in out if t]


@dataclass(frozen=True)
class ProductSet:
    """Subset of the group as a membership bitmask."""

    group: Group
    mask: int

    def __contains__(self, g: int) -> bool:
        return bool(self.mask >> g & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> tuple[int, ...]:
        return self.group.mask_elements(self.mask)

    def names(self) -> tuple[str, ...]:
        return tuple(self.group.name(g) for g in self.elements())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ProductSet)
                and self.mask == other.mask and self.group == other.group)


class PiEngine:
    """Memoized product-set computations for one group.

    The memo is keyed by the packed exponent vector; one engine per top-level
    computation keeps memory bounded and results reproducible.  The atom
    memo holds only keys already in the pi memo, so `memo_cap` bounds both.
    """

    def __init__(self, group: Group, memo_cap: int = DEFAULT_MEMO_CAP):
        self.group = group
        self.memo_cap = memo_cap
        self._memo: dict[bytes, int] = {bytes(group.order): 1 << 0}
        self._atoms: dict[bytes, bool] = {}

    def memo_size(self) -> int:
        return len(self._memo)

    def pi_mask(self, exps) -> int:
        """Bitmask of all ordered products of the multiset `exps`."""
        key = bytes(exps)
        memo = self._memo
        got = memo.get(key)
        if got is not None:
            return got
        mul_mask = self.group.mul_mask
        stack = [bytearray(key)]
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
                if len(memo) >= self.memo_cap:
                    raise ResourceLimitError(
                        f"product-set memo exceeded cap {self.memo_cap}")
                memo[ck] = mask
                stack.pop()
        return memo[key]

    def pi(self, seq: Sequence) -> ProductSet:
        return ProductSet(self.group, self.pi_mask(seq.exps))

    def is_product_one(self, seq: Sequence) -> bool:
        return bool(self.pi_mask(seq.exps) & 1)

    def subsequence_mask(self, exps) -> int:
        """Union of pi over all non-empty sub-multisets."""
        mask = 0
        first = True
        for sub in iter_submultisets(exps):
            if first:
                first = False  # empty sub-multiset is excluded
                continue
            mask |= self.pi_mask(sub)
        return mask

    def subsequence_products(self, seq: Sequence) -> ProductSet:
        return ProductSet(self.group, self.subsequence_mask(seq.exps))

    def is_product_one_free(self, seq: Sequence) -> bool:
        return not self.subsequence_mask(seq.exps) & 1

    def is_atom(self, key: bytes) -> bool:
        """Whether the non-empty multiset `key` is an atom: product-one, and
        no split (T, key - T) from `pivot_splits` has both parts non-empty
        and product-one.  Memoised."""
        got = self._atoms.get(key)
        if got is None:
            pi = self.pi_mask
            got = bool(pi(key) & 1) and not any(
                any(comp) and pi(sub) & 1 and pi(comp) & 1
                for sub, comp in pivot_splits(key))
            self._atoms[key] = got
        return got


def product_set(seq: Sequence, memo_cap: int = DEFAULT_MEMO_CAP) -> ProductSet:
    """pi(S); the empty sequence yields {1_G}."""
    _check_lattice_budget(seq.exps, memo_cap)
    return PiEngine(seq.group, memo_cap).pi(seq)


def subsequence_products(seq: Sequence, memo_cap: int = DEFAULT_MEMO_CAP) -> ProductSet:
    """Pi(S): union of pi(T) over non-empty sub-multisets T of S."""
    _check_lattice_budget(seq.exps, memo_cap)
    return PiEngine(seq.group, memo_cap).subsequence_products(seq)


def is_product_one(seq: Sequence, memo_cap: int = DEFAULT_MEMO_CAP) -> bool:
    return 0 in product_set(seq, memo_cap)


def is_product_one_free(seq: Sequence, memo_cap: int = DEFAULT_MEMO_CAP) -> bool:
    return 0 not in subsequence_products(seq, memo_cap)


def _check_lattice_budget(exps, cap: int) -> None:
    total = 1
    for e in exps:
        total *= e + 1
        if total > cap:
            raise ResourceLimitError(
                f"sequence has more than {cap} sub-multisets")


def iter_submultisets(exps) -> Iterator[bytes]:
    """All sub-multisets of `exps` (as bytes), empty first, ascending."""
    ranges = [range(e + 1) for e in exps]
    for combo in itertools.product(*ranges):
        yield bytes(combo)


def pivot(key: bytes) -> int:
    """The pivot of a non-empty multiset: the index of its first non-zero
    exponent, i.e. its lowest term."""
    return len(key) - len(key.lstrip(b"\0"))


def pivot_splits(key: bytes) -> Iterator[tuple[bytes, bytes]]:
    """(T, key - T) for every sub-multiset T of the non-empty `key` holding
    its pivot, ascending in T, so the full key (with empty complement) comes
    last.

    Every unordered split {T, C} of key has a part holding the pivot, so
    scanning these pairs reaches every split (once, or in both orders when
    both parts hold it).  Both halves come from itertools.product over
    ascending and descending ranges.
    """
    p = pivot(key)
    up = [range(e + 1) for e in key]
    down = [range(e, -1, -1) for e in key]
    up[p] = range(1, key[p] + 1)
    down[p] = range(key[p] - 1, -1, -1)
    return zip(map(bytes, itertools.product(*up)),
               map(bytes, itertools.product(*down)))


def iter_multisets(n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All multisets over n slots with total size <= max_total."""
    for total in range(max_total + 1):
        yield from iter_multisets_exact(n, total)


def iter_multisets_exact(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """All multisets over n slots with exactly the given total size, in
    lexicographic order (the first slot varies slowest).

    Flat successor loop: while the last slot holds something, move one unit
    from it to the slot before; otherwise find the rightmost non-zero slot j
    among the others, add one to slot j - 1 and put the rest of slot j into
    the last slot.
    """
    x = [0] * n
    last = n - 1
    x[last] = total
    while True:
        yield tuple(x)
        tail = x[last]
        if tail and last:
            x[last - 1] += 1
            x[last] = tail - 1
            continue
        j = last - 1
        while j > 0 and not x[j]:
            j -= 1
        if j <= 0:
            return
        x[j - 1] += 1
        x[last] = x[j] - 1
        x[j] = 0
