"""Sequences over a finite group and their product sets.

A sequence is a multiset of group elements stored as an exponent vector.
The central computation is pi(S): the set of all products of the terms of S
over every ordering.  A central term commutes with every other, so
pi(S) = pi(S_nc) * z, where S_nc is S without its central terms and z is
their product; the identity is central, and on an abelian group S_nc is
empty.  pi(S_nc) comes from dynamic programming over the sub-multisets of
S_nc (P(M) = union over g in supp(M) of P(M - g) * g), memoized on packed
exponent vectors.  G/G' is abelian, so every ordering of M multiplies into
one coset c G' of the commutator subgroup; the DP stops at a node as soon as
the children it has used fill c G', and visits only the sub-multisets it
needs.  All product sets are bitmasks over the group.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import ResourceLimitError, SequenceError
from .groups import Group, center_of, commutator_subgroup

DEFAULT_MEMO_CAP = 1 << 24
MAX_MULTIPLICITY = 255  # exponent vectors pack into one byte per element


class Sequence:
    """Element of the free abelian monoid over a group: v_g multiplicities.
    Immutable by convention; equal sequences share group and exponents."""

    __slots__ = ("group", "exps")

    def __init__(self, group: Group, exps: tuple[int, ...]):
        if len(exps) != group.order:
            raise SequenceError("exponent vector length does not match group order")
        if min(exps) < 0 or max(exps) > MAX_MULTIPLICITY:
            raise SequenceError(
                f"multiplicities must lie in 0..{MAX_MULTIPLICITY}")
        self.group = group
        self.exps = exps

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

    def __repr__(self) -> str:
        return f"Sequence(group={self.group!r}, exps={self.exps!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Sequence) and self.exps == other.exps
                and (self.group is other.group or self.group == other.group))

    def __hash__(self) -> int:
        # equal sequences have equal exponents; hashing the group would hash
        # its whole table
        return hash(self.exps)

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


class ProductSet:
    """Subset of the group as a membership bitmask; immutable by convention."""

    __slots__ = ("group", "mask")

    def __init__(self, group: Group, mask: int):
        self.group = group
        self.mask = mask

    def __contains__(self, g: int) -> bool:
        return bool(self.mask >> g & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> tuple[int, ...]:
        return self.group.mask_elements(self.mask)

    def names(self) -> tuple[str, ...]:
        return tuple(self.group.name(g) for g in self.elements())

    def __repr__(self) -> str:
        return f"ProductSet(group={self.group!r}, mask={self.mask!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ProductSet)
                and self.mask == other.mask and self.group == other.group)

    def __hash__(self) -> int:
        return hash(self.mask)


class PiEngine:
    """Memoized product-set computations for one group.

    The memo is keyed by the packed exponent vector.  It holds every queried
    key and the sub-multisets of its non-central part that the DP needed,
    each with its exact product set; one engine per top-level computation
    keeps memory bounded and results reproducible.  The atom memo holds only
    keys already in the pi memo, so `memo_cap` bounds both.  The hot loops
    of the atom test, the lengths layer, property P and omega ask
    `has_one`, which reads the memo and calls `pi_mask` only on a miss.
    """

    def __init__(self, group: Group, memo_cap: int = DEFAULT_MEMO_CAP):
        self.group = group
        self.memo_cap = memo_cap
        self._memo: dict[bytes, int] = {bytes(group.order): 1 << 0}
        self._atoms: dict[bytes, bool] = {}
        self._central = center_of(group).members
        self._coset: list[int] | None = None  # c -> mask of c G', at first use

    def memo_size(self) -> int:
        return len(self._memo)

    def pi_mask(self, exps) -> int:
        """Bitmask of all ordered products of the multiset `exps`: the DP
        over its non-central terms, times the product z of its central ones."""
        key = bytes(exps)
        memo = self._memo
        got = memo.get(key)
        if got is not None:
            return got
        mul = self.group.mul
        nc = bytearray(key)
        z = 0
        for g in self._central:
            for _ in range(nc[g]):
                z = mul[z][g]
            nc[g] = 0
        nc_key = bytes(nc)
        got = memo.get(nc_key)
        if got is None:
            got = self._saturate(nc, nc_key)
        if nc_key != key:
            if z:
                got = self.group.mul_mask(got, z)
            self._store(key, got)
        return got

    def _store(self, key: bytes, mask: int) -> None:
        if len(self._memo) >= self.memo_cap:
            raise ResourceLimitError(
                f"product-set memo exceeded cap {self.memo_cap}")
        self._memo[key] = mask

    def _saturate(self, top: bytearray, top_key: bytes) -> int:
        """pi of the non-central multiset `top`, not yet in the memo.

        Every ordering of M multiplies into the coset c G' of the commutator
        subgroup, c the product of M's terms in slot order, and M - g lies
        in c g^-1 G'.  A node collects pi(M - g) * g over its children,
        those already in the memo first, then descends into the missing
        ones in slot order, and stops as soon as it holds all of c G'; so
        every stored mask is exact.  An explicit stack of
        [multiset, key, c, mask, missing slots] frames keeps deep keys off
        the Python call stack."""
        group = self.group
        mul, inv, mul_mask = group.mul, group.inv, group.mul_mask
        memo, coset = self._memo, self._coset
        if coset is None:
            comm = commutator_subgroup(group).mask()
            coset = self._coset = [mul_mask(comm, c) for c in range(group.order)]
        c = 0
        for g, e in enumerate(top):
            for _ in range(e):
                c = mul[c][g]
        stack = [[top, top_key, c, None, None]]
        while stack:
            frame = stack[-1]
            cur, ck, c, mask, todo = frame
            full = coset[c]
            if todo is None:
                mask, todo = 0, []
                for g, e in enumerate(cur):
                    if e:
                        cur[g] = e - 1
                        sm = memo.get(bytes(cur))
                        cur[g] = e
                        if sm is None:
                            todo.append(g)
                        else:
                            mask |= mul_mask(sm, g)
                            if mask == full:
                                break
                todo.reverse()
                frame[4] = todo
            while todo and mask != full:
                g = todo[-1]
                e = cur[g]
                cur[g] = e - 1
                sub = bytes(cur)
                cur[g] = e
                sm = memo.get(sub)
                if sm is None:
                    frame[3] = mask
                    stack.append([bytearray(sub), sub, mul[c][inv[g]], None, None])
                    break
                mask |= mul_mask(sm, g)
                todo.pop()
            else:
                self._store(ck, mask)
                stack.pop()
        return memo[top_key]

    def pi(self, seq: Sequence) -> ProductSet:
        return ProductSet(self.group, self.pi_mask(seq.exps))

    def is_product_one(self, seq: Sequence) -> bool:
        return bool(self.pi_mask(seq.exps) & 1)

    def has_one(self, key: bytes) -> int:
        """Whether 1_G is in pi(key), as 1 or 0: the memo first, `pi_mask`
        only on a miss.  A non-empty product set is a non-zero mask, so a
        lookup that gives 0 or None is a miss."""
        return (self._memo.get(key) or self.pi_mask(key)) & 1

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
            has_one = self.has_one
            got = bool(self.pi_mask(key) & 1)
            if got:
                for sub, comp in pivot_splits(key):
                    if has_one(sub) and any(comp) and has_one(comp):
                        got = False
                        break
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
