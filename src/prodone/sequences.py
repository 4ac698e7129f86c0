"""Sequences over a finite group and their product sets.

A sequence is a multiset of group elements stored as an exponent vector.
Inside the package an exponent vector is a `pack`ed int, 16 bits a slot
with slot 0 most significant, so int order is lexicographic order and
slot-wise sums and differences are int `+` and `-`; `pack` and `unpack`
cross that boundary.  The central computation is pi(S): the set of all
products of the terms of S over every ordering.  A central term commutes
with every other, so pi(S) = pi(S_nc) * z, where S_nc is S without its
central terms and z is their product; the identity is central, and on an
abelian group S_nc is empty.  pi(S_nc) comes from dynamic programming over
the sub-multisets of S_nc (P(M) = union over g in supp(M) of P(M - g) * g),
memoized on packed keys.  G/G' is abelian, so every ordering of M
multiplies into one coset c G' of the commutator subgroup; the DP stops at a
node as soon as the children it has used fill c G', and visits only the
sub-multisets it needs.  The same coset settles a membership query: an x
outside c G' is never in pi(M), so `PiEngine.in_pi` answers it from the
terms of M, with no DP and no memo entry.  All product sets are bitmasks
over the group.

A split of a non-empty B is a pair (T, B - T).  Every unordered split has a
part holding the pivot of B, its lowest term, so the split tests walk only
the packed sub-multisets holding it (`sub_multisets` with ``hold_pivot``),
and form B - T by one subtraction, only when T passes its own test.  Most
product-one B that split at all split off a short atom, and the only atoms
of length <= 2 are {1} and the pairs {g, g^-1}.  So the atom and two-atom
tests first try those: {1} divides B exactly when slot 0, the most
significant, is set, and the pairs that divide B come with their
remainders from one guarded subtraction over the engine's list of pairs
(`packed_remainders`); only a B that no short split settles is walked
part by part.
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

    The memo is keyed by the packed exponent vector.  It holds every key
    whose product set was computed and the sub-multisets of its non-central
    part that the DP needed, each with its exact product set; one engine
    per top-level computation keeps memory bounded and results
    reproducible.  The atom memo holds only keys already in the pi memo, so
    `memo_cap` bounds both.  Membership queries read the memo and call
    `pi_mask` only on a miss: `in_pi` for keys in any coset of G' (the
    parts T of the atom and two-atom tests, the recognition checks), which
    first tests x against the key's coset, so that an off-coset query
    stores nothing; `has_one` for keys that lie in G' whenever they can be
    product-one (the remainders of the lengths layer and omega, B - T for
    a product-one part T of a product-one B), which skips that test.  The
    DP's child products pi(M - g) * g come from a (mask, g) product table,
    each entry filled by `Group.mul_mask` at its first use.  The engine
    also keeps the packed pairs {g, g^-1}, g != 1, each once, in slot order
    of g (descending ints), for the short splits of the atom and two-atom
    tests (`split_pairs`).
    """

    def __init__(self, group: Group, memo_cap: int = DEFAULT_MEMO_CAP):
        self.group = group
        self.memo_cap = memo_cap
        n = group.order
        self._memo: dict[int, int] = {0: 1 << 0}
        self._atoms: dict[int, bool] = {}
        self._central = center_of(group).members
        self._units = slot_units(n)
        # the central slots, and the bits past MAX_MULTIPLICITY in a slot
        self._central_slots = pack([255 * (g in self._central) for g in range(n)])
        self._over = ~pack((MAX_MULTIPLICITY,) * n)
        inv, units = group.inv, self._units
        self._pairs = [units[g] + units[inv[g]] for g in range(1, n)
                       if g <= inv[g]]
        self._guard = guard_bits(n)
        # x -> mask of x G', and powers[g][e] = g^e, at first use
        self._coset: list[int] | None = None
        self._powers: list[list[int]] = []
        self._right: list[dict[int, int]] = [{} for _ in range(n)]

    def memo_size(self) -> int:
        return len(self._memo)

    def pi_mask(self, exps) -> int:
        """Bitmask of all ordered products of the multiset `exps` (packed,
        or an exponent vector): the DP over its non-central terms, times
        the product z of its central ones.  A slot past
        `MAX_MULTIPLICITY` raises the ValueError of `pack`."""
        key = exps if type(exps) is int else pack(exps)
        memo = self._memo
        got = memo.get(key)
        if got is not None:
            return got
        if key & self._over:
            raise ValueError("bytes must be in range(0, 256)")
        if not key & self._central_slots:
            return self._saturate(key)
        mul, units = self.group.mul, self._units
        slots = unpack(key, self.group.order)
        nc, z = key, 0
        for g in self._central:
            e = slots[g]
            for _ in range(e):
                z = mul[z][g]
            nc -= e * units[g]
        got = memo.get(nc)
        if got is None:
            got = self._saturate(nc)
        if z:
            got = self._right[z].get(got) or self._times(got, z)
        if len(memo) >= self.memo_cap:
            raise ResourceLimitError(
                f"product-set memo exceeded cap {self.memo_cap}")
        memo[key] = got
        return got

    def in_pi(self, key: int, x: int) -> int:
        """Whether x is in pi(key), as 1 or 0, for a packed key.  A memo hit
        reads the mask.  On a miss, every ordering of key multiplies into
        one coset c G' of the commutator subgroup, c the product of its
        terms in slot order: an x outside c G' gives 0 with no DP and no
        memo entry, and only an x inside it calls `pi_mask`."""
        got = self._memo.get(key)
        if got:
            return got >> x & 1
        if key & self._over:
            raise ValueError("bytes must be in range(0, 256)")
        coset = self._coset or self._commutator_cosets()
        mul, c = self.group.mul, 0
        for row, e in zip(self._powers, unpack(key, self.group.order)):
            if e:
                c = mul[c][row[e]]
        if not coset[c] >> x & 1:
            return 0
        return self.pi_mask(key) >> x & 1

    def _commutator_cosets(self) -> list[int]:
        """Build, at first use, the mask of x G' for each x (returned) and
        the power rows ``powers[g][e]`` = g^e for e in 0..255."""
        group = self.group
        mul, comm = group.mul, commutator_subgroup(group).members
        self._coset = [sum(1 << mul[h][x] for h in comm)
                       for x in range(group.order)]
        powers = []
        for g in range(group.order):
            cycle, x = [0], g
            while x:
                cycle.append(x)
                x = mul[x][g]
            powers.append((cycle * (MAX_MULTIPLICITY // len(cycle) + 1))
                          [:MAX_MULTIPLICITY + 1])
        self._powers = powers
        return self._coset

    def _times(self, mask: int, g: int) -> int:
        """{h*g : h in mask} by `Group.mul_mask`, kept in the engine's
        product table ``_right[g]`` for the next read."""
        got = self._right[g][mask] = self.group.mul_mask(mask, g)
        return got

    def _saturate(self, top: int) -> int:
        """pi of the non-central multiset `top`, not yet in the memo.

        Every ordering of M multiplies into one coset c G' of the
        commutator subgroup, and so does each child product pi(M - g) * g;
        a node takes c G' from its first child product.  A node collects
        pi(M - g) * g over its children, those already in the memo first,
        then descends into the missing ones in slot order, and stops as
        soon as it holds all of c G'; so every stored mask is exact.  Each
        product pi(M - g) * g is read from the engine's (mask, g) product
        table.  An explicit stack of [key, mask, missing slots, c G']
        frames keeps deep keys off the Python call stack."""
        n = self.group.order
        memo, units, right, times = self._memo, self._units, self._right, self._times
        coset = self._coset or self._commutator_cosets()
        stack = [[top, 0, None, -1]]
        while stack:
            frame = stack[-1]
            cur, mask, todo, full = frame
            if todo is None:
                todo = []
                for g, e in enumerate(unpack(cur, n)):
                    if e:
                        sm = memo.get(cur - units[g])
                        if sm is None:
                            todo.append(g)
                        else:
                            p = right[g].get(sm) or times(sm, g)
                            if not mask:
                                full = coset[p.bit_length() - 1]
                            mask |= p
                            if mask == full:
                                break
                todo.reverse()
                frame[2] = todo
            while todo and mask != full:
                g = todo[-1]
                sub = cur - units[g]
                sm = memo.get(sub)
                if sm is None:
                    frame[1], frame[3] = mask, full
                    stack.append([sub, 0, None, -1])
                    break
                p = right[g].get(sm) or times(sm, g)
                if not mask:
                    full = coset[p.bit_length() - 1]
                mask |= p
                todo.pop()
            else:
                if len(memo) >= self.memo_cap:
                    raise ResourceLimitError(
                        f"product-set memo exceeded cap {self.memo_cap}")
                memo[cur] = mask
                stack.pop()
        return memo[top]

    def pi(self, seq: Sequence) -> ProductSet:
        return ProductSet(self.group, self.pi_mask(seq.exps))

    def is_product_one(self, seq: Sequence) -> bool:
        return bool(self.pi_mask(seq.exps) & 1)

    def has_one(self, key: int) -> int:
        """Whether 1_G is in pi(key), as 1 or 0: the memo first, `pi_mask`
        only on a miss.  A non-empty product set is a non-zero mask, so a
        lookup that gives 0 or None is a miss."""
        return (self._memo.get(key) or self.pi_mask(key)) & 1

    def subsequence_mask(self, exps) -> int:
        """Union of pi over all non-empty sub-multisets of `exps` (packed,
        or an exponent vector)."""
        key = exps if type(exps) is int else pack(exps)
        mask = 0
        for sub in sub_multisets(key, self.group.order)[1:]:
            mask |= self.pi_mask(sub)
        return mask

    def subsequence_products(self, seq: Sequence) -> ProductSet:
        return ProductSet(self.group, self.subsequence_mask(seq.exps))

    def is_product_one_free(self, seq: Sequence) -> bool:
        return not self.subsequence_mask(seq.exps) & 1

    def split_pairs(self, key: int) -> list[tuple[int, int]]:
        """(i, key - V) for each pair V = {g, g^-1}, g != 1, that divides
        the packed `key`, V the i-th of the engine's pairs (slot order of
        g).  V is a product-one atom, so (V, key - V) splits key into two
        product-one parts exactly when the remainder is non-empty and
        product-one."""
        return packed_remainders(key, self._pairs, self._guard)

    def is_atom(self, key: int) -> bool:
        """Whether the packed multiset `key` is an atom: non-empty,
        product-one, and no part T of `sub_multisets(key, n, True)` but key
        has T and key - T product-one.  The short splits go first: a key
        holding 1 and more (``key > units[0]``) is not an atom, nor is one
        with a pair {g, g^-1} whose non-empty remainder is product-one; only
        a key that neither settles is walked part by part.  Memoised; since
        `pi_mask(key)` runs first, the atom memo holds only keys of the pi
        memo."""
        got = self._atoms.get(key)
        if got is None:
            got = bool(key and self.pi_mask(key) & 1) and key <= self._units[0]
            if got:
                has_one = self.has_one
                for _, rest in self.split_pairs(key):
                    if rest and has_one(rest):
                        got = False
                        break
                else:
                    in_pi = self.in_pi
                    for sub in sub_multisets(key, self.group.order, True):
                        if in_pi(sub, 0) and sub != key and has_one(key - sub):
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


def pack(exps) -> int:
    """An exponent vector with slots 0..255 as one int of 16 bits per slot,
    slot 0 most significant, so int order is the lexicographic order of the
    vectors and slot-wise sums and differences are int `+` and `-`.  Raises
    the ValueError of `bytes` on a slot outside 0..255."""
    buf = bytearray(2 * len(exps))
    buf[1::2] = bytes(exps)
    return int.from_bytes(buf, "big")


def unpack(x: int, n: int) -> bytes:
    """The exponent vector of n slots that `pack` made x from."""
    return x.to_bytes(2 * n, "big")[1::2]


def slot_units(n: int) -> list[int]:
    """The packed one-term vectors of n slots: units[g] is `pack` of g."""
    return [1 << 16 * (n - 1 - g) for g in range(n)]


def pivot(x: int, n: int) -> int:
    """The pivot of a non-empty packed multiset over n slots: its first
    non-zero slot, i.e. its lowest term."""
    return n - (x.bit_length() + 15 >> 4)


def sub_multisets(x: int, n: int, hold_pivot: bool = False) -> list[int]:
    """The packed sub-multisets of the packed x over n slots, ascending, so
    the empty one comes first and x last, built slot by slot from the last.
    With ``hold_pivot``, only the parts T of the splits (T, x - T) of a
    non-empty x that hold its pivot: these reach every unordered split
    (once, or in both orders when both parts hold the pivot)."""
    slots = unpack(x, n)
    p = pivot(x, n)
    parts, unit = [0], 1
    for g in range(n - 1, p - 1, -1):
        if slots[g]:
            first = unit if hold_pivot and g == p else 0
            parts = [t + v for v in range(first, (slots[g] + 1) * unit, unit)
                     for t in parts]
        unit <<= 16
    return parts


def guard_bits(n: int) -> int:
    """Bit 15 of each of n packed slots, the guards of `packed_remainders`."""
    return int.from_bytes(b"\x80\0" * n, "big")


def packed_remainders(x: int, parts: list[int], guard: int,
                      start: int = 0) -> list[tuple[int, int]]:
    """(i, x - parts[i]) for each i >= start with parts[i] <= x slot-wise,
    for packed x and parts; ``guard`` is `guard_bits` of their slot count.
    With d = (x | guard) - a, no slot borrows from the one above while its
    own guard is set, so a <= x exactly when every guard survives, and
    then x - a is d ^ guard (Lamport, "Multiple byte processing with
    full-word instructions", CACM 18(8), 1975).  It takes a whole list, as
    the lengths layer tests every atom of a pivot against one key, and the
    atom tests every pair {g, g^-1}, and a call per part would cost more
    than the test."""
    top = x | guard
    return [(i, d ^ guard) for i in range(start, len(parts))
            if (d := top - parts[i]) & guard == guard]


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
