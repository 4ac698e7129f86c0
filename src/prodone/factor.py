"""Atoms, Davenport constants, divisibility, and sets of lengths.

An atom is a non-empty product-one sequence that does not split into two
non-empty product-one sub-multisets.  The atom test is `PiEngine.is_atom`,
memoised per engine.  It and every other split test here go through
`sequences.pivot_splits`, which yields only the splits (T, B - T) whose part
T holds the pivot of B (its lowest term).  That loses nothing: every
unordered split of B has a part holding the pivot.

Atoms grow from atoms.  Let S = s_1...s_l (l >= 2) be an atom over a group
H with s_1...s_l = 1, and merge its last two terms into t = s_{l-1}s_l in H.
The result A is product-one, and an atom: if A = UV with U, V non-empty and
product-one, say t in U, then s_{l-1}, s_l in place of t in a product-one
ordering of U make U - t + s_{l-1} + s_l product-one, and S would split.  So
every atom of length l is a split A - t + h + h^{-1}t (t a term of A, h in
H) of an atom A of length l - 1.  The one atom scan, the level loop
`atom_splits`, builds the atoms level by level from the identity and stops
at the first length without an atom: a longer atom would merge down to one
of that length.  The merged term may leave a support set that is not a
subgroup, so atoms over a support grow over the subgroup H it generates and
are kept when their support lies in the set.

The scan is orbit-reduced: the automorphisms of G that fix the support set
fix H and map atoms and splits to atoms and splits, so each level keeps the
least (lexicographically) member of each orbit, and the splits of those reach
every orbit of the next level.  The least member comes from `least_image`,
which walks those automorphisms as a prefix trie (`orbit_trie`) and keeps,
position run by position run, only the branches that reach the running
minimum.  The budget counts the distinct splits formed.  The loop yields
every distinct split it forms, with its least orbit member and that member's
atom verdict: `canonical_atoms` keeps the atoms, which the enumeration
expands to their whole orbits, and `checks.property_P` tests the splits
themselves, one per orbit, since whether a split needs three atoms is
invariant under Aut(G).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import BudgetExceededError, SequenceError, ValidationFailure
from .groups import Group, closure_of, mask_elements
from .sequences import (
    PiEngine,
    Sequence,
    pivot,
    pivot_splits,
)

ATOM_ENUM_BUDGET = 5_000_000  # distinct splits across all lengths


class AtomSet:
    """The atoms over ``support`` and their greatest length; immutable by
    convention."""

    __slots__ = ("group", "support", "atoms", "max_length")

    def __init__(self, group: Group, support: tuple[int, ...],
                 atoms: tuple[Sequence, ...], max_length: int):
        self.group = group
        self.support = support
        self.atoms = atoms
        self.max_length = max_length

    def __repr__(self) -> str:
        return (f"AtomSet(group={self.group!r}, support={self.support!r}, "
                f"atoms={self.atoms!r}, max_length={self.max_length!r})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AtomSet) and self.support == other.support
                and self.max_length == other.max_length
                and self.atoms == other.atoms and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.support, self.atoms))

    def by_length(self, length: int) -> tuple[Sequence, ...]:
        return tuple(a for a in self.atoms if a.length == length)

    def __len__(self) -> int:
        return len(self.atoms)


class DavenportReport(NamedTuple):
    group: Group
    small: int
    large: int
    free_witness: Sequence
    atom_witness: Sequence


class LengthSet(NamedTuple):
    subject: Sequence
    lengths: tuple[int, ...]

    def delta(self) -> tuple[int, ...]:
        ls = self.lengths
        return tuple(ls[i] - ls[i - 1] for i in range(1, len(ls)))


def is_atom(seq: Sequence, engine: Optional[PiEngine] = None) -> bool:
    """Product-one, non-empty, and no proper two-sided product-one split."""
    engine = engine or PiEngine(seq.group)
    return seq.length > 0 and engine.is_atom(bytes(seq.exps))


def orbit_getters(group: Group, sup: tuple[int, ...]) -> list[itemgetter]:
    """One getter per automorphism other than the identity that fixes the
    support set; applied to an exponent vector over G, it returns the tuple
    of an image multiset."""
    return [itemgetter(*p) for p in _fixing_automorphisms(group, sup)
            if p != tuple(range(group.order))]


def _fixing_automorphisms(group: Group,
                          sup: tuple[int, ...]) -> list[tuple[int, ...]]:
    inside = set(sup)
    return sorted({aut for aut in group.automorphisms()
                   if all(aut[g] in inside for g in sup)})


def orbit_trie(group: Group, sup: tuple[int, ...]) -> tuple:
    """The automorphisms of G that fix the support set, as a prefix trie
    over the positions of H = <sup> other than the identity (which every
    automorphism fixes), for `least_image`.

    A node is (run getter, children) and a leaf is (None, image getter).
    The nodes of one depth read the same run of positions: a run ends where
    some node branches, so a chain of single children is one getter.  Under
    a node, every automorphism reads the same terms of a key on its run.  A
    leaf holds the getter of the whole image of one of its automorphisms
    (they agree on H, and on the zero terms outside it)."""
    perms = _fixing_automorphisms(group, sup)
    positions = [g for g in sorted(closure_of(group, sup)) if g]
    if len(perms) == 1 or not positions:
        return ((None, tuple),)
    cuts = [0]
    seen = len({p[positions[0]] for p in perms})
    for depth in range(1, len(positions)):
        prefixes = {tuple(p[q] for q in positions[:depth + 1]) for p in perms}
        if len(prefixes) > seen:
            cuts.append(depth)
            seen = len(prefixes)
    cuts.append(len(positions))

    def nodes(members: list, level: int) -> tuple:
        run = positions[cuts[level]:cuts[level + 1]]
        groups: dict[tuple[int, ...], list] = {}
        for p in members:
            groups.setdefault(tuple(p[q] for q in run), []).append(p)
        if level + 2 == len(cuts):
            return tuple((None, itemgetter(*grp[0])) for grp in groups.values())
        return tuple((itemgetter(*reads), nodes(grp, level + 1))
                     for reads, grp in groups.items())

    return nodes(perms, 0)


def least_image(key: bytes, trie: tuple) -> tuple[int, ...]:
    """The least (lexicographically) member of the orbit of an exponent
    vector over H under the trie of `orbit_trie`: depth by depth, only the
    branches whose run reads the least terms are kept, and the least image
    of the leaves left is the answer."""
    nodes = trie
    while nodes[0][0] is not None:
        if len(nodes) == 1:
            nodes = nodes[0][1]
            continue
        reads = [run(key) for run, _ in nodes]
        low = min(reads)
        if reads.count(low) == 1:
            nodes = nodes[reads.index(low)][1]
        else:
            nodes = [child for (_, children), got in zip(nodes, reads)
                     if got == low for child in children]
    if len(nodes) == 1:
        return nodes[0][1](key)
    return min([image(key) for _, image in nodes])


def _support_indices(group: Group, support) -> tuple[int, ...]:
    if support is None:
        return tuple(range(group.order))
    return tuple(sorted(set(support)))


def _free_frontier(group: Group, support: tuple[int, ...],
                   engine: PiEngine) -> list[list[tuple[bytes, int]]]:
    """Levels of product-one-free multisets over the support.

    Each entry is (exponent vector, union of pi over all sub-multisets).
    Freeness is inherited by sub-multisets, so extending only free multisets
    by elements >= their largest support index enumerates each exactly once.
    """
    n = group.order
    empty = bytes(n)
    levels: list[list[tuple[bytes, int]]] = [[(empty, 1)]]
    # (exps, reach-mask, max index used)
    frontier: list[tuple[bytes, int, int]] = [(empty, 1, 0)]
    while frontier:
        nxt: list[tuple[bytes, int, int]] = []
        for exps, reach, start in frontier:
            for g in support:
                if g < start:
                    continue
                if reach >> group.inv[g] & 1:
                    continue  # some sub-multiset extends to product-one
                ext = bytearray(exps)
                ext[g] += 1
                key = bytes(ext)
                nxt.append((key, engine.subsequence_mask(key) | 1, g))
        if not nxt:
            break
        levels.append([(e, r) for e, r, _ in nxt])
        frontier = nxt
    return levels


def enumerate_atoms(group: Group, support: Optional[Iterable[int]] = None,
                    engine: Optional[PiEngine] = None,
                    budget: int = ATOM_ENUM_BUDGET) -> AtomSet:
    """All atoms over the support set (default: the whole group), by length,
    then lexicographically."""
    engine = engine or PiEngine(group)
    sup = _support_indices(group, support)
    getters = orbit_getters(group, sup)
    atoms = [Sequence(group, image)
             for exps in canonical_atoms(group, sup, engine, budget,
                                         group.order)
             for image in {exps, *(get(exps) for get in getters)}]
    atoms.sort(key=lambda s: (s.length, s.exps))
    max_len = max((a.length for a in atoms), default=0)
    return AtomSet(group, sup, tuple(atoms), max_len)


def canonical_atoms(group: Group, sup: tuple[int, ...], engine: PiEngine,
                    budget: int, max_len: int) -> list[tuple[int, ...]]:
    """The atoms over the support of length <= max_len that are the least of
    their orbit under the automorphisms fixing the support set, as exponent
    tuples over G, by length, then lexicographically: the identity and the
    least members that `atom_splits` finds to be atoms."""
    n = group.order
    found = {(1,) + (0,) * (n - 1)}  # the identity, the one atom of length 1
    for _, _, _, least, atom in atom_splits(group, sup, engine, budget,
                                            max_len - 1):
        if atom:
            found.add(least)
    outside = [g for g in range(n) if g not in sup]
    return sorted((a for a in found if not any(a[g] for g in outside)),
                  key=lambda a: (sum(a), a))


def atom_splits(group: Group, sup: tuple[int, ...], engine: PiEngine,
                budget: int, max_len: int
                ) -> Iterator[tuple[tuple[int, ...], int, int,
                                    tuple[int, ...], bool]]:
    """The level loop of the atom scan: each distinct split
    A - t + h + h^{-1}t of each canonical atom A of length l <= max_len over
    H = <sup>, as (A, t, h, least member of the split's orbit, whether that
    member is an atom).  Level 1 is the identity; level l + 1 holds the
    least members that are atoms, in order.  The atoms go by length, then
    lexicographically, and the splits of one atom by t, then h; a split met
    before in the level is not yielded again.  The scan stops after the
    first level without an atom, or at l = |H| >= D(H), whose splits are
    yielded as non-atoms without a test.  Every other distinct split counts
    against the budget, the ones least of no orbit included."""
    n = group.order
    mul, inv = group.mul, group.inv
    trie = orbit_trie(group, sup)
    span = sorted(closure_of(group, sup))
    top = len(span)
    level = [(1,) + (0,) * (n - 1)]
    candidates = 0
    for length in range(1, min(max_len, top) + 1):
        tested = length < top  # a longer split exceeds |H| >= D(H)
        seen: set[bytes] = set()
        found: dict[tuple[int, ...], bool] = {}
        for atom in level:
            for t, e in enumerate(atom):
                if not e:
                    continue
                for h in span:
                    split = bytearray(atom)
                    split[t] -= 1
                    split[h] += 1
                    split[mul[inv[h]][t]] += 1
                    key = bytes(split)
                    if key in seen:
                        continue
                    seen.add(key)
                    if tested:
                        candidates += 1
                        if candidates > budget:
                            raise BudgetExceededError(
                                f"atom scan exceeded {budget} candidates "
                                f"at length {length + 1}")
                    least = least_image(key, trie)
                    ok = found.get(least)
                    if ok is None:
                        ok = found[least] = (tested
                                             and engine.is_atom(bytes(least)))
                    yield atom, t, h, least, ok
        level = sorted(k for k, ok in found.items() if ok)
        if not level:
            return


def small_davenport(group: Group, engine: Optional[PiEngine] = None) -> int:
    """Maximal length of a product-one-free sequence over the whole group."""
    engine = engine or PiEngine(group)
    levels = _free_frontier(group, tuple(range(group.order)), engine)
    return len(levels) - 1


def davenport(group: Group, engine: Optional[PiEngine] = None,
              atoms: Optional[AtomSet] = None) -> DavenportReport:
    """Small and large Davenport constants with witnesses.

    The small constant comes from the frontier of product-one-free multisets,
    and the returned free witness W of maximal length must satisfy
    Pi(W) = G \\ {1}.  The large one is the maximal length in ``atoms``, the
    atoms over all of G, which are enumerated when not given.
    """
    engine = engine or PiEngine(group)
    everything = tuple(range(group.order))
    if atoms is not None and (atoms.group != group
                              or atoms.support != everything):
        raise ValueError("Davenport constants need the atoms over all of G")
    levels = _free_frontier(group, everything, engine)
    small = len(levels) - 1
    free_exps, free_reach = levels[small][0]
    free_witness = Sequence(group, tuple(free_exps))
    everything_but_one = ((1 << group.order) - 1) & ~1
    if (free_reach & ~1) != everything_but_one:
        raise ValidationFailure(
            f"maximal product-one-free witness {free_witness.display()} over "
            f"{group.spec} does not reach every non-identity element")
    if atoms is None:
        atoms = enumerate_atoms(group, engine=engine)
    large = atoms.max_length
    atom_witness = next(a for a in atoms.atoms if a.length == large)
    if small + 1 > large:
        raise ValidationFailure("small Davenport constant exceeds large - 1")
    return DavenportReport(group, small, large, free_witness, atom_witness)


def divides_in_B(u: Sequence, w: Sequence,
                 engine: Optional[PiEngine] = None) -> bool:
    """Divisibility inside the product-one monoid: u <= w with product-one
    (or empty) complement."""
    engine = engine or PiEngine(u.group)
    if not engine.is_product_one(u):
        raise SequenceError("dividend is not product-one")
    if not engine.is_product_one(w):
        raise SequenceError("divisor target is not product-one")
    if not w.contains(u):
        return False
    rest = w.remove(u)
    return rest.length == 0 or engine.is_product_one(rest)


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
    the lengths layer tests every atom of a pivot against one key and a
    call per atom would cost more than the test."""
    top = x | guard
    return [(i, d ^ guard) for i in range(start, len(parts))
            if (d := top - parts[i]) & guard == guard]


class FactorizationContext:
    """Shared memoization for sets of lengths over one group.

    Pivot rule: the pivot of a non-empty B is its term g of lowest index.
    Every factorization of B has an atom holding g, and such an atom A | B
    has no term below g, so g is also A's own lowest term.  L(B) is
    therefore the union of 1 + L(B - A) over the atoms A | B whose lowest
    term is g and whose complement B - A is product-one (or empty); the
    other atoms never need to be tried.  With an atom list these come from
    one precomputed list per pivot; without one (one-off long sequences
    where full atom enumeration is out of reach) the parts holding g of
    `pivot_splits(B)` are tested for atomicity locally.

    Keys are `pack`ed exponent vectors: the pivot of B is its most
    significant non-zero slot, A | B and B - A come from one guarded
    subtraction (`packed_remainders`), and L(B) is memoised as a bitmask
    (bit l set when l is in L(B)).  Every key in that memo is product-one,
    so the product-one test of B - A reads it before asking the engine's
    `has_one`.
    """

    def __init__(self, group: Group, atoms: Optional[AtomSet] = None,
                 engine: Optional[PiEngine] = None):
        self.group = group
        self.engine = engine or PiEngine(group)
        n = group.order
        self._guard = guard_bits(n)
        # by_pivot[g]: the packed atoms whose lowest term is g, in AtomSet
        # order
        self.by_pivot: Optional[list[list[int]]] = None
        if atoms is not None:
            self.by_pivot = [[] for _ in range(n)]
            for a in atoms.atoms:
                self.by_pivot[pivot(bytes(a.exps))].append(pack(a.exps))
        self._lengths: dict[int, int] = {0: 1}

    def lengths(self, seq: Sequence) -> LengthSet:
        if seq.length and not self.engine.is_product_one(seq):
            raise SequenceError("sequence is not product-one")
        return LengthSet(seq, mask_elements(self.length_mask(pack(seq.exps))))

    def length_mask(self, x: int) -> int:
        """L(B) as a bitmask, for the packed key x of a product-one B."""
        memo = self._lengths
        got = memo.get(x)
        if got is not None:
            return got
        n = self.group.order
        engine = self.engine
        has_one = engine.has_one
        acc = 0
        if self.by_pivot is not None:
            guard = self._guard
            atoms = self.by_pivot[n - 1 - (x.bit_length() - 1 >> 4)]
            for _, rest in packed_remainders(x, atoms, guard):
                sub = memo.get(rest)
                if sub is None:
                    if not has_one(unpack(rest, n)):
                        continue
                    sub = self.length_mask(rest)
                acc |= sub
        else:
            for sub, comp in pivot_splits(unpack(x, n)):
                if (engine.is_atom(sub)
                        and (not any(comp) or has_one(comp))):
                    acc |= self.length_mask(pack(comp))
        acc <<= 1
        memo[x] = acc
        return acc

    def count_factorizations(self, seq: Sequence) -> int:
        """Number of distinct factorizations (multisets of atoms).

        The pivot rule alone would count a factorization once for each of
        its atoms holding the pivot g.  So the atoms holding g are taken in
        list order: count(B, start) counts the factorizations of B whose
        atoms holding g all sit at index >= start in g's list.  Splitting off
        the one of least index, A at idx, leaves count(B - A, idx) while
        B - A still holds g (its pivot is still g), and count(B - A, 0) once
        g is used up (no remaining atom holds g; the new pivot is larger).
        The first atom split off is determined by the factorization, so
        each multiset of atoms is reached on exactly one path.
        """
        if self.by_pivot is None:
            raise ValueError("counting factorizations requires an atom list")
        if seq.length and not self.engine.is_product_one(seq):
            raise SequenceError("sequence is not product-one")
        return self._count(pack(seq.exps), 0, {})

    def _count(self, x: int, start: int,
               memo: dict[tuple[int, int], int]) -> int:
        # the memo is passed, not closed over, so no reference cycle keeps
        # it alive after the count returns
        if not x:
            return 1
        got = memo.get((x, start))
        if got is not None:
            return got
        n = self.group.order
        low = x.bit_length() - 1 >> 4  # slot of the pivot g, from the right
        g_slot = 1 << 16 * low
        guard = self._guard
        lengths = self._lengths
        has_one = self.engine.has_one
        atoms = self.by_pivot[n - 1 - low]
        total = 0
        for idx, rest in packed_remainders(x, atoms, guard, start):
            if rest not in lengths and not has_one(unpack(rest, n)):
                continue
            # rest >= g_slot: B - A still holds g
            total += self._count(rest, idx if rest >= g_slot else 0, memo)
        memo[(x, start)] = total
        return total


def factorization_lengths(seq: Sequence, atoms: Optional[AtomSet] = None,
                          engine: Optional[PiEngine] = None) -> LengthSet:
    """L(B): all factorization lengths of a product-one sequence."""
    return FactorizationContext(seq.group, atoms, engine).lengths(seq)
