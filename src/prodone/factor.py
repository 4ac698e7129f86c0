"""Atoms, Davenport constants, divisibility, and sets of lengths.

An atom is a non-empty product-one sequence that does not split into two
non-empty product-one sub-multisets.  The atom test is `PiEngine.is_atom`,
memoised per engine.  It first tries the splits that take off a short atom,
{1} or a pair {g, g^-1}, the only atoms of length <= 2.  Past those, it and
every other split test here walk the packed parts T of the splits
(T, B - T) that hold the pivot of B (its lowest term),
`sequences.sub_multisets(B, n, True)`.  That loses nothing: every unordered
split of B has a part holding the pivot.

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
every orbit of the next level.  Each atom of a level carries its orbit as
packed images, one per automorphism, and the index of itself among them.
If sigma maps R to A, it maps the split R - t' + h' + h'^{-1}t' to the
split of A at (sigma t', sigma h'), so a split's images are its atom's
images plus one fixed packed difference per automorphism, and its least
member is their minimum.  The budget counts the distinct splits formed.
The loop yields every distinct split it forms, with its least orbit member,
that member's atom verdict and the split's images: `canonical_atoms` keeps
the atoms with their orbits, which the enumeration expands, and
`checks.property_P` tests the splits themselves, one per orbit, since
whether a split needs three atoms is invariant under Aut(G).
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import BudgetExceededError, SequenceError, ValidationFailure
from .groups import Group, closure_of, mask_elements
from .sequences import (
    PiEngine,
    Sequence,
    guard_bits,
    pack,
    packed_remainders,
    pivot,
    slot_units,
    sub_multisets,
    unpack,
)

ATOM_ENUM_BUDGET = 5_000_000  # distinct splits across all lengths


class AtomSet:
    """The atoms over ``support`` and their greatest length; immutable by
    convention.  ``orbits[i]`` numbers the orbit of ``atoms[i]`` under the
    automorphisms of the group that fix the support set, in the order of
    the orbits' least members."""

    __slots__ = ("group", "support", "atoms", "max_length", "orbits")

    def __init__(self, group: Group, support: tuple[int, ...],
                 atoms: tuple[Sequence, ...], max_length: int,
                 orbits: tuple[int, ...]):
        self.group = group
        self.support = support
        self.atoms = atoms
        self.max_length = max_length
        self.orbits = orbits

    def __repr__(self) -> str:
        return (f"AtomSet(group={self.group!r}, support={self.support!r}, "
                f"atoms={self.atoms!r}, max_length={self.max_length!r}, "
                f"orbits={self.orbits!r})")

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
    return seq.length > 0 and engine.is_atom(pack(seq.exps))


def _fixing_automorphisms(group: Group,
                          sup: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The automorphisms of G that map the support set onto itself,
    sorted, so the identity comes first."""
    inside = set(sup)
    return sorted({aut for aut in group.automorphisms()
                   if all(aut[g] in inside for g in sup)})


def _support_indices(group: Group, support) -> tuple[int, ...]:
    if support is None:
        return tuple(range(group.order))
    return tuple(sorted(set(support)))


def _free_frontier(group: Group, support: tuple[int, ...],
                   engine: PiEngine) -> list[list[tuple[int, int]]]:
    """Levels of product-one-free multisets over the support.

    Each entry is (packed exponent vector, union of pi over all
    sub-multisets).  Freeness is inherited by sub-multisets, so extending
    only free multisets by elements >= their largest support index
    enumerates each exactly once.
    """
    units = slot_units(group.order)
    levels: list[list[tuple[int, int]]] = [[(0, 1)]]
    # (exps, reach-mask, max index used)
    frontier: list[tuple[int, int, int]] = [(0, 1, 0)]
    while frontier:
        nxt: list[tuple[int, int, int]] = []
        for exps, reach, start in frontier:
            for g in support:
                if g < start:
                    continue
                if reach >> group.inv[g] & 1:
                    continue  # some sub-multiset extends to product-one
                key = exps + units[g]
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
    then lexicographically, with the number of each one's orbit."""
    engine = engine or PiEngine(group)
    n = group.order
    sup = _support_indices(group, support)
    rows = sorted((length, x, i) for i, (length, _, orbit) in enumerate(
        canonical_atoms(group, sup, engine, budget, n)) for x in orbit)
    atoms = tuple(Sequence(group, tuple(unpack(x, n))) for _, x, _ in rows)
    return AtomSet(group, sup, atoms, rows[-1][0] if rows else 0,
                   tuple(i for _, _, i in rows))


def canonical_atoms(group: Group, sup: tuple[int, ...], engine: PiEngine,
                    budget: int, max_len: int
                    ) -> list[tuple[int, int, set[int]]]:
    """The atoms over the support of length <= max_len that are the least of
    their orbit under the automorphisms fixing the support set, as
    (length, packed atom, packed orbit), by length, then lexicographically:
    the identity and the least members that `atom_splits` finds to be
    atoms."""
    n = group.order
    one = slot_units(n)[0]
    found = {one: [one]}  # the identity, the one atom of length 1
    for _, _, _, least, atom, images in atom_splits(group, sup, engine, budget,
                                                    max_len - 1):
        if atom:
            found[least] = images
    outside = pack([g not in sup for g in range(n)]) * 255
    return sorted((sum(unpack(a, n)), a, set(images))
                  for a, images in found.items() if not a & outside)


def atom_splits(group: Group, sup: tuple[int, ...], engine: PiEngine,
                budget: int, max_len: int
                ) -> Iterator[tuple[int, int, int, int, bool, list[int]]]:
    """The level loop of the atom scan: each distinct split
    A - t + h + h^{-1}t of each canonical atom A of length l <= max_len over
    H = <sup>, as (A, t, h, least member of the split's orbit, whether that
    member is an atom, the split's images), A, the member and the images
    packed.  Level 1 is the identity; level l + 1 holds the least members
    that are atoms, in order.  The atoms go by length, then
    lexicographically, and the splits of one atom by t, then h; a split met
    before in the level is not yielded again.  The scan stops after the
    first level without an atom, or at l = |H| >= D(H), whose splits are
    yielded as non-atoms without a test.  Every other distinct split counts
    against the budget, the ones least of no orbit included.

    The images are taken under the automorphisms fixing the support set,
    identity first.  An atom A of a level carries images p_m(R) of some R
    and the index k with A = p_k(R).  The split of A at (t, h) is p_k of
    the split of R at (t', h') = (p_k^-1 t, p_k^-1 h), so its images are
    A's images plus delta[t'][h'], the packed p_m(h' + h'^-1 t' - t') for
    each m, and it sits at index k among them."""
    n = group.order
    mul, inv = group.mul, group.inv
    perms = _fixing_automorphisms(group, sup)
    inverses = [sorted(range(n), key=p.__getitem__) for p in perms]
    span = sorted(closure_of(group, sup))
    units = slot_units(n)
    # step[t][h]: the packed change h + h^-1 t - t; delta[t][h] lists it
    # under each automorphism, sharing the n^2 ints of step
    step = [[units[h] + units[mul[inv[h]][t]] - units[t] for h in range(n)]
            for t in range(n)]
    delta = [[[step[p[t]][p[h]] for p in perms] for h in range(n)]
             for t in range(n)]
    top = len(span)
    level = [(units[0], [units[0]] * len(perms), 0)]
    candidates = 0
    for length in range(1, min(max_len, top) + 1):
        tested = length < top  # a longer split exceeds |H| >= D(H)
        seen: set[int] = set()
        found: dict[int, bool] = {}
        kept: dict[int, list[int]] = {}  # the images of the atoms found
        while level:  # popping frees each atom's images once it is split
            atom, images, k = level.pop()
            back = inverses[k]
            for t, e in enumerate(unpack(atom, n)):
                if not e:
                    continue
                row, moved = step[t], delta[back[t]]
                for h in span:
                    key = atom + row[h]
                    if key in seen:
                        continue
                    seen.add(key)
                    if tested:
                        candidates += 1
                        if candidates > budget:
                            raise BudgetExceededError(
                                f"atom scan exceeded {budget} candidates "
                                f"at length {length + 1}")
                    split = list(map(add, images, moved[back[h]]))
                    least = min(split)
                    ok = found.get(least)
                    if ok is None:
                        ok = found[least] = tested and engine.is_atom(least)
                        if ok:
                            kept[least] = split
                    yield atom, t, h, least, ok, split
        level = [(least, kept[least], kept[least].index(least))
                 for least in sorted(kept, reverse=True)]
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
    free_witness = Sequence(group, tuple(unpack(free_exps, group.order)))
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
    `sub_multisets` are tested for atomicity locally.

    Keys are `pack`ed exponent vectors, as in the engine: the pivot of B is
    its most significant non-zero slot, A | B and B - A come from one
    guarded subtraction (`packed_remainders`), and L(B) is memoised as a
    bitmask (bit l set when l is in L(B)).  Every key in that memo is
    product-one, so the product-one test of B - A reads it before asking
    the engine's `has_one`.
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
                x = pack(a.exps)
                self.by_pivot[pivot(x, n)].append(x)
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
            atoms = self.by_pivot[pivot(x, n)]
            for _, rest in packed_remainders(x, atoms, guard):
                sub = memo.get(rest)
                if sub is None:
                    if not has_one(rest):
                        continue
                    sub = self.length_mask(rest)
                acc |= sub
        else:
            in_pi, is_atom = engine.in_pi, engine.is_atom
            for sub in sub_multisets(x, n, True):
                if (in_pi(sub, 0) and is_atom(sub)
                        and (sub == x or has_one(x - sub))):
                    acc |= self.length_mask(x - sub)
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
            if rest not in lengths and not has_one(rest):
                continue
            # rest >= g_slot: B - A still holds g
            total += self._count(rest, idx if rest >= g_slot else 0, memo)
        memo[(x, start)] = total
        return total


def factorization_lengths(seq: Sequence, atoms: Optional[AtomSet] = None,
                          engine: Optional[PiEngine] = None) -> LengthSet:
    """L(B): all factorization lengths of a product-one sequence."""
    return FactorizationContext(seq.group, atoms, engine).lengths(seq)
