"""Atoms, Davenport constants, divisibility, and sets of lengths.

An atom is a non-empty product-one sequence that does not split into two
non-empty product-one sub-multisets.  Enumeration is by multiset length; for
abelian groups atoms are produced directly from product-one-free sequences
(append the inverse of the sum), which is exact and much faster.

The atom test is `PiEngine.is_atom`, memoised per engine.  It and every
other split test here go through `sequences.pivot_splits`, which yields only
the splits (T, B - T) whose part T holds the pivot of B (its lowest term).
That loses nothing: every unordered split of B has a part holding the pivot.
The one generic atom scan, `canonical_atoms`, is orbit-reduced: automorphisms
of G that fix the support set map atoms to atoms, so only the first multiset
of each orbit in scan order (the lexicographically least) is tested.  The
generic enumeration expands each atom it yields to its whole orbit;
`checks.property_P` tests the splits of each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, sub as sub_
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceededError, SequenceError, ValidationFailure
from .groups import Group, closure_of
from .sequences import (
    PiEngine,
    Sequence,
    iter_multisets_exact,
    pivot,
    pivot_splits,
)

ATOM_ENUM_BUDGET = 5_000_000  # candidate multisets across all lengths


@dataclass(frozen=True)
class AtomSet:
    group: Group
    support: tuple[int, ...]
    atoms: tuple[Sequence, ...]
    max_length: int

    def by_length(self, length: int) -> tuple[Sequence, ...]:
        return tuple(a for a in self.atoms if a.length == length)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class DavenportReport:
    group: Group
    small: int
    large: int
    free_witness: Sequence
    atom_witness: Sequence


@dataclass(frozen=True)
class LengthSet:
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
    """One getter per non-trivial permutation of the support slots that an
    automorphism fixing the support set induces; applied to an exponent
    tuple over the support, it returns the tuple of an image multiset."""
    slot = {g: i for i, g in enumerate(sup)}
    perms = {tuple(slot[aut[g]] for g in sup)
             for aut in group.automorphisms() if all(aut[g] in slot for g in sup)}
    perms.discard(tuple(range(len(sup))))
    return [itemgetter(*p) for p in sorted(perms)]


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
    """All atoms over the support set (default: the whole group)."""
    engine = engine or PiEngine(group)
    sup = _support_indices(group, support)
    if all(group.mul[a][b] == group.mul[b][a] for a in sup for b in sup):
        atoms = _enumerate_atoms_abelian_support(group, sup, engine)
    else:
        atoms = _enumerate_atoms_generic(group, sup, engine, budget)
    atoms.sort(key=lambda s: (s.length, s.exps))
    max_len = max((a.length for a in atoms), default=0)
    return AtomSet(group, sup, tuple(atoms), max_len)


def _enumerate_atoms_abelian_support(group: Group, sup: tuple[int, ...],
                                     engine: PiEngine) -> list[Sequence]:
    # over a commuting support, atoms are exactly (free S) * inverse(sum(S))
    levels = _free_frontier(group, sup, engine)
    seen: set[bytes] = set()
    atoms: list[Sequence] = []
    for level in levels:
        for exps, _ in level:
            prod = 0
            for g, e in enumerate(exps):
                if e:
                    for _ in range(e):
                        prod = group.mul[prod][g]
            g0 = group.inv[prod]
            if g0 not in sup:
                continue
            ext = bytearray(exps)
            ext[g0] += 1
            key = bytes(ext)
            if key not in seen:
                seen.add(key)
                atoms.append(Sequence(group, tuple(key)))
    return atoms


def _enumerate_atoms_generic(group: Group, sup: tuple[int, ...],
                             engine: PiEngine, budget: int) -> list[Sequence]:
    getters = orbit_getters(group, sup)
    max_len = len(closure_of(group, sup))
    return [Sequence(group, _unpack(group, sup, image))
            for packed in canonical_atoms(group, sup, engine, budget, max_len)
            for image in {packed, *(get(packed) for get in getters)}]


def canonical_atoms(group: Group, sup: tuple[int, ...], engine: PiEngine,
                    budget: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """The atoms over the support of length <= max_len that are the least of
    their orbit under the automorphisms fixing the support set, as exponent
    tuples over the support slots, in scan order (by length, then
    lexicographically).  Every multiset scanned counts against the budget,
    the skipped non-least ones included."""
    getters = orbit_getters(group, sup)
    pi = engine.pi_mask
    candidates = 0
    for length in range(1, max_len + 1):
        for packed in iter_multisets_exact(len(sup), length):
            candidates += 1
            if candidates > budget:
                raise BudgetExceededError(
                    f"atom scan exceeded {budget} candidates at length "
                    f"{length} of {max_len}")
            if any(get(packed) < packed for get in getters):
                continue  # an earlier multiset of the same orbit stands for it
            key = bytes(_unpack(group, sup, packed))
            # testing pi first keeps the atom memo to product-one candidates
            if pi(key) & 1 and engine.is_atom(key):
                yield packed


def _unpack(group: Group, sup: tuple[int, ...],
            packed: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent tuple over G of a tuple over the support slots."""
    exps = [0] * group.order
    for slot, e in enumerate(packed):
        exps[sup[slot]] = e
    return tuple(exps)


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
    """

    def __init__(self, group: Group, atoms: Optional[AtomSet] = None,
                 engine: Optional[PiEngine] = None):
        self.group = group
        self.engine = engine or PiEngine(group)
        # by_pivot[g]: (exponents, support mask) of the atoms whose lowest
        # term is g, in AtomSet order
        self.by_pivot: Optional[list[list[tuple[bytes, int]]]] = None
        if atoms is not None:
            self.by_pivot = [[] for _ in range(group.order)]
            for a in atoms.atoms:
                key = bytes(a.exps)
                self.by_pivot[pivot(key)].append((key, a.support_mask()))
        self._lengths: dict[bytes, frozenset[int]] = {}

    def lengths(self, seq: Sequence) -> LengthSet:
        if seq.length and not self.engine.is_product_one(seq):
            raise SequenceError("sequence is not product-one")
        ls = self._lengths_of(bytes(seq.exps))
        return LengthSet(seq, tuple(sorted(ls)))

    def _lengths_of(self, key: bytes) -> frozenset[int]:
        got = self._lengths.get(key)
        if got is not None:
            return got
        if not any(key):
            out = frozenset((0,))
            self._lengths[key] = out
            return out
        acc: set[int] = set()
        for comp in self._atom_splits(key):
            for l in self._lengths_of(comp):
                acc.add(1 + l)
        out = frozenset(acc)
        self._lengths[key] = out
        return out

    def _atom_splits(self, key: bytes):
        """Complements B - A of the atoms A | B holding the pivot of B, for
        which B - A is product-one or empty."""
        pi = self.engine.pi_mask
        if self.by_pivot is not None:
            smask = _support_mask(key)
            for aexps, amask in self.by_pivot[pivot(key)]:
                if amask & ~smask:
                    continue
                comp = _minus(key, aexps)
                if comp is not None and (not any(comp) or pi(comp) & 1):
                    yield comp
        else:
            for sub, comp in pivot_splits(key):
                if (self.engine.is_atom(sub)
                        and (not any(comp) or pi(comp) & 1)):
                    yield comp

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
        return self._count(bytes(seq.exps), 0, {})

    def _count(self, key: bytes, start: int,
               memo: dict[tuple[bytes, int], int]) -> int:
        # the memo is passed, not closed over, so no reference cycle keeps
        # it alive after the count returns
        if not any(key):
            return 1
        got = memo.get((key, start))
        if got is not None:
            return got
        g = pivot(key)
        pi = self.engine.pi_mask
        smask = _support_mask(key)
        atoms = self.by_pivot[g]
        total = 0
        for idx in range(start, len(atoms)):
            aexps, amask = atoms[idx]
            if amask & ~smask:
                continue
            comp = _minus(key, aexps)
            if comp is None:
                continue
            if comp[g]:
                if pi(comp) & 1:
                    total += self._count(comp, idx, memo)
            elif not any(comp) or pi(comp) & 1:
                total += self._count(comp, 0, memo)
        memo[(key, start)] = total
        return total


def _support_mask(key: bytes) -> int:
    m = 0
    for g, e in enumerate(key):
        if e:
            m |= 1 << g
    return m


def _minus(key: bytes, sub: bytes) -> Optional[bytes]:
    """key - sub, or None when sub is not a sub-multiset of key."""
    try:
        return bytes(map(sub_, key, sub))
    except ValueError:
        return None


def factorization_lengths(seq: Sequence, atoms: Optional[AtomSet] = None,
                          engine: Optional[PiEngine] = None) -> LengthSet:
    """L(B): all factorization lengths of a product-one sequence."""
    return FactorizationContext(seq.group, atoms, engine).lengths(seq)
