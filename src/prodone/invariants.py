"""Arithmetic invariants: unions of sets of lengths, distance sets, the
divisibility-localization invariant omega, and Davenport constants of finite
commutative semigroups.

Unions and distances run on one sweep over the products of atoms, kept by
each `GroupInvariants` session: level j holds Z_j, the distinct products of
j atoms, one per Aut(G)-orbit, under the least image of the orbit's
`pack`ed exponent vectors, so extending by an atom is a slot-wise sum of
images.  The session builds the atom images once, extends each level once,
and never holds the images of its highest level.  U_k is the union of L(B)
over level k.  Delta reads L(B) = {j : B in Z_j} straight off the levels
filtered at |B| <= N, and the sweep extends with that bound past the kept
ones: B is a product of j atoms exactly when j is in L(B).  For even k the
maximum rho_k = k*D/2 is certified without enumeration: the upper bound is
forced by atom lengths (every atom in a 1-free product-one sequence has
length >= 2) and the lower bound by an explicit machine-checked witness
built from a maximal atom and its inverse sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import BudgetExceededError, SequenceError, ValidationFailure
from .factor import (
    DavenportReport,
    FactorizationContext,
    davenport,
    divides_in_B,
    enumerate_atoms,
    guard_bits,
    is_atom,
    pack,
    packed_remainders,
    unpack,
)
from .groups import Group, mask_elements
from .sequences import MAX_MULTIPLICITY, PiEngine, Sequence

UNION_PRODUCT_BUDGET = 2_000_000
SEMIGROUP_FRONTIER_BUDGET = 2_000_000
OMEGA_SUBSET_BUDGET = 1 << 22


class UnionReport(NamedTuple):
    k: int
    union: tuple[int, ...]
    rho: int
    lam: int
    n_products: int      # |Z_k|, the number of distinct k-atom products
    n_canonical: int     # Aut(G)-orbits of Z_k, the products L was computed on


class DeltaReport(NamedTuple):
    delta: tuple[int, ...]
    length_bound: int
    exact: bool
    reason: str


class OmegaReport(NamedTuple):
    lower: int
    upper: int
    exact: bool
    upper_reason: str
    witness_atom: Sequence
    witness_factors: tuple[Sequence, ...]
    per_atom: tuple[tuple[Sequence, int], ...]


class SemigroupDavenport(NamedTuple):
    small: int
    large: int
    size: int
    witness: tuple[int, ...]


# canonical key -> (parent's images, last atom's images, total length): the
# images of the member are the slot-wise sum of the two, made when extending
Level = dict[int, tuple[list[int], list[int], int]]


class GroupInvariants:
    """Shared atoms, engine, length memos and product sweep for one group.

    The product sweep is kept for the session.  Level j holds Z_j, the
    products of j atoms, keyed by the least `pack`ed image of each
    Aut(G)-orbit; an entry keeps the images of one member's parent on
    level j - 1 and of its last atom under one automorphism list, identity
    first, and its total length.  If sigma maps P to Q, it maps P + A to
    Q + sigma(A), so extending one member of each orbit by every atom
    reaches every orbit of the next level, and the images of P + A are the
    sums of those of P and A.  A level's own images are summed only when it
    is extended, so the images of the highest level are never held, and
    each level is extended once per session (`_level`).  The atom images
    and the levels are rebuilt when `Group.automorphisms()` lists other
    automorphisms.
    """

    def __init__(self, group: Group, engine: Optional[PiEngine] = None):
        self.group = group
        self.engine = engine or PiEngine(group)
        self.atoms = enumerate_atoms(group, engine=self.engine)
        self.context = FactorizationContext(group, self.atoms, self.engine)
        self._davenport: Optional[DavenportReport] = None
        self._atom_lengths = [a.length for a in self.atoms.atoms]  # ascending
        self._automorphisms: Optional[tuple[tuple[int, ...], ...]] = None
        self._atom_images: list[list[int]] = []
        self._levels: list[Level] = []
        self._sizes: list[int] = []  # |Z_j| of each kept level

    def davenport(self) -> DavenportReport:
        if self._davenport is None:
            self._davenport = davenport(self.group, self.engine, self.atoms)
        return self._davenport

    def _sweep(self) -> list[Level]:
        """The kept levels, from level 0, for the current automorphisms."""
        perms = self.group.automorphisms()
        if perms != self._automorphisms:
            self._automorphisms = perms
            self._atom_images = [[pack([e[g] for g in p]) for p in perms]
                                 for e in (a.exps for a in self.atoms.atoms)]
            zeros = [0] * len(perms)
            self._levels = [{0: (zeros, zeros, 0)}]
            self._sizes = [1]
        return self._levels

    def _level(self, k: int, budget: Optional[int] = None
               ) -> tuple[Level, int]:
        """Level k of the sweep and |Z_k|, extending the highest kept level
        as far as needed.

        Multiplying by a fixed atom is injective, so |Z_j| never shrinks
        with j, and ``budget`` bounds |Z_j| of every level up to k: of the
        kept ones first, then the running sum of orbit sizes of each new
        one.  A level is done before its keys are read, so the raw products
        of the sweep are freed before the caller's memos grow.
        """
        levels = self._sweep()
        for j, size in enumerate(self._sizes[1:k + 1], 1):
            if budget is not None and size > budget:
                raise _budget_error(budget, j)
        while len(levels) <= k:
            nxt: Level = {}
            size = 0
            for images in _extend(levels[-1], nxt, self._atom_images,
                                  self._atom_lengths):
                size += len(set(images))
                if budget is not None and size > budget:
                    raise _budget_error(budget, len(levels))
            levels.append(nxt)
            self._sizes.append(size)
        return levels[k], self._sizes[k]

    def _bounded_levels(self, max_total: int) -> Iterator[Level]:
        """The levels j = 1, 2, ... of the products of total length at most
        ``max_total``, up to the first empty one: the kept levels filtered,
        then extensions of the last with that bound."""
        kept = self._sweep()
        level = kept[0]
        for j in count(1):
            if j < len(kept):
                level = {key: entry for key, entry in kept[j].items()
                         if entry[2] <= max_total}
            else:
                nxt: Level = {}
                for _ in _extend(level, nxt, self._atom_images,
                                 self._atom_lengths, max_total):
                    pass
                level = nxt
            if not level:
                return
            yield level


def _budget_error(budget: int, j: int) -> BudgetExceededError:
    return BudgetExceededError(f"more than {budget} distinct {j}-atom products")


def _extend(level: Level, nxt: Level, atom_images: list[list[int]],
            lengths: list[int], max_total: Optional[int] = None
            ) -> Iterator[list[int]]:
    """Extend one member of each orbit of ``level`` by every atom (of length
    at most ``max_total`` minus its total, when given), put the new orbits
    into ``nxt`` and yield the images of the member of each.

    A raw product is tested against the ones already made before its images
    are summed: most products of a level are reached more than once.  The
    atoms go by length, so a bound cuts their list by `bisect`.
    """
    firsts = [images[0] for images in atom_images]
    stop = len(atom_images)
    seen: set[int] = set()
    for parent, last, total in level.values():
        images = list(map(add, parent, last))
        first = images[0]
        if max_total is not None:
            stop = bisect_right(lengths, max_total - total)
        for a in range(stop):
            raw = first + firsts[a]
            if raw in seen:
                continue
            seen.add(raw)
            prod = list(map(add, images, atom_images[a]))
            key = min(prod)
            if key not in nxt:
                nxt[key] = images, atom_images[a], total + lengths[a]
                yield prod


def _check_slots(most: int) -> None:
    """The ValueError of `bytes` when a product slot would pass 255, which
    `unpack` would wrap silently."""
    if most > MAX_MULTIPLICITY:
        raise ValueError("bytes must be in range(0, 256)")


def unions_of_lengths(group: Group, k: int,
                      inv: Optional[GroupInvariants] = None,
                      budget: int = UNION_PRODUCT_BUDGET) -> UnionReport:
    """U_k: all lengths co-realizable with a factorization of length k.

    U_k is the union of L(B) over the set Z_k of products of k atoms, level
    k of the session's sweep (`GroupInvariants._level`).  Both Z_k and L
    are Aut(G)-invariant, so L is computed on one canonical product per
    orbit only.  ``n_products`` is still |Z_k| (the sum of the orbit
    sizes), and ``budget`` bounds |Z_j| for every j <= k, not the canonical
    count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    inv = inv or GroupInvariants(group)
    _check_slots(k * max(max(a.exps) for a in inv.atoms.atoms))
    products, n_products = inv._level(k, budget)
    length_mask = inv.context.length_mask
    union = 0
    for key in products:
        union |= length_mask(key)
    ordered = mask_elements(union)
    rho, lam = ordered[-1], ordered[0]
    if ordered != tuple(range(lam, rho + 1)):
        raise ValidationFailure(f"U_{k} of {group.spec} is not an interval")
    return UnionReport(k, ordered, rho, lam, n_products, len(products))


def product_one_ordering(seq: Sequence, engine: PiEngine) -> list[int]:
    """An ordering of the terms multiplying to the identity."""
    group = seq.group
    if not engine.is_product_one(seq):
        raise SequenceError("sequence is not product-one")

    def rec(exps: bytearray, target: int, acc: list[int]) -> bool:
        if not sum(exps):
            return target == 0
        for g in range(len(exps)):
            if exps[g]:
                # choose g as the last factor: remaining must multiply to
                # target * g^-1
                exps[g] -= 1
                if engine.pi_mask(bytes(exps)) >> group.mul[target][group.inv[g]] & 1:
                    acc.append(g)
                    if rec(exps, group.mul[target][group.inv[g]], acc):
                        exps[g] += 1
                        return True
                    acc.pop()
                exps[g] += 1
        return False

    acc: list[int] = []
    if not rec(bytearray(seq.exps), 0, acc):
        raise SequenceError("no product-one ordering found")
    return list(reversed(acc))


def rho_even_certificate(inv: GroupInvariants, k: int) -> tuple[Sequence, int]:
    """Witness B for rho_{k} = (k/2)*D with both k and (k/2)*D in L(B).

    Returns the witness and the certified rho value.  Requires k even.
    """
    if k % 2:
        raise ValueError("certificate only applies to even k")
    group = inv.group
    engine = inv.engine
    half = k // 2
    dav = inv.davenport()
    big = dav.large
    terms = product_one_ordering(dav.atom_witness, engine)
    u = dav.atom_witness
    v = u.inverses()
    if not is_atom(v, engine):
        raise ValidationFailure("inverse sequence of a maximal atom is not an atom")
    pair = u.concat(v)
    witness = pair.repeat(half)
    # short factorization: U, V alternating (2*half atoms)
    short = 2 * half
    # long factorization: the term/inverse pairs, half*|U| atoms
    for g in terms:
        pair_atom = Sequence.from_terms(group, [g, group.inv[g]])
        if not is_atom(pair_atom, engine):
            raise ValidationFailure("term/inverse pair is not an atom")
    long = half * big
    ls = inv.context.lengths(witness).lengths
    if short not in ls or long not in ls:
        raise ValidationFailure("certificate witness misses a target length")
    if max(ls) > long:
        raise ValidationFailure("witness exceeds the arithmetic bound")
    return witness, long


class RhoReport(NamedTuple):
    k_values: tuple[int, ...]
    rho: tuple[int, ...]
    enumerated: tuple[bool, ...]
    unions: tuple[Optional[UnionReport], ...]


def rho_bounds_check(group: Group, k_max: int,
                     inv: Optional[GroupInvariants] = None,
                     enum_max_k: int = 3) -> RhoReport:
    """rho_k for k <= k_max, asserting the bounds they must satisfy.

    k <= enum_max_k are enumerated exactly (odd k included, where the
    bounds 1 + (k-1)/2*D <= rho_k <= (k-1)/2*D + D/2 leave the value open;
    k = 5 is in reach on D6, D8 and Q8); larger even k use the certified
    witness construction (the upper and lower bounds meet, so the value is
    exact).
    Odd k beyond enumeration reach are not reported.
    """
    if group.order <= 2:
        raise ValueError("length invariants assume group order >= 3")
    inv = inv or GroupInvariants(group)
    big = inv.davenport().large
    ks, rhos, enumerated, unions = [], [], [], []
    for k in range(1, k_max + 1):
        if k <= enum_max_k:
            rep = unions_of_lengths(group, k, inv)
            rho = rep.rho
            ks.append(k); rhos.append(rho); enumerated.append(True); unions.append(rep)
        elif k % 2 == 0:
            _, rho = rho_even_certificate(inv, k)
            ks.append(k); rhos.append(rho); enumerated.append(False); unions.append(None)
        else:
            continue
        if 2 * rho > k * big:
            raise ValidationFailure(f"rho_{k} exceeds k*D/2")
        if k % 2 == 0 and rho != (k // 2) * big:
            raise ValidationFailure(f"rho_{k} != (k/2)*D")
        if k % 2 == 1 and k > 1:
            lo = 1 + (k - 1) // 2 * big
            hi = (k - 1) // 2 * big + big // 2
            if not lo <= rho <= hi:
                raise ValidationFailure(f"rho_{k} outside its sandwich")
    got = dict(zip(ks, rhos))
    for i in ks:
        for j in ks:
            if i + j in got and got[i] + got[j] > got[i + j]:
                raise ValidationFailure("rho superadditivity violated")
    return RhoReport(tuple(ks), tuple(rhos), tuple(enumerated), tuple(unions))


def delta_set(group: Group, length_bound: int,
              inv: Optional[GroupInvariants] = None,
              omega_exact: Optional[int] = None,
              property_p_holds: Optional[bool] = None) -> DeltaReport:
    """Distances in sets of lengths over all product-one B with |B| bounded.

    j is in L(B) exactly when B is a product of j atoms, so L(B) is
    {j : B in Z_j}, read off the levels of the session's sweep bounded at
    total length N = length_bound.  The levels the session keeps are read
    filtered to total length <= N, and past them the sweep extends with
    that bound (`GroupInvariants._bounded_levels`).  The bounded levels miss
    no such B: a product of j atoms of length <= N drops one atom to a
    product of j - 1 atoms of smaller length, so by induction on j every
    one of them is an extension of bounded level j - 1.  Z_j and L are
    invariant under Aut(G), so one key per orbit is enough.  No pi test and
    no lengths memo are needed.

    The result is exact when the group is small enough to be factorial, or
    when the distance ceiling derived from an exact omega value is reached by
    an interval (granted the two-atom splitting property).
    """
    inv = inv or GroupInvariants(group)
    if group.order <= 2:
        return DeltaReport((), length_bound, True, "factorial monoid")
    _check_slots(length_bound)
    lengths: dict[int, int] = {}  # canonical key -> L as a bitmask
    for j, products in enumerate(inv._bounded_levels(length_bound), 1):
        bit = 1 << j
        for key in products:
            lengths[key] = lengths.get(key, 0) | bit
    delta: set[int] = set()
    for mask in set(lengths.values()):
        ls = mask_elements(mask)
        delta.update(b - a for a, b in zip(ls, ls[1:]))
    ordered = tuple(sorted(delta))
    exact = False
    reason = f"search bounded at |B| <= {length_bound}"
    if omega_exact is not None and property_p_holds:
        ceiling = omega_exact - 2
        if ordered == tuple(range(1, ceiling + 1)):
            exact = True
            reason = ("interval reaches the ceiling max-delta <= omega - 2 "
                      "and the two-atom splitting property pins min = 1")
    return DeltaReport(ordered, length_bound, exact, reason)


def omega(group: Group, class_semigroup=None,
          inv: Optional[GroupInvariants] = None) -> OmegaReport:
    """Bracket (and exact value where certified) for the omega invariant.

    The lower bound is the largest machine-verified witness: atoms A_1..A_n
    with U dividing their product in the product-one monoid but dividing no
    proper sub-product.  The generic witness pairs each term of a maximal
    atom with its inverse.  The upper bound is D(G) + d(C) via the class
    semigroup; for abelian groups the embedding into the free monoid is a
    divisor homomorphism, which caps omega at D(G) directly.
    """
    inv = inv or GroupInvariants(group)
    group_ = inv.group
    engine = inv.engine
    dav = inv.davenport()

    per_atom: list[tuple[Sequence, int]] = []
    best = 0
    best_atom = None
    best_factors: tuple[Sequence, ...] = ()
    for atom in inv.atoms.atoms:
        factors = _inverse_pair_factors(atom, engine)
        n = _verified_witness_size(atom, factors, engine)
        if n == 0:
            # the trivial witness: the atom divides itself but no empty product
            n, factors = 1, (atom,)
        per_atom.append((atom, n))
        if n > best:
            best, best_atom, best_factors = n, atom, factors
    if best_atom is None:
        raise ValidationFailure("no omega witness found")

    if group_.is_abelian:
        upper = dav.large
        upper_reason = "abelian: divisor embedding caps omega at D(G)"
    else:
        if class_semigroup is None:
            raise ValueError("non-abelian omega bracket needs the class semigroup")
        dc = semigroup_davenport(class_semigroup.op)
        upper = dav.large + dc.small
        upper_reason = "D(G) + d(C) via localization through the class semigroup"
    if best > upper:
        raise ValidationFailure("omega witness exceeds its certified upper bound")
    return OmegaReport(best, upper, best == upper, upper_reason,
                       best_atom, best_factors, tuple(per_atom))


def _inverse_pair_factors(atom: Sequence, engine: PiEngine) -> tuple[Sequence, ...]:
    group = atom.group
    terms = product_one_ordering(atom, engine)
    return tuple(Sequence.from_terms(group, [g, group.inv[g]]) for g in terms)


def _verified_witness_size(atom: Sequence, factors: tuple[Sequence, ...],
                           engine: PiEngine) -> int:
    """Largest verified n: atom | product(factors) with no proper sub-product
    divisible.  Returns 0 if the full product is not even divisible.

    The full product is tested with `divides_in_B`, which raises its
    SequenceError when the atom or the product is not product-one.  The
    factors must be product-one, so every sub-product is too.  The proper
    sub-products are walked in Gray-code order, so each step adds or
    removes one packed factor from a running sum, and each is tested with
    `packed_remainders` and the engine's `has_one`."""
    n = len(factors)
    if (1 << n) > OMEGA_SUBSET_BUDGET:
        raise BudgetExceededError("too many sub-products to verify")
    group = atom.group
    full = Sequence.empty(group)
    for f in factors:
        full = full.concat(f)
    if not divides_in_B(atom, full, engine):
        return 0
    order = group.order
    guard = guard_bits(order)
    divisor = [pack(atom.exps)]
    packed = [pack(f.exps) for f in factors]
    everything = (1 << n) - 1
    subset = total = 0
    for step in range(1, 1 << n):
        # Gray code: step i flips the factor of the lowest set bit of i
        low = step & -step
        subset ^= low
        if subset & low:
            total += packed[low.bit_length() - 1]
        else:
            total -= packed[low.bit_length() - 1]
        if subset == everything:
            continue
        for _, rest in packed_remainders(total, divisor, guard):
            if not rest or engine.has_one(unpack(rest, order)):
                return 0
    return n


def semigroup_davenport(op: Iterable[Iterable[int]],
                        budget: int = SEMIGROUP_FRONTIER_BUDGET) -> SemigroupDavenport:
    """Davenport constants of a finite commutative semigroup given by table.

    d is the largest size of an irredundant multiset (no proper sub-multiset
    shares its total sum); D = d + 1.  Irredundancy is inherited by
    sub-multisets, so a frontier search over canonical multisets suffices.
    Each frontier entry carries, as bitmasks over the elements, the sums A
    of all its index-subsets and the sums P of its proper ones.  Appending
    c gives P' = A | P*c and A' = A | A*c, and the extension is irredundant
    exactly when its total is not in P'.  ``budget`` bounds the candidates
    explored.
    """
    table = [list(row) for row in op]
    size = len(table)
    for row in table:
        if len(row) != size:
            raise ValueError("operation table is not square")
    idents = [e for e in range(size)
              if all(table[e][x] == x == table[x][e] for x in range(size))]
    if not idents:
        raise ValueError("semigroup has no identity element")
    ident = idents[0]
    for a in range(size):
        for b in range(size):
            if table[a][b] != table[b][a]:
                raise ValueError("operation table is not commutative")

    # frontier of irredundant multisets, canonical by non-decreasing element:
    # (multiset, total, A, P); table[c][x] is x*c, as the table commutes
    frontier: list[tuple[tuple[int, ...], int, int, int]] = [((), ident, 1 << ident, 0)]
    best: tuple[int, ...] = ()
    explored = 0
    while frontier:
        nxt: list[tuple[tuple[int, ...], int, int, int]] = []
        for ms, total, sums, proper in frontier:
            start = ms[-1] if ms else 0
            sum_elems, proper_elems = mask_elements(sums), mask_elements(proper)
            row = table[total]
            for c in range(start, size):
                explored += 1
                if explored > budget:
                    raise BudgetExceededError(
                        f"semigroup Davenport frontier exceeded {budget}")
                cand_total = row[c]
                by_c = table[c]
                if sums >> cand_total & 1 or any(by_c[p] == cand_total
                                                 for p in proper_elems):
                    continue
                sums_c = proper_c = 0
                for x in sum_elems:
                    sums_c |= 1 << by_c[x]
                for x in proper_elems:
                    proper_c |= 1 << by_c[x]
                nxt.append((ms + (c,), cand_total, sums | sums_c, sums | proper_c))
        if not nxt:
            break
        best = nxt[0][0]
        frontier = nxt
    d = len(best)
    return SemigroupDavenport(d, d + 1, size, best)


def semigroup_davenport_of_group(group: Group) -> SemigroupDavenport:
    if not group.is_abelian:
        raise ValueError("groups enter as semigroups only when abelian")
    return semigroup_davenport(group.mul)
