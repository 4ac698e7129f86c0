"""Arithmetic invariants: unions of sets of lengths, distance sets, the
divisibility-localization invariant omega, and Davenport constants of finite
commutative semigroups.

Unions U_k collect every factorization length co-realizable with length k;
they are computed by enumerating the distinct products of exactly k atoms,
one per Aut(G)-orbit, and taking the union of their sets of lengths.  For
even k the maximum rho_k = k*D/2 is certified without enumeration: the
upper bound is forced by atom lengths (every atom in a 1-free product-one
sequence has length >= 2) and the lower bound by an explicit
machine-checked witness built from a maximal atom and its inverse sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Optional

from .errors import BudgetExceededError, SequenceError, ValidationFailure
from .factor import (
    DavenportReport,
    FactorizationContext,
    davenport,
    divides_in_B,
    enumerate_atoms,
    is_atom,
    orbit_getters,
)
from .groups import Group, mask_elements
from .sequences import PiEngine, Sequence, iter_multisets

UNION_PRODUCT_BUDGET = 2_000_000
SEMIGROUP_FRONTIER_BUDGET = 2_000_000
OMEGA_SUBSET_BUDGET = 1 << 22


@dataclass(frozen=True)
class UnionReport:
    k: int
    union: tuple[int, ...]
    rho: int
    lam: int
    n_products: int      # |Z_k|, the number of distinct k-atom products
    n_canonical: int     # Aut(G)-orbits of Z_k, the products L was computed on


@dataclass(frozen=True)
class DeltaReport:
    delta: tuple[int, ...]
    length_bound: int
    exact: bool
    reason: str


@dataclass(frozen=True)
class OmegaReport:
    lower: int
    upper: int
    exact: bool
    upper_reason: str
    witness_atom: Sequence
    witness_factors: tuple[Sequence, ...]
    per_atom: tuple[tuple[Sequence, int], ...]


@dataclass(frozen=True)
class SemigroupDavenport:
    small: int
    large: int
    size: int
    witness: tuple[int, ...]


class GroupInvariants:
    """Shared atoms/engine/length memos for one group."""

    def __init__(self, group: Group, engine: Optional[PiEngine] = None):
        self.group = group
        self.engine = engine or PiEngine(group)
        self.atoms = enumerate_atoms(group, engine=self.engine)
        self.context = FactorizationContext(group, self.atoms, self.engine)
        self._davenport: Optional[DavenportReport] = None

    def davenport(self) -> DavenportReport:
        if self._davenport is None:
            self._davenport = davenport(self.group, self.engine, self.atoms)
        return self._davenport


def _atom_products(inv: GroupInvariants, k: int,
                   budget: int) -> tuple[list[bytes], int]:
    """The k-atom products Z_k, one Aut(G)-orbit representative each.

    Returns the canonical products (each the least of its orbit's exponent
    tuples) and |Z_k|, the sum of their orbit sizes.  Built level by level:
    if sigma maps a product of j atoms to its canonical form c, it maps the
    product with one more atom A to c + sigma(A), so extending only the
    canonical products by every atom reaches every orbit of the next level.
    Multiplying by a fixed atom is injective, so |Z_j| never shrinks with j,
    and the budget is checked against the running |Z_j| of every level.
    """
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
                if rep in nxt:
                    continue
                nxt[rep] = None
                size += len(orbit)
                if size > budget:
                    raise BudgetExceededError(
                        f"more than {budget} distinct {k}-atom products")
        level = list(nxt)
    return [bytes(p) for p in level], size


def unions_of_lengths(group: Group, k: int,
                      inv: Optional[GroupInvariants] = None,
                      budget: int = UNION_PRODUCT_BUDGET) -> UnionReport:
    """U_k: all lengths co-realizable with a factorization of length k.

    U_k is the union of L(B) over the set Z_k of products of k atoms.  Both
    Z_k and L are Aut(G)-invariant, so L is computed on one canonical
    product per orbit only.  ``n_products`` is still |Z_k| (the sum of the
    orbit sizes), and ``budget`` bounds |Z_k|, not the canonical count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    inv = inv or GroupInvariants(group)
    products, n_products = _atom_products(inv, k, budget)
    union: set[int] = set()
    for key in products:
        seq = Sequence(group, tuple(key))
        union.update(inv.context.lengths(seq).lengths)
    ordered = tuple(sorted(union))
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


@dataclass(frozen=True)
class RhoReport:
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

    The result is exact when the group is small enough to be factorial, or
    when the distance ceiling derived from an exact omega value is reached by
    an interval (granted the two-atom splitting property).
    """
    inv = inv or GroupInvariants(group)
    if group.order <= 2:
        return DeltaReport((), length_bound, True, "factorial monoid")
    # L(sigma(B)) = L(B) for every automorphism sigma, so one multiset per
    # orbit (the least) is enough
    getters = orbit_getters(group, tuple(range(group.order)))
    delta: set[int] = set()
    for exps in iter_multisets(group.order, length_bound):
        if not sum(exps):
            continue
        if any(get(exps) < exps for get in getters):
            continue
        if not inv.engine.pi_mask(bytes(exps)) & 1:
            continue
        ls = inv.context.lengths(Sequence(group, exps))
        delta.update(ls.delta())
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
    divisible.  Returns 0 if the full product is not even divisible."""
    n = len(factors)
    if (1 << n) > OMEGA_SUBSET_BUDGET:
        raise BudgetExceededError("too many sub-products to verify")
    group = atom.group
    full = Sequence.empty(group)
    for f in factors:
        full = full.concat(f)
    if not divides_in_B(atom, full, engine):
        return 0
    for mask in range(1, (1 << n) - 1):
        sub = Sequence.empty(group)
        for i in range(n):
            if mask >> i & 1:
                sub = sub.concat(factors[i])
        if divides_in_B(atom, sub, engine):
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
