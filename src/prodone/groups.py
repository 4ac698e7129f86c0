"""Finite groups as multiplication tables with dense 0-based element indices.

Index 0 is always the identity.  All higher layers of the package speak
element indices; names are only for parsing and display.  Subsets of a group
are passed around as bitmasks (bit g set <=> element g in the subset), which
keeps products of whole subsets cheap.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple, Optional, Sequence as Seq

from .errors import GroupSpecError, GroupValidationError

# Groups with more automorphisms than this report the identity alone, which
# bounds the search for them and the orbit test per scanned multiset
# (|Aut(C2^4)| = 20160, |Aut(C2^5)| is about 10^7).
AUTOMORPHISM_CAP = 1000


def mask_elements(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Group:
    """Immutable finite group given by its Cayley table."""

    __slots__ = (
        "order", "mul", "identity", "inv", "names", "spec",
        "_orders", "_name_to_index", "_byte_tables", "_is_abelian",
        "_automorphisms",
    )

    def __init__(self, mul: Seq[Seq[int]], names: Optional[Seq[str]] = None,
                 spec: str = ""):
        self.order = len(mul)
        self.mul = tuple(tuple(row) for row in mul)
        self.identity = 0
        self.names = tuple(names) if names is not None else tuple(
            f"e{i}" for i in range(self.order))
        self.spec = spec or "file:<anonymous>"
        self._validate()
        self.inv = tuple(self._find_inverse(g) for g in range(self.order))
        self._orders: Optional[tuple[int, ...]] = None
        self._name_to_index = {nm: i for i, nm in enumerate(self.names)}
        if len(self._name_to_index) != self.order:
            raise GroupValidationError("element names are not distinct")
        # byte_tables[g][byte_pos][byte_val] = mask of {h*g : h in byte chunk}
        self._byte_tables: Optional[list[list[list[int]]]] = None
        self._is_abelian: Optional[bool] = None
        self._automorphisms: Optional[tuple[tuple[int, ...], ...]] = None

    # -- construction checks ------------------------------------------------

    def _validate(self) -> None:
        n = self.order
        if n == 0:
            raise GroupValidationError("empty table")
        rng = range(n)
        for i, row in enumerate(self.mul):
            if len(row) != n:
                raise GroupValidationError(f"row {i} has wrong length")
            if sorted(row) != list(rng):
                raise GroupValidationError(f"row {i} is not a permutation")
        for j in rng:
            col = [self.mul[i][j] for i in rng]
            if sorted(col) != list(rng):
                raise GroupValidationError(f"column {j} is not a permutation")
        for g in rng:
            if self.mul[0][g] != g or self.mul[g][0] != g:
                raise GroupValidationError("index 0 is not a two-sided identity")
        # Light's test over generators picked by index (orders mean nothing yet)
        if bad := light_failure(self.mul, greedy_generators(self, rng)):
            raise GroupValidationError("associativity fails at (%d,%d,%d)" % bad)

    def _find_inverse(self, g: int) -> int:
        candidates = [h for h in range(self.order)
                      if self.mul[g][h] == 0 and self.mul[h][g] == 0]
        if len(candidates) != 1:
            raise GroupValidationError(f"element {g} has no unique two-sided inverse")
        return candidates[0]

    # -- basic queries -------------------------------------------------------

    def name(self, g: int) -> str:
        return self.names[g]

    def index_of(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError:
            raise GroupSpecError(f"unknown element name {name!r}") from None

    def element_order(self, g: int) -> int:
        return self.element_orders()[g]

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            out = []
            for g in range(self.order):
                k, x = 1, g
                while x != 0:
                    x = self.mul[x][g]
                    k += 1
                out.append(k)
            self._orders = tuple(out)
        return self._orders

    def exponent(self) -> int:
        e = 1
        for k in self.element_orders():
            e = _lcm(e, k)
        return e

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            self._is_abelian = all(
                self.mul[a][b] == self.mul[b][a]
                for a in range(self.order) for b in range(a))
        return self._is_abelian

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1"""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def commutator_of(self, x: int, y: int) -> int:
        """x * y * x^-1 * y^-1"""
        return self.mul[self.mul[self.mul[x][y]][self.inv[x]]][self.inv[y]]

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All automorphisms as permutation tuples (g -> perm[g]), identity
        first; the identity alone when there are more than AUTOMORPHISM_CAP."""
        if self._automorphisms is None:
            self._automorphisms = _find_automorphisms(self)
        return self._automorphisms

    def power(self, g: int, k: int) -> int:
        k %= self.element_order(g)
        x = 0
        for _ in range(k):
            x = self.mul[x][g]
        return x

    # -- bitmask machinery ---------------------------------------------------

    def _build_byte_tables(self) -> list[list[list[int]]]:
        """tables[g][b][v]: the mask of {h*g : h = 8b + i, bit i of v set,
        h < n}, each row filled from v without its lowest set bit."""
        n = self.order
        mul = self.mul
        tables = []
        for g in range(n):
            per_g = []
            for base in range(0, n, 8):
                bits = [1 << mul[h][g] if h < n else 0
                        for h in range(base, base + 8)]
                row = [0] * 256
                for v in range(1, 256):
                    low = v & -v
                    row[v] = row[v ^ low] | bits[low.bit_length() - 1]
                per_g.append(row)
            tables.append(per_g)
        self._byte_tables = tables
        return tables

    def mul_mask(self, mask: int, g: int) -> int:
        """{h*g : h in mask} as a bitmask.  The byte tables are built at the
        first call, so parsing a group does not pay for them."""
        tables = (self._byte_tables or self._build_byte_tables())[g]
        out = 0
        bpos = 0
        while mask:
            chunk = mask & 0xFF
            if chunk:
                out |= tables[bpos][chunk]
            mask >>= 8
            bpos += 1
        return out

    def mask_of(self, elements: Iterable[int]) -> int:
        m = 0
        for g in elements:
            m |= 1 << g
        return m

    mask_elements = staticmethod(mask_elements)

    def __repr__(self) -> str:
        return f"Group({self.spec}, order={self.order})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.mul == other.mul

    def __hash__(self) -> int:
        return hash(self.mul)


class Subgroup:
    """The subgroup ``members`` of a group, generated by ``generators``;
    immutable by convention.  The members must be the generators' closure."""

    __slots__ = ("group", "members", "generators")

    def __init__(self, group: Group, members: frozenset[int],
                 generators: tuple[int, ...]):
        if closure_of(group, generators) != members:
            raise GroupValidationError("members do not match generator closure")
        self.group = group
        self.members = members
        self.generators = generators

    @property
    def order(self) -> int:
        return len(self.members)

    def mask(self) -> int:
        return self.group.mask_of(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self) -> str:
        return (f"Subgroup(group={self.group!r}, members={self.members!r}, "
                f"generators={self.generators!r})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subgroup) and self.members == other.members
                and self.generators == other.generators
                and self.group == other.group)

    def __hash__(self) -> int:
        return hash(self.members)


class GroupStructure(NamedTuple):
    group: Group
    center: Subgroup
    commutator: Subgroup
    abelianization: Group
    projection: tuple[int, ...]  # element -> coset index in abelianization


def closure_of(group: Group, gens: Iterable[int]) -> frozenset[int]:
    members = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def greedy_generators(group: Group, candidates: Iterable[int]) -> tuple[int, ...]:
    """Generators of the group taken greedily in candidate order: each
    candidate outside the closure of those taken so far is taken."""
    gens: list[int] = []
    members = frozenset((0,))
    for g in candidates:
        if g not in members:
            gens.append(g)
            members = closure_of(group, gens)
    return tuple(gens)


def light_failure(op, middles: Iterable[int]) -> Optional[tuple[int, int, int]]:
    """Light's test on a table of tuple rows: the first (a, s, b) with
    (a*s)*b != a*(s*b), s in ``middles``, or None.  The passing middles are
    closed under products, so if they generate the table it is associative."""
    rng = range(len(op))
    for s in middles:
        rs = op[s]
        for a in rng:
            ra = op[a]
            ras = op[ra[s]]
            if tuple(map(ra.__getitem__, rs)) != ras:
                return a, s, next(b for b in rng if ras[b] != ra[rs[b]])
    return None


def _extend_hom(group: Group, gens: Seq[int],
                imgs: Seq[int]) -> Optional[dict[int, int]]:
    """The map <gens> -> G sending gens to imgs, if it is an injective
    homomorphism: it must respect right multiplication by every generator."""
    mul = group.mul
    phi = {0: 0}
    used = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        fx = phi[x]
        for g, t in zip(gens, imgs):
            y, fy = mul[x][g], mul[fx][t]
            got = phi.get(y)
            if got is None:
                if fy in used:
                    return None
                phi[y] = fy
                used.add(fy)
                frontier.append(y)
            elif got != fy:
                return None
    return phi


def _find_automorphisms(group: Group) -> tuple[tuple[int, ...], ...]:
    n = group.order
    # highest element order first, so fewer generators need images
    orders = group.element_orders()
    gens = greedy_generators(group, sorted(range(n), key=lambda x: -orders[x]))
    choices = [[h for h in range(n) if orders[h] == orders[g]] for g in gens]
    found: list[tuple[int, ...]] = []
    if not gens or not _extend_images(group, gens, choices, [], found):
        return (tuple(range(n)),)
    return tuple(sorted(found))  # the identity is the least permutation


def _extend_images(group: Group, gens: tuple[int, ...],
                   choices: list[list[int]], imgs: list[int],
                   found: list[tuple[int, ...]]) -> bool:
    """Depth-first over the images of the next generator, appending every
    automorphism to ``found``; False once there are more than the cap."""
    level = len(imgs)
    for t in choices[level]:
        imgs.append(t)
        phi = _extend_hom(group, gens[:level + 1], imgs)
        if phi is not None:
            if level + 1 < len(gens):
                if not _extend_images(group, gens, choices, imgs, found):
                    return False
            else:
                found.append(tuple(phi[g] for g in range(group.order)))
                if len(found) > AUTOMORPHISM_CAP:
                    return False
        imgs.pop()
    return True


def subgroup_generated(group: Group, gens: Iterable[int]) -> Subgroup:
    gens = tuple(sorted(set(gens)))
    return Subgroup(group, closure_of(group, gens), gens)


def center_of(group: Group) -> Subgroup:
    n = group.order
    members = [g for g in range(n)
               if all(group.mul[g][x] == group.mul[x][g] for x in range(n))]
    return Subgroup(group, frozenset(members), tuple(members))


def commutator_subgroup(group: Group) -> Subgroup:
    n = group.order
    gens = sorted({group.commutator_of(x, y) for x in range(n) for y in range(n)})
    gens = [g for g in gens if g != 0]
    return Subgroup(group, closure_of(group, gens), tuple(gens))


def quotient_group(group: Group, normal: Subgroup) -> tuple[Group, tuple[int, ...]]:
    """Quotient by a normal subgroup; cosets are ordered by least member."""
    for g in range(group.order):
        for h in normal.members:
            if group.conj(g, h) not in normal.members:
                raise GroupValidationError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in range(group.order):
        if g in coset_of:
            continue
        members = sorted(group.mul[g][h] for h in normal.members)
        rep = members[0]
        idx = len(reps)
        reps.append(rep)
        for m in members:
            coset_of[m] = idx
    k = len(reps)
    table = [[coset_of[group.mul[reps[i]][reps[j]]] for j in range(k)]
             for i in range(k)]
    names = [f"[{group.name(r)}]" for r in reps]
    q = Group(table, names, spec=f"{group.spec}/N")
    projection = tuple(coset_of[g] for g in range(group.order))
    return q, projection


def analyze(group: Group) -> GroupStructure:
    center = center_of(group)
    comm = commutator_subgroup(group)
    ab, proj = quotient_group(group, comm)
    return GroupStructure(group, center, comm, ab, proj)


# -- abelian invariants ------------------------------------------------------

def abelian_invariants(group: Group) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an abelian group (empty if trivial)."""
    if not group.is_abelian:
        raise GroupValidationError("invariant factors are defined for abelian groups")
    n = group.order
    if n == 1:
        return ()
    orders = group.element_orders()
    primes = _prime_factors(n)
    per_prime: dict[int, list[int]] = {}
    for p in primes:
        # c_k = #{x : x^(p^k) = 1} = p^(sum_i min(k, e_i)) over the p-component
        exps: list[int] = []
        prev = 1
        k = 1
        while True:
            pk = p ** k
            c = sum(1 for o in orders if pk % o == 0)
            if c == prev:
                break
            jump = c // prev
            r = 0
            while jump > 1:
                jump //= p
                r += 1
            # r = number of cyclic p-factors with exponent >= k
            exps.append(r)
            prev = c
            k += 1
        comp: list[int] = []
        for depth, cnt in enumerate(exps, start=1):
            while len(comp) < cnt:
                comp.append(0)
            for i in range(cnt):
                comp[i] = depth
        per_prime[p] = sorted(comp, reverse=True)
    width = max(len(v) for v in per_prime.values())
    factors = []
    for i in range(width):
        d = 1
        for p, comp in per_prime.items():
            if i < len(comp):
                d *= p ** comp[i]
        factors.append(d)
    return tuple(sorted(factors))


def abelian_group_name(group: Group) -> str:
    inv = abelian_invariants(group)
    if not inv:
        return "C1"
    return " x ".join(f"C{d}" for d in inv)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a // gcd(a, b) * b


# -- builders ----------------------------------------------------------------

def cyclic_group(n: int) -> Group:
    if n < 1:
        raise GroupSpecError("cyclic group order must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["1"] + [("g" if i == 1 else f"g{i}") for i in range(1, n)]
    return Group(table, names, spec=f"C{n}")


def dihedral_group(order: int) -> Group:
    """Dihedral group of the given (even) order, presented on a rotation a
    and a reflection b with b*a = a^-1*b.  Element i<n is a^i, n+i is a^i*b."""
    if order < 2 or order % 2 != 0:
        raise GroupSpecError("dihedral group order must be even and >= 2")
    n = order // 2

    def mul(x: int, y: int) -> int:
        xr, xf = x % n, x >= n
        yr, yf = y % n, y >= n
        if not xf:
            r = (xr + yr) % n
        else:
            r = (xr - yr) % n
        return r + (n if xf != yf else 0)

    table = [[mul(i, j) for j in range(order)] for i in range(order)]

    def rot_name(i: int) -> str:
        return "1" if i == 0 else ("a" if i == 1 else f"a{i}")

    names = [rot_name(i) for i in range(n)]
    names += ["b" if i == 0 else ("ab" if i == 1 else f"a{i}b") for i in range(n)]
    return Group(table, names, spec=f"D{order}")


_Q8_NAMES = ("E", "I", "J", "K", "-E", "-I", "-J", "-K")


def quaternion_group() -> Group:
    def mul(x: int, y: int) -> int:
        sx, tx = (x >= 4), x % 4
        sy, ty = (y >= 4), y % 4
        sign = sx != sy
        if tx == 0:
            t = ty
        elif ty == 0:
            t = tx
        elif tx == ty:
            t, sign = 0, not sign
        else:
            # I*J=K, J*K=I, K*I=J and reversed order flips the sign
            t = 6 - tx - ty
            if (tx, ty) in ((2, 1), (3, 2), (1, 3)):
                sign = not sign
        return t + (4 if sign else 0)

    table = [[mul(i, j) for j in range(8)] for i in range(8)]
    return Group(table, _Q8_NAMES, spec="Q8")


def direct_product(a: Group, b: Group) -> Group:
    na, nb = a.order, b.order

    def mul(x: int, y: int) -> int:
        xa, xb = divmod(x, nb)
        ya, yb = divmod(y, nb)
        return a.mul[xa][ya] * nb + b.mul[xb][yb]

    table = [[mul(i, j) for j in range(na * nb)] for i in range(na * nb)]
    names = [f"({a.name(i)},{b.name(j)})" for i in range(na) for j in range(nb)]
    return Group(table, names, spec=f"{a.spec}x{b.spec}")


def group_from_file(path: str) -> Group:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read group file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GroupSpecError(f"group file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "order" not in data or "table" not in data:
        raise GroupSpecError("group file must be an object with 'order' and 'table'")
    order = data["order"]
    table = data["table"]
    # bool is a subclass of int and 1.0 == 1, so both would slip past the
    # table checks of Group
    if type(order) is not int or not isinstance(table, list) or len(table) != order:
        raise GroupSpecError("group file order does not match table size")
    if not all(isinstance(row, list) and all(type(x) is int for x in row)
               for row in table):
        raise GroupSpecError("group file table entries must be integers")
    names = data.get("names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
            raise GroupSpecError("group file names must be a list of strings")
        if len(names) != order:
            raise GroupSpecError("group file names length does not match order")
    return Group(table, names, spec=f"file:{path}")


_ATOMIC_RE = re.compile(r"^(C|D)(\d+)$")


def _parse_atomic(token: str) -> Group:
    if token == "Q8":
        return quaternion_group()
    if token.startswith("file:"):
        return group_from_file(token[len("file:"):])
    m = _ATOMIC_RE.match(token)
    if not m:
        raise GroupSpecError(f"unrecognized group spec {token!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "C":
        return cyclic_group(num)
    return dihedral_group(num)


def parse_group(spec: str) -> Group:
    """Parse a group spec: C<n>, D<m>, Q8, file:<path>, or products like C2xC4.

    Products are left-associative; file specs cannot appear inside products.
    """
    spec = spec.strip()
    if not spec:
        raise GroupSpecError("empty group spec")
    if spec.startswith("file:"):
        return _parse_atomic(spec)
    parts = spec.split("x")
    groups = [_parse_atomic(p) for p in parts]
    out = groups[0]
    for g in groups[1:]:
        out = direct_product(out, g)
    return out
