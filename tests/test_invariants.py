from __future__ import annotations

import random

import pytest

from prodone.errors import BudgetExceededError
from prodone.factor import davenport, divides_in_B
from prodone.groups import analyze, parse_group
from prodone.invariants import (
    GroupInvariants,
    delta_set,
    omega,
    rho_bounds_check,
    rho_even_certificate,
    semigroup_davenport,
    semigroup_davenport_of_group,
    unions_of_lengths,
)
from prodone.sequences import Sequence


def test_session_davenport_reuses_the_session_atoms(groups, engines,
                                                    monkeypatch):
    import prodone.factor
    d6 = groups["D6"]
    inv = GroupInvariants(d6, engines["D6"])
    calls = []
    enumerate_atoms = prodone.factor.enumerate_atoms
    monkeypatch.setattr(prodone.factor, "enumerate_atoms",
                        lambda *a, **k: calls.append(a) or enumerate_atoms(*a, **k))
    rep = inv.davenport()
    assert calls == []
    assert rep == davenport(d6)


def test_union_k1_is_singleton(groups, invariants_ctx):
    for spec in ("C3", "D6", "Q8"):
        rep = unions_of_lengths(groups[spec], 1, invariants_ctx[spec])
        assert rep.union == (1,)
        assert rep.rho == rep.lam == 1


def test_union_d6_k2(groups, invariants_ctx):
    rep = unions_of_lengths(groups["D6"], 2, invariants_ctx["D6"])
    assert rep.union == (2, 3, 4, 5, 6)
    assert rep.union == tuple(range(rep.lam, rep.rho + 1))
    assert rep.rho == 6 and rep.lam == 2


def test_union_intervals_k_le_3(groups, invariants_ctx):
    for spec in ("C3", "C4", "C5", "C6", "D6", "D8", "Q8"):
        for k in (1, 2, 3):
            rep = unions_of_lengths(groups[spec], k, invariants_ctx[spec])
            assert rep.union == tuple(range(rep.lam, rep.rho + 1)), (spec, k)


@pytest.mark.parametrize("spec,max_k", [("D6", 3), ("D8", 3), ("Q8", 2)])
def test_unions_match_unreduced_products(groups, invariants_ctx, unreduce,
                                         spec, max_k):
    reduced = [unions_of_lengths(groups[spec], k, invariants_ctx[spec])
               for k in range(1, max_k + 1)]
    assert all(rep.n_canonical < rep.n_products for rep in reduced[1:])
    unreduce()
    inv = GroupInvariants(groups[spec])
    for rep in reduced:
        full = unions_of_lengths(groups[spec], rep.k, inv)
        assert (full.union, full.n_products) == (rep.union, rep.n_products)
        assert full.n_canonical == full.n_products


def test_union_budget_bounds_the_product_count(groups, invariants_ctx, unreduce):
    d6, inv = groups["D6"], invariants_ctx["D6"]
    for switch in (lambda: None, unreduce):
        switch()
        # |Z_2| = 1010 distinct products of two atoms
        assert unions_of_lengths(d6, 2, inv, budget=1010).n_products == 1010
        with pytest.raises(BudgetExceededError):
            unions_of_lengths(d6, 2, inv, budget=1009)


def test_unions_over_the_automorphism_cap_are_unreduced(unreduce):
    # 20160 automorphisms: identity only, so every atom is its own orbit
    group = parse_group("C2xC2xC2xC2")
    inv = GroupInvariants(group)
    got = unions_of_lengths(group, 1, inv)
    assert got.n_canonical == got.n_products == len(inv.atoms) == 324
    unreduce()
    assert unions_of_lengths(group, 1, inv) == got


def test_q8_union_k3(groups, invariants_ctx):
    rep = unions_of_lengths(groups["Q8"], 3, invariants_ctx["Q8"])
    assert rep.union == tuple(range(2, 9))
    assert (rep.rho, rep.lam, rep.n_products) == (8, 2, 47_282)


def test_rho5_d6_is_exact_at_the_top_of_the_sandwich(groups, invariants_ctx):
    rep = rho_bounds_check(groups["D6"], 5, invariants_ctx["D6"], enum_max_k=5)
    assert rep.k_values == (1, 2, 3, 4, 5)
    assert rep.rho == (1, 6, 9, 12, 15)
    assert all(rep.enumerated)
    # 2D + D/2 with D = 6: the upper end of [1 + 2D, 2D + D/2]
    assert rep.unions[4].union == tuple(range(2, 16))


def test_rho_values(groups, invariants_ctx):
    for spec in ("D6", "Q8", "C4", "C6"):
        inv = invariants_ctx[spec]
        big = inv.davenport().large
        rep = rho_bounds_check(groups[spec], 4, inv)
        got = dict(zip(rep.k_values, rep.rho))
        assert got[2] == big
        assert got[4] == 2 * big


def test_rho_even_certificate_matches_enumeration(groups, invariants_ctx):
    inv = invariants_ctx["D6"]
    witness, rho2 = rho_even_certificate(inv, 2)
    assert rho2 == unions_of_lengths(groups["D6"], 2, inv).rho
    ls = inv.context.lengths(witness).lengths
    assert 2 in ls and rho2 in ls


def test_rho_sandwich_odd(groups, invariants_ctx):
    for spec in ("D6", "Q8", "C4", "C6"):
        inv = invariants_ctx[spec]
        big = inv.davenport().large
        rep = rho_bounds_check(groups[spec], 3, inv)
        got = dict(zip(rep.k_values, rep.rho))
        assert 1 + big <= got[3] <= big + big // 2


def test_rho_needs_group_of_size_three(groups):
    with pytest.raises(ValueError):
        rho_bounds_check(groups["C2"], 2)


def test_delta_c3_exact(groups, invariants_ctx):
    rep = delta_set(groups["C3"], 8, invariants_ctx["C3"],
                    omega_exact=3, property_p_holds=True)
    assert rep.delta == (1,)
    assert rep.exact


@pytest.mark.parametrize("spec", ["D6", "D8", "Q8"])
def test_delta_matches_unreduced_scan(groups, invariants_ctx, unreduce, spec):
    got = delta_set(groups[spec], 8, invariants_ctx[spec])
    unreduce()
    assert delta_set(groups[spec], 8, invariants_ctx[spec]) == got


def test_delta_trivial_groups(groups):
    assert delta_set(groups["C1"], 6).delta == ()
    assert delta_set(groups["C1"], 6).exact
    assert delta_set(groups["C2"], 6).delta == ()


def test_delta_cyclic_full_intervals(groups, invariants_ctx):
    """Distance sets of cyclic groups reach the ceiling omega - 2 and are
    certified exact through it."""
    from prodone.checks import property_P
    for n in (4, 5, 6):
        group = groups[f"C{n}"]
        inv = invariants_ctx[f"C{n}"]
        om = omega(group, inv=inv)
        pp = property_P(group, engine=inv.engine).holds
        rep = delta_set(group, 2 * n, inv=inv, omega_exact=om.lower,
                        property_p_holds=pp)
        assert rep.delta == tuple(range(1, n - 1))
        assert rep.exact


def test_delta_q8_interval_with_one(groups, invariants_ctx):
    rep = delta_set(groups["Q8"], 12, invariants_ctx["Q8"])
    assert 1 in rep.delta
    assert rep.delta == tuple(range(1, rep.delta[-1] + 1))


def test_omega_cyclic_exact(groups, invariants_ctx):
    for n in (3, 4, 5, 6, 7, 8):
        rep = omega(groups[f"C{n}"], inv=invariants_ctx.get(f"C{n}")
                    or GroupInvariants(groups[f"C{n}"]))
        assert rep.exact
        assert rep.lower == rep.upper == n


def test_omega_trivial_group(groups):
    rep = omega(groups["C1"])
    assert rep.lower == rep.upper == 1


def test_omega_brackets_nonabelian(groups, invariants_ctx, class_semigroups):
    for spec in ("D6", "Q8"):
        semi = class_semigroups[spec][0]
        rep = omega(groups[spec], class_semigroup=semi, inv=invariants_ctx[spec])
        big = invariants_ctx[spec].davenport().large
        assert big <= rep.lower <= rep.upper
        assert not rep.exact


def test_omega_witness_is_genuine(groups, invariants_ctx, engines):
    rep = omega(groups["C5"], inv=invariants_ctx["C5"])
    group = groups["C5"]
    engine = engines["C5"]
    full = Sequence.empty(group)
    for f in rep.witness_factors:
        full = full.concat(f)
    assert divides_in_B(rep.witness_atom, full, engine)
    n = len(rep.witness_factors)
    for mask in range(1, (1 << n) - 1):
        sub = Sequence.empty(group)
        for i in range(n):
            if mask >> i & 1:
                sub = sub.concat(rep.witness_factors[i])
        assert not divides_in_B(rep.witness_atom, sub, engine)


def test_semigroup_davenport_of_groups(groups):
    for n in (2, 3, 4, 5, 6, 7):
        sd = semigroup_davenport_of_group(groups[f"C{n}"])
        assert (sd.small, sd.large) == (n - 1, n)
    sd = semigroup_davenport_of_group(groups["C2xC2"])
    assert sd.large == 3


def test_semigroup_davenport_rejects_bad_tables():
    with pytest.raises(ValueError):
        semigroup_davenport([[0, 1], [0, 0]])  # not commutative
    with pytest.raises(ValueError):
        semigroup_davenport([[1, 1], [1, 1]])  # no identity


def test_semigroup_davenport_class_semigroups(class_semigroups, groups):
    want = {"Q8": (4, 5), "D8": (4, 5), "D6": (5, 6)}
    for spec, (d, dd) in want.items():
        semi = class_semigroups[spec][0]
        sd = semigroup_davenport(semi.op)
        assert (sd.small, sd.large) == (d, dd), spec
        assert sd.large == sd.small + 1
        assert sd.large <= semi.n_classes
        quotient = analyze(groups[spec]).abelianization
        assert davenport(quotient).large <= sd.large
        # the witness is genuinely irredundant
        total = semi.zero
        for c in sd.witness:
            total = semi.op[total][c]
        seen_props = _proper_subset_sums(semi.op, semi.zero, sd.witness)
        assert total not in seen_props


def _proper_subset_sums(op, zero, witness):
    sums = {}
    items = list(witness)
    n = len(items)
    out = set()
    for mask in range(0, (1 << n) - 1):
        val = zero
        for i in range(n):
            if mask >> i & 1:
                val = op[val][items[i]]
        out.add(val)
    return out


def test_localization_through_class_semigroup(groups, class_semigroups, engines):
    """Random products f * a_1 ... a_n landing in the monoid localize to at
    most d(C) of the a_i."""
    d6 = groups["D6"]
    semi = class_semigroups["D6"][0]
    engine = engines["D6"]
    d_c = semigroup_davenport(semi.op).small
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        f = Sequence.from_terms(d6, [rng.randrange(6) for _ in range(rng.randint(0, 3))])
        parts = [Sequence.from_terms(d6, [rng.randrange(6)
                                          for _ in range(rng.randint(1, 2))])
                 for _ in range(rng.randint(1, 5))]
        prod = f
        for p in parts:
            prod = prod.concat(p)
        if not engine.is_product_one(prod):
            continue
        checked += 1
        n = len(parts)
        found = False
        for mask in range(1 << n):
            if mask.bit_count() > d_c:
                continue
            sub = f
            for i in range(n):
                if mask >> i & 1:
                    sub = sub.concat(parts[i])
            if engine.is_product_one(sub):
                found = True
                break
        assert found
