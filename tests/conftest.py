from __future__ import annotations

import time

import pytest

from prodone.classsemi import build
from prodone.groups import Group, parse_group
from prodone.invariants import GroupInvariants
from prodone.sequences import PiEngine


@pytest.fixture(scope="session")
def groups():
    specs = ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2xC2",
             "D6", "D8", "Q8"]
    return {spec: parse_group(spec) for spec in specs}


@pytest.fixture
def unreduce(monkeypatch):
    """A switch that turns the orbit reduction off for the rest of the test:
    every group then reports only the identity automorphism, so the scans
    visit every multiset."""
    def switch_off():
        monkeypatch.setattr(Group, "automorphisms",
                            lambda self: (tuple(range(self.order)),))
    return switch_off


@pytest.fixture(scope="session")
def engines(groups):
    return {spec: PiEngine(g) for spec, g in groups.items()}


@pytest.fixture(scope="session")
def invariants_ctx(groups, engines):
    """Atom sets and shared length memos for the small fixture groups."""
    out = {}
    for spec in ["C3", "C4", "C5", "C6", "D6", "D8", "Q8", "C2xC2"]:
        out[spec] = GroupInvariants(groups[spec], engine=engines[spec])
    return out


@pytest.fixture(scope="session")
def class_semigroups(groups, engines):
    """Class semigroups of the three non-abelian fixtures, with build times."""
    out = {}
    for spec in ["D6", "Q8", "D8"]:
        start = time.perf_counter()
        semi = build(groups[spec], engine=engines[spec], seed=0)
        out[spec] = (semi, time.perf_counter() - start)
    return out
