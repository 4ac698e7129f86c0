"""Canonical CLI reports pinned by hash.

Each command runs in-process with the cache off and writes its JSON report;
the sha256 of the canonical rendering without `timing_ms` must match the
recorded value.  A rewrite of any layer below the CLI that changes a result,
a witness or a provenance field shows up here as a changed hash.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from prodone.cli import main
from prodone.report import canonical_json

SNAPSHOTS = [
    (["group", "D6"],
     "3654c822cfd9f2ef36442acb1aa8c2fe30208d655a96b2f4145b9dc538beecc5"),
    (["atoms", "D6"],
     "dd2bb8419208f0c75e93b0a520a9896e36e3ae8ab398bf604f91936a66ec188c"),
    (["davenport", "Q8"],
     "1ea390cf2b1c05c19ae9e8069b9008812ace7b56e6d461162fd557e7b3f36301"),
    (["lengths", "D6", "--seq", "a^3,b^2,ab^2,a2b^2", "--count"],
     "f3a6d57c9daaaede273cee3b35c6734a1b75e2aeb0eb664cdeb5e1b50a7eaa8e"),
    (["unions", "D6", "-k", "2"],
     "d8601d3045fe68d13a83cfafd1185207fa492b313e7cd674327ea123da01f513"),
    (["delta", "D8"],
     "e110d728cd8fb7e45e79a1f685e8fa766b63ead18cdba849f94291bd222c1ed1"),
    (["check", "Q8", "--property", "p"],
     "1c9f3b10cbfa9b714879bc335ee495f853cb4aef824d2104040a2efc9ee86800"),
    (["check", "D6", "--property", "seminormal"],
     "2bd8b445fc7b038aa264b87162fe513d98ca2c7f953861a8544440f166231b0b"),
    (["check", "D6", "--property", "krull"],
     "0624f4d3d9a50093d333ba48bc48b129cb5c2da5e7405216c8fb0efcede46da0"),
    (["class-semigroup", "D6"],
     "bd2bc2a6f589704ffb4c5b1a33f9e703953130ca094b40cdc91be14a27d0f748"),
    (["class-semigroup", "Q8"],
     "460fd2327c59494b72241d578986808cd7f4fc9aae3fbcbc7fba508545fd096c"),
    (["omega", "D6"],
     "5d750828cf63b03d5fc55567b8e74a2080476e6ef0e5e435e89b2d62dd08b9f2"),
    (["semigroup-davenport", "D6"],
     "b76381ea6e1d04c7c38f8f6f7413cb86ffd3eb974af52d72ab9be807b61265b1"),
]


@pytest.mark.parametrize("argv,digest", SNAPSHOTS,
                         ids=[" ".join(argv) for argv, _ in SNAPSHOTS])
def test_canonical_report_hash(argv, digest, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(argv + ["--no-cache", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    report.pop("timing_ms")
    got = hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()
    assert got == digest
