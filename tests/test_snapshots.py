"""Canonical CLI reports pinned by hash.

Each command runs in-process with the cache off and writes its JSON report;
the sha256 of the canonical rendering without `timing_ms` must match the
recorded value.  A rewrite of any layer below the CLI that changes a result,
a witness or a provenance field shows up here as a changed hash.

`RESULT_SNAPSHOTS` pins only the `result` object of `class-semigroup`
reports: the table, numbering, representatives, product sets and derived
reports, as the folded-grid construction computed them before the ordered
class search replaced it.  The provenance of these reports records how the
table was found, so it is left out there.
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
     "7db44ad2b268d1811389752c302caa20afe57091f5b95c47280be7744b0a0787"),
    (["class-semigroup", "Q8"],
     "3a0c5cea9c43f9df639aec8ca53d193e08e5ed3387618e78a9ccc6b39a7d7b6f"),
    (["omega", "D6"],
     "5d750828cf63b03d5fc55567b8e74a2080476e6ef0e5e435e89b2d62dd08b9f2"),
    (["semigroup-davenport", "D6"],
     "0380b623bba577689f3aa0bf2661b1dc85c205c8b997b2f02e6cc98f6bc247bd"),
]


@pytest.mark.parametrize("argv,digest", SNAPSHOTS,
                         ids=[" ".join(argv) for argv, _ in SNAPSHOTS])
def test_canonical_report_hash(argv, digest, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(argv + ["--no-cache", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    report.pop("timing_ms")
    assert _sha256(report) == digest


RESULT_SNAPSHOTS = [
    ("C1", "89c9946d75177c5c7b6ce4e47cef4a4df306f8356a8fb43a3b51e5686f34e659"),
    ("C2", "e95f908a135405b65871052ca8a23e04bba4e0796fae03c8184fa3defbf13f8c"),
    ("C3", "ed163e74ade31876d1286688e4dffdc1c74a5da1850089819bfeb6a3e909a7b6"),
    ("C4", "d61f19793a1658cdc6e3fa24e39096bcfbed889acd347d62518380f936daeeda"),
    ("C5", "746ce7cd4c67d7fa5009c36f6a3bf4f53be569f82d2ea89e45281eedd2fe8d0c"),
    ("C6", "940dc2ef10ac634e6a86fb8ad1000a04c6640caa9fb4e039658c22def86d2f80"),
    ("C7", "1072ef45d9227f7ae966d4baf2703436338d89f5868da2aee4e2303802385b65"),
    ("C8", "b55475140ca458b88721a4c2d93a70728c3998d9bbf0b5d5cb22e8d81b21bf64"),
    ("C2xC2", "f4ca30eff11a3619bf55c3fde320009f7a299101a4b309e285c73cfb24af7f6d"),
    ("C2xC4", "12d339f02b0ce81bb4aa8a9540548a69045707cad33dc75ca35c93721dbe7c36"),
    ("C2xC2xC2", "fdb5c3aeb6881db22f89151dd9e25b4fdedee713a847fb9da937537ca193184e"),
    ("D6", "72727034bcdd524a452afff6c4f06c6e6fac6ce253043037c9d22a1f7347b811"),
    ("D8", "8b327ad8da730f6269e4163b2110109ecfc1a8a48c620512fff333b5dd64576b"),
    ("Q8", "929e775f20ff3f7dbd0319342c024b9ebdf73a67d7f999f9b7fbf11bb09f5734"),
]


def _sha256(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("spec,digest", RESULT_SNAPSHOTS,
                         ids=[spec for spec, _ in RESULT_SNAPSHOTS])
def test_class_semigroup_result_hash(spec, digest, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["class-semigroup", spec, "--no-cache", "--json", str(path)]) == 0
    assert _sha256(json.loads(path.read_text())["result"]) == digest
