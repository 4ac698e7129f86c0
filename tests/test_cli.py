from __future__ import annotations

import json
import os

import pytest

from prodone.cli import build_parser, main
from prodone.dot import bottom_node_count
from prodone.report import (
    SCHEMA_VERSION,
    ReportCache,
    cache_key,
    canonical_json,
    make_report,
)
from prodone.groups import parse_group


def run(args):
    return main(args)


def test_davenport_stdout(capsys, tmp_path):
    code = run(["davenport", "D6", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "small: 3" in out
    assert "large: 6" in out


def test_group_command(capsys, tmp_path):
    code = run(["group", "Q8", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "abelianization: C2 x C2" in out


def test_check_command(capsys, tmp_path):
    code = run(["check", "C4", "--property", "krull", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds: True" in out


def test_lengths_command(capsys):
    code = run(["lengths", "C3", "--seq", "g^3,g2^3", "--count", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lengths: [2, 3]" in out
    assert "factorizations: 2" in out


def test_unknown_group_is_computation_error(capsys):
    assert run(["davenport", "Z99", "--no-cache"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["lengths", "C3"])  # missing --seq
    assert exc.value.code == 2


@pytest.mark.parametrize("k", ["0", "-1", "two"])
def test_unions_rejects_k_below_one_as_usage_error(k, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["unions", "C3", "-k", k, "--no-cache"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-1", "two"])
@pytest.mark.parametrize("argv", [["delta", "C3"],
                                  ["check", "D6", "--property", "seminormal"]])
def test_non_positive_bound_is_a_usage_error(argv, bound, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--bound", bound, "--no-cache"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


_ARGV = {
    "group": ["group", "C3"],
    "atoms": ["atoms", "C3"],
    "davenport": ["davenport", "C3"],
    "lengths": ["lengths", "C3", "--seq", "g^3"],
    "class-semigroup": ["class-semigroup", "C3"],
    "unions": ["unions", "C3", "-k", "2"],
    "delta": ["delta", "C3"],
    "omega": ["omega", "C3"],
    "semigroup-davenport": ["semigroup-davenport", "C3"],
    "check": ["check", "C3", "--property", "p"],
    "atlas": ["atlas", "C3"],
}
_TAKES = {"--seed": {"class-semigroup", "omega", "semigroup-davenport", "atlas"},
          "--bound": {"delta", "check"}}


@pytest.mark.parametrize("command", sorted(_ARGV))
@pytest.mark.parametrize("flag", sorted(_TAKES))
def test_seed_and_bound_only_where_they_are_used(command, flag, capsys):
    argv = _ARGV[command] + [flag, "1", "--no-cache"]
    if command in _TAKES[flag]:
        assert getattr(build_parser().parse_args(argv), flag[2:]) == 1
        return
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_class_semigroup_json_and_dot(capsys, tmp_path):
    jpath = tmp_path / "out.json"
    dpath = tmp_path / "out.dot"
    code = run(["class-semigroup", "Q8", "--json", str(jpath),
                "--dot", str(dpath), "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["result"]["size"] == 18
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["provenance"]["seed"] == 0
    # JSON round trip
    assert json.loads(canonical_json(report)) == report
    text = dpath.read_text()
    assert text.count("shape=box") == 5
    assert bottom_node_count(report["result"]) == 5


def test_dot_deterministic_and_c1_single_node(capsys, tmp_path):
    d1 = tmp_path / "one.dot"
    d2 = tmp_path / "two.dot"
    run(["class-semigroup", "C1", "--dot", str(d1), "--no-cache"])
    run(["class-semigroup", "C1", "--dot", str(d2), "--no-cache"])
    capsys.readouterr()
    assert d1.read_text() == d2.read_text()
    text = d1.read_text()
    assert text.count("label=") == 1  # a single merged node


def test_d6_dot_has_six_bottom_nodes(capsys, tmp_path):
    dpath = tmp_path / "d6.dot"
    run(["class-semigroup", "D6", "--dot", str(dpath), "--no-cache"])
    capsys.readouterr()
    assert dpath.read_text().count("shape=box") == 6


def test_cache_hit_and_byte_stability(capsys, tmp_path):
    cache = str(tmp_path)
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["davenport", "C6", "--cache-dir", cache, "--json", str(j1)]) == 0
    first = capsys.readouterr().out
    assert "[cached]" not in first
    assert run(["davenport", "C6", "--cache-dir", cache, "--json", str(j2)]) == 0
    second = capsys.readouterr().out
    assert "[cached]" in second
    r1 = json.loads(j1.read_text())
    r2 = json.loads(j2.read_text())
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert canonical_json(r1) == canonical_json(r2)


def test_cache_schema_version_miss(tmp_path):
    group = parse_group("C3")
    cache = ReportCache(str(tmp_path))
    key = cache_key(group, "davenport", {})
    stale = {"schema_version": SCHEMA_VERSION + 1, "result": {}}
    cache.put(key, stale)
    assert cache.get(key) is None  # evicted
    assert not os.path.exists(os.path.join(str(tmp_path), f"{key}.json"))


def test_cache_corrupt_file_evicted(tmp_path):
    group = parse_group("C3")
    cache = ReportCache(str(tmp_path))
    key = cache_key(group, "davenport", {})
    path = os.path.join(str(tmp_path), f"{key}.json")
    with open(path, "w") as fh:
        fh.write("{broken")
    assert cache.get(key) is None
    assert not os.path.exists(path)


def test_cache_entry_with_other_keys_evicted(capsys, tmp_path):
    key = cache_key(parse_group("C3"), "group", {})
    path = tmp_path / f"{key}.json"
    path.write_text(canonical_json({"schema_version": SCHEMA_VERSION}))
    assert ReportCache(str(tmp_path)).get(key) is None
    assert not path.exists()
    path.write_text(canonical_json({"schema_version": SCHEMA_VERSION}))
    assert run(["group", "C3", "--cache-dir", str(tmp_path)]) == 0
    assert "[cached]" not in capsys.readouterr().out
    assert json.loads(path.read_text())["result"]["order"] == 3


def test_cache_entry_with_wrong_value_types_evicted(capsys, tmp_path):
    group = parse_group("C3")
    key = cache_key(group, "group", {})
    path = tmp_path / f"{key}.json"
    path.write_text(canonical_json(make_report(group, "group", {}, None, {})))
    assert run(["group", "C3", "--cache-dir", str(tmp_path)]) == 0
    assert "[cached]" not in capsys.readouterr().out
    assert json.loads(path.read_text())["result"]["order"] == 3


def test_cache_misses_reports_of_other_code(capsys, tmp_path, monkeypatch):
    import prodone.report as report
    argv = ["davenport", "C3", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(report, "source_digest", lambda: "0" * 64)
    assert run(argv) == 0
    assert run(argv) == 0
    assert capsys.readouterr().out.count("[cached]") == 1
    monkeypatch.undo()
    assert run(argv) == 0
    assert "[cached]" not in capsys.readouterr().out


def test_cache_key_depends_on_parameters_and_table():
    c3, c4 = parse_group("C3"), parse_group("C4")
    assert cache_key(c3, "unions", {"k": 2}) != cache_key(c3, "unions", {"k": 3})
    assert cache_key(c3, "unions", {"k": 2}) != cache_key(c4, "unions", {"k": 2})


def test_class_semigroup_reports_byte_stable(capsys, tmp_path):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["class-semigroup", "D6", "--json", str(j1), "--no-cache"])
    run(["class-semigroup", "D6", "--json", str(j2), "--no-cache"])
    capsys.readouterr()
    r1, r2 = json.loads(j1.read_text()), json.loads(j2.read_text())
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert canonical_json(r1) == canonical_json(r2)


def test_file_group_spec_through_cli(capsys, tmp_path):
    from prodone.groups import cyclic_group
    c5 = cyclic_group(5)
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({
        "order": 5, "table": [list(r) for r in c5.mul], "names": list(c5.names),
    }))
    code = run(["davenport", f"file:{path}", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "small: 4" in out and "large: 5" in out


def test_unions_command(capsys, tmp_path):
    jpath = tmp_path / "unions.json"
    code = run(["unions", "C4", "-k", "2", "--no-cache", "--json", str(jpath)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho: 4" in out
    result = json.loads(jpath.read_text())["result"]
    assert result["union"] == list(range(result["lambda"], result["rho"] + 1))


def test_delta_command(capsys):
    code = run(["delta", "C3", "--bound", "8", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta: [1]" in out


def test_omega_command(capsys):
    code = run(["omega", "C5", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower: 5" in out
    assert "upper: 5" in out


def test_semigroup_davenport_command(capsys, tmp_path):
    code = run(["semigroup-davenport", "D6", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "small: 5" in out
    assert "large: 6" in out


def test_atoms_command(capsys):
    code = run(["atoms", "D6", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max_length: 6" in out
    assert "count: 58" in out


def test_omega_nonabelian_command(capsys):
    code = run(["omega", "D6", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower: 6" in out
    assert "upper: 11" in out


def test_seed_is_surfaced(capsys, tmp_path):
    jpath = tmp_path / "s.json"
    code = run(["class-semigroup", "D6", "--seed", "7", "--json", str(jpath),
                "--no-cache"])
    capsys.readouterr()
    assert code == 0
    assert json.loads(jpath.read_text())["provenance"]["seed"] == 7


def test_atlas(capsys, tmp_path):
    jpath = tmp_path / "atlas.json"
    code = run(["atlas", "C3", "D6", "BAD", "--json", str(jpath),
                "--cache-dir", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert code == 0
    assert "C3" in out and "D6" in out
    rows = json.loads(jpath.read_text())["atlas"]
    assert rows[1]["class_semigroup_size"] == 26
    assert "error" in rows[2]
