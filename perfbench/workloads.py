"""The four benchmark workloads: their job lists and the checks of every answer.

A job is one call that a user of prodone could make on its own: a library
call with default engines, as the matching CLI subcommand makes it, or one
CLI subprocess.  Each pass builds its jobs afresh (fresh groups, fresh
engines, fresh CLI cache), so every pass is as cold as ``prodone <cmd>
--no-cache`` except for the in-process state of the interpreter itself.

Answers are compared with values that do not depend on class numbering: the
acceptance pins of the test suite and values recorded once in
``expected.json`` (see ``record_expected.py``).  Witnesses are re-checked
with ``is_atom`` and the group table instead of being compared as strings.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

from prodone import checks, classsemi, factor, invariants
from prodone.groups import parse_group
from prodone.sequences import PiEngine, Sequence, iter_submultisets

from measured_cli import PEAK_PREFIX, peak_rss_kb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
MEASURED_CLI = os.path.join(HERE, "measured_cli.py")

QUERIES_PER_GROUP = 50

# The groups each workload parses during set-up.
GROUPS = {
    "invariants": ("C6", "C2xC4", "D6", "D8", "Q8"),
    "scan": ("D14", "Q8", "D8", "D10"),
    "semigroup": ("C6", "C2xC4", "D6", "D8", "Q8"),
    "cli": ("D8", "Q8", "D6", "C6", "C3", "C4"),
}

# A tiny size of every workload, for the self-tests: a subset of the full
# jobs, so the same recorded values check it.
TINY = {
    "invariants": ("C6", "D6"),
    "semigroup": ("C6", "D6"),
}


@dataclass
class Job:
    """One call into prodone.  ``check`` returns the mismatches it finds."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    kind: str = "job"


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def query_stream(seed: int, spec: str, pool: list, count: int) -> list:
    """The seeded queries of one group: one pool entry from each of ``count``
    equal blocks of the pool, in seeded order.

    The pool is ordered by cost, and query costs are heavy-tailed, so a plain
    sample would make the work of a pass depend on the seed; a stratified one
    gives every seed the same mix of cheap and costly queries.
    """
    rng = random.Random(f"queries-{seed}-{spec}")
    block = len(pool) // count
    picks = [pool[i * block + rng.randrange(block)] for i in range(count)]
    rng.shuffle(picks)
    return picks


# -- witness re-checks --------------------------------------------------------


def _is_atom(group, exps) -> bool:
    return factor.is_atom(Sequence(group, tuple(exps)), PiEngine(group))


def _needs_three_atoms(group, exps) -> bool:
    """A product-one sequence that is neither an atom nor a product of two."""
    seq = Sequence(group, tuple(exps))
    engine = PiEngine(group)
    if not engine.is_product_one(seq) or _is_atom(group, exps):
        return False
    n = group.order
    for sub in iter_submultisets(exps):
        if not sum(sub) or sub == bytes(exps):
            continue
        comp = [exps[i] - sub[i] for i in range(n)]
        if _is_atom(group, sub) and _is_atom(group, comp):
            return False
    return True


def check_p_witness(group, witness: dict) -> list[str]:
    """Re-derive a two-atom-splitting counterexample from the group table."""
    atom = witness["atom"].exps
    g = group.index_of(witness["term"])
    h1, h2 = (group.index_of(x) for x in witness["factors"])
    problems = []
    if not _is_atom(group, atom):
        problems.append("P witness: the atom is not an atom")
    if not atom[g]:
        problems.append("P witness: the split term is not in the atom")
    if group.mul[h1][h2] != g:
        problems.append("P witness: the factors do not multiply to the term")
    split = list(atom)
    split[g] -= 1
    split[h1] += 1
    split[h2] += 1
    if tuple(split) != tuple(witness["split_sequence"].exps):
        problems.append("P witness: the split sequence does not match the split")
    elif not _needs_three_atoms(group, split):
        problems.append("P witness: the split sequence factors into two atoms")
    return problems


def _in_quotient_not_product_one(group, seq) -> list[str]:
    mask = PiEngine(group).pi_mask(seq.exps)
    problems = []
    if mask & ~checks.quotient_group_member_mask(group):
        problems.append("witness is not in the quotient group")
    if mask & 1:
        problems.append("witness is product-one")
    return problems


def check_seminormal_witness(group, seq) -> list[str]:
    engine = PiEngine(group)
    problems = _in_quotient_not_product_one(group, seq)
    for k in (2, 3):
        if not engine.is_product_one(seq.repeat(k)):
            problems.append(f"seminormality witness power {k} is not product-one")
    return problems


def check_krull_witness(group, witness: dict) -> list[str]:
    problems = []
    if not _is_atom(group, witness["obstruction_atom"].exps):
        problems.append("krull witness: obstruction is not an atom")
    g, h = (group.index_of(x) for x in witness["obstruction_pair"])
    if group.mul[g][h] == group.mul[h][g]:
        problems.append("krull witness: obstruction pair commutes")
    root = witness["root_witness"]
    problems += _in_quotient_not_product_one(group, root)
    if not PiEngine(group).is_product_one(root.repeat(witness["power"])):
        problems.append("krull witness: the power is not product-one")
    return problems


# -- workloads ------------------------------------------------------------------


class Workload:
    """A job list rebuilt for every pass; ``end_pass`` cleans up after one."""

    name = ""

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def end_pass(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        """Memory high-water mark of the process that ran the jobs."""
        return peak_rss_kb()


class Invariants(Workload):
    """One GroupInvariants session per group, then a seeded query stream."""

    name = "invariants"

    def __init__(self, seed: int, tiny: bool, expected: dict):
        self.seed = seed
        self.max_k = 2 if tiny else 3
        self.specs = TINY["invariants"] if tiny else GROUPS["invariants"]
        self.queries = 5 if tiny else QUERIES_PER_GROUP
        self.want = expected["invariants"]
        self.pools = expected["queries"]

    def jobs(self) -> list[Job]:
        out = []
        for spec in self.specs:
            out += self._session(spec, parse_group(spec), self.want[spec])
        return out

    def _session(self, spec: str, group, want: dict) -> list[Job]:
        session: dict = {}

        def start():
            session["inv"] = invariants.GroupInvariants(group)
            return session["inv"]

        def inv():
            return session["inv"]

        jobs = [
            Job(f"{spec}/atoms", start,
                lambda r: _equal(f"{spec} atoms", len(r.atoms), want["atoms"])),
            Job(f"{spec}/davenport", lambda: inv().davenport(),
                lambda r: _equal(f"{spec} (d, D)", [r.small, r.large],
                                 want["davenport"])),
        ]
        for k, union in sorted(want["unions"].items()):
            if int(k) > self.max_k:
                continue
            jobs.append(Job(
                f"{spec}/unions_k{k}",
                lambda k=int(k): invariants.unions_of_lengths(group, k, inv()),
                lambda r, k=k, union=union: _equal(
                    f"{spec} U_{k}", list(r.union), union)))

        def rho_check(r):
            witness, value = r
            lengths = inv().context.lengths(witness).lengths
            return _equal(f"{spec} rho_4 certificate",
                          [value, 4 in lengths, max(lengths)],
                          [want["rho4"], True, want["rho4"]])

        jobs.append(Job(f"{spec}/rho_certificate",
                        lambda: invariants.rho_even_certificate(inv(), 4),
                        rho_check))
        jobs.append(Job(
            f"{spec}/delta", lambda: invariants.delta_set(group, 8, inv=inv()),
            lambda r: _equal(f"{spec} Delta", list(r.delta), want["delta"])))
        if "omega" in want:
            jobs.append(Job(
                f"{spec}/omega", lambda: invariants.omega(group, inv=inv()),
                lambda r: _equal(f"{spec} omega", [r.lower, r.upper],
                                 want["omega"])))
        for i, (exps, lengths, count) in enumerate(
                query_stream(self.seed, spec, self.pools[spec], self.queries)):
            seq = Sequence(group, tuple(exps))

            def query(seq=seq):
                ctx = inv().context
                return list(ctx.lengths(seq).lengths), ctx.count_factorizations(seq)

            jobs.append(Job(f"{spec}/query{i}", query,
                            lambda r, want_=[lengths, count], i=i: _equal(
                                f"{spec} query {i} (L, count)", list(r), want_),
                            kind="query"))
        return jobs


class Scan(Workload):
    """Complete and early-exit structural scans, plus a generic atom search."""

    name = "scan"

    def __init__(self, seed: int, tiny: bool, expected: dict):
        self.tiny = tiny
        self.want = expected["scan"]

    def jobs(self) -> list[Job]:
        g = {spec: parse_group(spec) for spec in GROUPS["scan"]}
        want = self.want

        def p_check(spec):
            def check(v):
                problems = _equal(f"P({spec}) verdict", v.holds,
                                  want[f"property_P_{spec}"])
                if v.holds is False:
                    problems += check_p_witness(g[spec], v.witness)
                return problems
            return check

        def seminormal_check(v):
            return (_equal("seminormality(D14, 5) verdict", v.holds,
                           want["seminormality_D14"])
                    + check_seminormal_witness(g["D14"], v.witness["sequence"]))

        def krull_check(v):
            return (_equal("krull(D8, 6) verdict", v.holds, want["krull_D8"])
                    + check_krull_witness(g["D8"], v.witness))

        jobs = [
            Job("property_P_Q8", lambda: checks.property_P(g["Q8"]),
                p_check("Q8")),
            Job("seminormality_D14_5",
                lambda: checks.seminormality(g["D14"], 5), seminormal_check),
            Job("krull_D8_6", lambda: checks.krull_witness(g["D8"], 6),
                krull_check),
        ]
        if not self.tiny:
            jobs += [
                Job("property_P_D14", lambda: checks.property_P(g["D14"]),
                    p_check("D14")),
                Job("davenport_D10", lambda: factor.davenport(g["D10"]),
                    lambda r: _equal("(d, D) of D10", [r.small, r.large],
                                     want["davenport_D10"])),
            ]
        return jobs


class Semigroup(Workload):
    """Class semigroup builds with a seeded validation, then their reports."""

    name = "semigroup"

    def __init__(self, seed: int, tiny: bool, expected: dict):
        self.build_seed = random.Random(f"build-{seed}").randrange(1 << 30)
        self.specs = TINY["semigroup"] if tiny else GROUPS["semigroup"]
        self.want = expected["semigroup"]

    def jobs(self) -> list[Job]:
        out = []
        for spec in self.specs:
            out += self._group_jobs(spec, parse_group(spec), self.want[spec])
        return out

    def _group_jobs(self, spec: str, group, want: dict) -> list[Job]:
        built: dict = {}

        def build():
            built["semi"] = classsemi.build(group, seed=self.build_seed)
            return built["semi"]

        def reports():
            semi = built["semi"]
            return (classsemi.idempotent_structure(semi),
                    classsemi.unit_and_quotient_subgroups(semi),
                    classsemi.regularity_report(semi))

        def reports_check(r):
            idem, uq, reg = r
            return (_equal(f"{spec} idempotents", len(idem.idempotents),
                           want["idempotents"])
                    + _equal(f"{spec} units", len(uq.units), want["units"])
                    + _equal(f"{spec} non-regular classes", len(reg.non_regular),
                             want["non_regular"]))

        jobs = [
            Job(f"{spec}/build", build,
                lambda s: _equal(f"|C({spec})|", s.n_classes, want["classes"])),
            Job(f"{spec}/reports", reports, reports_check),
            Job(f"{spec}/semigroup_davenport",
                lambda: invariants.semigroup_davenport(built["semi"].op),
                lambda r: _equal(f"{spec} semigroup (d, D)", [r.small, r.large],
                                 want["semigroup_davenport"])),
        ]
        if "omega" in want:
            jobs.append(Job(
                f"{spec}/omega",
                lambda: invariants.omega(group, class_semigroup=built["semi"]),
                lambda r: _equal(f"{spec} omega bracket", [r.lower, r.upper],
                                 want["omega"])))
        return jobs


def cli_env() -> dict:
    """Environment of a CLI subprocess: the checkout's sources, no cache env."""
    env = dict(os.environ)
    env.pop("PRODONE_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


class Cli(Workload):
    """Nine CLI calls against an empty private cache, then the same nine again.

    The first phase misses and writes the cache, the second hits and reads it.
    """

    name = "cli"

    def __init__(self, seed: int, tiny: bool, expected: dict):
        self.tiny = tiny
        self.want = expected["cli"]
        self.command = (sys.executable, MEASURED_CLI)
        self.d6 = parse_group("D6")
        exps, lengths, count = query_stream(seed, "D6", expected["queries"]["D6"], 1)[0]
        self.literal = str(Sequence(self.d6, tuple(exps)))
        self.literal_want = [lengths, count]
        self.cache_dir = None
        self.env = cli_env()
        self.trace_dir = None        # set: each call writes its trace here
        self.compute_ms = 0.0        # timing_ms of the miss-phase reports
        self.child_peak_kb = 0       # largest peak_rss_kb of a CLI call

    def calls(self) -> list[tuple[str, list[str], Callable[[dict], list[str]]]]:
        w = self.want

        def group_check(r):
            return _equal("group D8", [r["order"], r["abelian"], r["abelianization"],
                                       sorted(r["element_orders"])], w["group_D8"])

        def atoms_check(r):
            return _equal("atoms Q8", [r["count"], r["max_length"], r["by_length"]],
                          w["atoms_Q8"])

        def lengths_check(r):
            return _equal(f"lengths D6 {self.literal}",
                          [r["lengths"], r["factorizations"]], self.literal_want)

        def seminormal_check(r):
            seq = Sequence.from_literal(self.d6, r["witness"]["sequence"])
            return (_equal("check D6 seminormal", r["holds"], w["seminormal_D6"])
                    + check_seminormal_witness(self.d6, seq))

        def semigroup_check(r):
            return _equal("class-semigroup D6",
                          [r["size"], len(r["idempotents"]), len(r["non_regular"]),
                           len(r["units"]), r["is_clifford"]], w["class_semigroup_D6"])

        calls = [
            ("group", ["group", "D8"], group_check),
            ("omega", ["omega", "C6"],
             lambda r: _equal("omega C6", [r["lower"], r["upper"]], w["omega_C6"])),
            ("lengths", ["lengths", "D6", "--seq", self.literal, "--count"],
             lengths_check),
        ]
        if self.tiny:
            return calls
        return calls + [
            ("atoms", ["atoms", "Q8"], atoms_check),
            ("davenport", ["davenport", "D8"],
             lambda r: _equal("davenport D8", [r["small"], r["large"]],
                              w["davenport_D8"])),
            ("unions", ["unions", "D6", "-k", "2"],
             lambda r: _equal("unions D6 -k 2", [r["union"], r["rho"], r["lambda"]],
                              w["unions_D6_2"])),
            ("check", ["check", "D6", "--property", "seminormal"], seminormal_check),
            ("class-semigroup", ["class-semigroup", "D6"], semigroup_check),
            ("atlas", ["atlas", "C3", "C4", "D6"],
             lambda r: _equal("atlas C3 C4 D6", [
                 [row["small_davenport"], row["large_davenport"],
                  row["class_semigroup_size"], row["idempotents"]]
                 for row in r["atlas"]], w["atlas"])),
        ]

    def jobs(self) -> list[Job]:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR)
        self.compute_ms = 0.0
        out = []
        for phase in ("miss", "hit"):
            for label, args, check in self.calls():
                job = f"{phase}/{label}"
                report = os.path.join(self.cache_dir, f"{phase}-{label}.json")
                argv = [*self.command, *args, "--cache-dir",
                        os.path.join(self.cache_dir, "cache"), "--json", report]
                out.append(Job(job,
                               lambda argv=argv, job=job: self._call(argv, job),
                               lambda proc, report=report, check=check, phase=phase:
                                   self._check(proc, report, check, phase),
                               kind=phase))
        return out

    def _call(self, argv: list[str], job: str) -> subprocess.CompletedProcess:
        env = self.env
        if self.trace_dir is not None:
            out = os.path.join(self.trace_dir, job.replace("/", "-") + ".json")
            env = dict(env, PERFBENCH_JOB=job, PERFBENCH_TRACE_OUT=out)
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        last = proc.stderr.rstrip("\n").rpartition("\n")[2]
        if last.startswith(PEAK_PREFIX):
            self.child_peak_kb = max(self.child_peak_kb, int(last[len(PEAK_PREFIX):]))
        return proc

    def _check(self, proc: subprocess.CompletedProcess, report_path: str,
               check: Callable[[dict], list[str]], phase: str) -> list[str]:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if phase == "miss" and report.get("timing_ms") is not None:
            self.compute_ms += report["timing_ms"]
        problems = check(report.get("result", report))
        if "computation" in report:
            cached = "[cached]" in proc.stdout.splitlines()[0]
            if cached != (phase == "hit"):
                got = "hit" if cached else "miss"
                problems.append(f"{report['computation']}: cache {got} in the {phase} phase")
        return problems

    def end_pass(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def peak_rss_kb(self) -> int:
        """The largest memory high-water mark of a CLI call."""
        return self.child_peak_kb


WORKLOADS = {w.name: w for w in (Invariants, Scan, Semigroup, Cli)}
