"""Workload definitions and output checks for the benchmark.

Each workload is a list of CLI commands run in-process through
``shiftcrit.cli.main``.  Every command writes one output file, and a
checker written here -- sharing no code with the library -- turns that
file and the command's exit code into an ``Outcome``: items attempted,
conclusive, inconclusive and failed, plus the exact solver counts read
from the file.  This module imports only the standard library.
"""
from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Callable

WORKLOADS = ("members", "refute", "chi", "export")

# Vertices v of W(4) for which `chi --core 4 --delete v` ends conclusively
# with both engines inside the default budget and takes about as long as
# the default (2,7): 1.0-1.3 s each on a 2-core x86 VM, so that every seed
# measures a comparable amount of work.  Seed s deletes W4_DELETIONS[s % len].
W4_DELETIONS = ((2, 7), (2, 6), (9, 11), (12, 15), (4, 7))

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Outcome:
    """What the checks made of some outputs: item tallies and exact counts."""

    items: int = 0
    conclusive: int = 0
    inconclusive: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.items += other.items
        self.conclusive += other.conclusive
        self.inconclusive += other.inconclusive
        self.failed += other.failed
        self.counts.update(other.counts)
        self.problems.extend(other.problems)


def all_failed(items: int, problem: str) -> Outcome:
    return Outcome(items=items, failed=items, problems=[problem])


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check(exit_code, path)`` judges its output file."""

    argv: tuple
    out: str
    items: int
    check: Callable[[int, str], Outcome]
    digest: str | None = None  # key of the recorded output digest, if any


# ---------------------------------------------------------------------------
# independent reference facts


def core_members(n: int) -> set:
    """W(n): pairs x < y lying together in some I_l = [2^l, 2^n - 2^(n-l) + 2]."""
    N = 2 ** n + 1
    bounds = [(2 ** l, 2 ** n - 2 ** (n - l) + 2) for l in range(n + 1)]
    return {(x, y) for x in range(1, N + 1) for y in range(x + 1, N + 1)
            if any(lo <= x and y <= hi for lo, hi in bounds)}


def all_pairs(N: int) -> set:
    return {(x, y) for x in range(1, N + 1) for y in range(x + 1, N + 1)}


def coloring_problem(doc, vertices: set, k: int):
    """Why a JSON colouring is not a proper k-colouring of exactly `vertices`, or None.

    Edges follow the chain rule (x, y) ~ (y, z), looped over here directly.
    """
    if not isinstance(doc, dict) or doc.get("k") != k:
        return f"colouring does not use k={k}"
    colors = {}
    for row in doc.get("colors", ()):
        colors[(row["x"], row["y"])] = row["c"]
    if set(colors) != vertices or len(colors) != len(doc["colors"]):
        return "colouring does not cover exactly the target vertices"
    if any(not 1 <= c <= k for c in colors.values()):
        return "colour outside [1, k]"
    by_first = {}
    for (x, y), c in colors.items():
        by_first.setdefault(x, []).append((y, c))
    for (x, y), c in colors.items():
        for z, c2 in by_first.get(y, ()):
            if c == c2:
                return f"edge ({x},{y})~({y},{z}) is monochromatic"
    return None


def sequence_problem(doc, N: int, skip=None):
    """Why a JSON subset sequence is not good on every pair of [1, N] but `skip`, or None."""
    entries = [frozenset(e) for e in doc["entries"]]
    if len(entries) < N:
        return "sequence is shorter than the ground interval"
    for i in range(N):
        for j in range(i + 1, N):
            if (i + 1, j + 1) != skip and entries[i] <= entries[j]:
                return f"entry {i + 1} is contained in entry {j + 1}"
    return None


def _load(path: str):
    with open(path, "rb") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checkers


def digest_check(name: str, digests: dict, items: int, report: bool = False):
    """Output must match its recorded digest; a report counts each check as an item."""
    want = digests.get(name)

    def check(code: int, path: str) -> Outcome:
        if code != 0:
            return all_failed(items, f"{name}: exit code {code}, expected 0")
        if _sha256(path) != want:
            return all_failed(items, f"{name}: output differs from the recorded digest")
        if not report:
            return Outcome(items=items, conclusive=items)
        doc = _load(path)
        passed = sum(1 for c in doc["checks"] if c["status"] == "pass")
        if len(doc["checks"]) != items or passed != items:
            return all_failed(items, f"{name}: {passed}/{len(doc['checks'])} checks pass, "
                                     f"expected {items}")
        return Outcome(items=items, conclusive=items)

    return check


def report_check(theorem: str, n: int, items: int, may_be_inconclusive=()):
    """Every check of a verify report must pass, except listed refs that may be inconclusive.

    Certificates attached to passing checks are re-checked here:
    deleted-vertex sequences for goodness, colourings for properness,
    refutation records for conclusiveness at k = n.
    """
    core = core_members(n)
    N = 2 ** n + 1

    def check(code: int, path: str) -> Outcome:
        name = f"verify {theorem} --n {n}"
        if code not in ((0, 3) if may_be_inconclusive else (0,)):
            return all_failed(items, f"{name}: exit code {code}")
        doc = _load(path)
        rows = doc["checks"]
        if len(rows) != items:
            return all_failed(items, f"{name}: {len(rows)} checks, expected {items}")
        certs = doc["certificates"]
        out = Outcome(items=items)
        for row in rows:
            ref, status = row["certificate_ref"], row["status"]
            cert = certs.get(ref)
            problem = None
            if status == "inconclusive" and ref in may_be_inconclusive:
                out.inconclusive += 1
            elif status != "pass":
                problem = f"status {status}"
            elif ref.startswith("deleted-vertex:") and cert is not None:
                x, y = (int(t) for t in ref.split(":")[1].strip("()").split(","))
                problem = sequence_problem(cert, N, skip=(x, y))
            elif ref == "upper:descending-sequence":
                problem = (sequence_problem(cert["sequence"], N)
                           or coloring_problem(cert.get("coloring"), core, n + 1))
            elif ref.startswith(("refutation:", "lower:")):
                if cert.get("conclusive") is not True or cert.get("k") != n:
                    problem = "refutation record is not a conclusive k=n record"
            if problem is None and status == "pass":
                out.conclusive += 1
            elif problem is not None:
                out.failed += 1
                out.problems.append(f"{name}: {row['claim']}: {problem}")
            if isinstance(cert, dict) and "nodes" in cert:
                eng = "bb" if ref.endswith(":bb") else "seq"
                out.counts[f"solvers.{eng}.queries"] += 1
                out.counts[f"solvers.{eng}.nodes"] += cert["nodes"]
                out.counts[f"solvers.{eng}.prunes"] += cert["prunes"]
                out.counts[f"solvers.{eng}.inconclusive"] += status == "inconclusive"
        want_code = 3 if out.inconclusive else 0
        if code != want_code:
            out.failed = items
            out.problems.append(f"{name}: exit code {code} does not match the report")
        out.counts["verify.checks"] += len(rows)
        return out

    return check


def chi_check(expected: int, vertices: set, label: str):
    """χ must equal `expected`, with a proper colouring of `vertices` and a χ-1 refutation."""

    def check(code: int, path: str) -> Outcome:
        if code != 0:
            return all_failed(1, f"{label}: exit code {code}")
        doc = _load(path)
        ref = doc.get("refutation") or {}
        problem = None
        if doc.get("chi") != expected or doc.get("conclusive") is not True:
            problem = f"chi {doc.get('chi')}, expected {expected}"
        elif ref.get("conclusive") is not True or ref.get("k") != expected - 1:
            problem = "missing conclusive refutation at chi - 1"
        else:
            problem = coloring_problem(doc.get("coloring"), vertices, expected)
        out = Outcome(items=1)
        if problem:
            out.failed = 1
            out.problems.append(f"{label}: {problem}")
        else:
            out.conclusive = 1
        for q in doc.get("queries", ()):
            eng = "bb" if q["engine"] == "bb" else "seq"
            out.counts[f"solvers.{eng}.queries"] += 1
            out.counts[f"solvers.{eng}.nodes"] += q["nodes"]
            out.counts[f"solvers.{eng}.prunes"] += q["prunes"]
            out.counts[f"solvers.{eng}.inconclusive"] += q["decision"] == "inconclusive"
        return out

    return check


# ---------------------------------------------------------------------------
# workload construction


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sizes(smoke: bool) -> dict:
    if smoke:
        return {"members_n": 3, "refute_ns": (2, 3), "criticality_n": 2, "chi_max": 9,
                "core_n": 3, "deletion": (2, 3), "gen_N": 17, "core_out": 3, "diagram": 3}
    return {"members_n": 7, "refute_ns": (2, 3, 4), "criticality_n": 3, "chi_max": 14,
            "core_n": 4, "deletion": None, "gen_N": 129, "core_out": 8, "diagram": 6}


def chi_deletion(seed: int) -> tuple:
    return W4_DELETIONS[seed % len(W4_DELETIONS)]


def build(workload: str, seed: int, smoke: bool, digests: dict) -> list:
    """The commands of one workload; `{out}` in argv stands for the output path."""
    s = _sizes(smoke)
    tag = "smoke." if smoke else ""
    if workload == "members":
        n = s["members_n"]
        items = len(core_members(n))
        return [Command(("verify", "2", "--n", str(n), "--members-only", "--out", "{out}"),
                        "members.json", items,
                        digest_check(f"{tag}members", digests, items, report=True),
                        f"{tag}members")]
    if workload == "refute":
        cmds = []
        top = max(s["refute_ns"])
        for n in s["refute_ns"]:
            lenient = ("lower:saturated-refutation",) if n == top and not smoke else ()
            cmds.append(Command(("verify", "3", "--n", str(n), "--max-nodes", "2000000",
                                 "--out", "{out}"),
                                f"core{n}.json", 2, report_check("3", n, 2, lenient)))
        n = s["criticality_n"]
        w = len(core_members(n))
        items = w + 2 * (comb(2 ** n + 1, 2) - w)
        cmds.append(Command(("verify", "2", "--n", str(n), "--out", "{out}"),
                            f"crit{n}.json", items, report_check("2", n, items)))
        return cmds
    if workload == "chi":
        cmds = [Command(("chi", str(N), "--out", "{out}"), f"chi{N}.json", 1,
                        chi_check((N - 1).bit_length(), all_pairs(N), f"chi {N}"))
                for N in range(2, s["chi_max"] + 1)]
        n = s["core_n"]
        x, y = s["deletion"] or chi_deletion(seed)
        cmds.append(Command(("chi", "--core", str(n), "--delete", f"{x},{y}", "--out", "{out}"),
                            "chi_core.json", 1,
                            chi_check(n, core_members(n) - {(x, y)},
                                      f"chi --core {n} --delete {x},{y}")))
        return cmds
    if workload == "export":
        N, c, d = s["gen_N"], s["core_out"], s["diagram"]
        files = ((("gen", str(N), "--format", "json"), f"gen{N}.json"),
                 (("gen", str(N)), f"gen{N}.col"),
                 (("core", str(c)), f"core{c}.json"),
                 (("diagram", str(d)), f"diagram{d}.svg"))
        return [Command(argv + ("--out", "{out}"), out, 1,
                        digest_check(f"{tag}{out}", digests, 1), f"{tag}{out}")
                for argv, out in files]
    raise ValueError(f"unknown workload {workload!r}")
