"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks/test_bench.py

Each workload runs in smoke mode; every output check must pass and
every metric of BENCHMARK.json must be printed with its unit.  The
independent checkers are also fed wrong outputs to show that they catch
them.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "run.py")


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_smoke(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                           "--seconds", "0.2", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_checks_pass_and_metrics_are_complete(workload, trace):
    proc = run_smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = bench_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    rows = {line.split()[0]: line.split() for line in lines[:-1] if line.startswith("  ")}
    for m in spec:
        assert rows[m["name"]][2] == m["unit"], rows[m["name"]]
    if not trace:
        assert rows["inconclusive_frac"][1] == rows["failed_frac"][1] == "0"
        assert "median of" in " ".join(rows["wall_s"])


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = run_smoke("members", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_chi_check_rejects_an_improper_colouring(tmp_path):
    path = tmp_path / "chi.json"
    doc = {"chi": 2, "conclusive": True, "refutation": {"conclusive": True, "k": 1},
           "coloring": {"k": 2, "colors": [{"x": 1, "y": 2, "c": 1}, {"x": 1, "y": 3, "c": 1},
                                           {"x": 2, "y": 3, "c": 1}]}, "queries": []}
    path.write_text(json.dumps(doc))
    check = workloads.chi_check(2, workloads.all_pairs(3), "chi 3")
    out = check(0, str(path))
    assert out.failed == 1 and "monochromatic" in out.problems[0]
    doc["coloring"]["colors"][2]["c"] = 2
    path.write_text(json.dumps(doc))
    assert check(0, str(path)).conclusive == 1


def test_digest_check_rejects_changed_bytes(tmp_path):
    path = tmp_path / "out.col"
    path.write_text("p edge 1 0\n")
    check = workloads.digest_check("x", {"x": "0" * 64}, 1)
    assert check(0, str(path)).failed == 1


def test_reference_core_sizes():
    # W(2) = {(1,2), (2,3), (2,4), (3,4), (4,5)}; W(3) has 19 members (README)
    assert len(workloads.core_members(2)) == 5
    assert len(workloads.core_members(3)) == 19


def test_sequence_check_finds_containment():
    seq = {"entries": [[1, 2], [1], [1]]}
    assert workloads.sequence_problem(seq, 3) == "entry 2 is contained in entry 3"
    assert workloads.sequence_problem(seq, 3, skip=(2, 3)) is None
