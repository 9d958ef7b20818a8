import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from shiftcrit import cli, verify
from shiftcrit.cli import main
from shiftcrit.export import graph_to_json_dict
from shiftcrit.graphs import build_shift_graph, critical_core
from shiftcrit.solvers import chromatic_number
from shiftcrit.verify import verify_criticality

from oracles import sorted_dimacs

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_dimacs(capsys):
    code, out, _ = run(capsys, "gen", "5", "--format", "dimacs")
    assert code == 0 and "p edge 10 10" in out
    code, out, _ = run(capsys, "gen", "3")
    assert code == 0 and "p edge 3 1" in out


def test_gen_json_and_out_file(capsys, tmp_path):
    target = tmp_path / "g17.json"
    code, out, _ = run(capsys, "gen", "17", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert len(data["vertices"]) == 136


def test_core_command(capsys):
    for n, count in ((2, 5), (3, 19), (4, 87)):
        code, out, _ = run(capsys, "core", str(n))
        assert code == 0
        assert len(json.loads(out)["members"]) == count


def test_chi_full_graph(capsys):
    code, out, _ = run(capsys, "chi", "5")
    assert code == 0 and "chi = 3" in out


def test_chi_with_deletion(capsys):
    code, out, _ = run(capsys, "chi", "5", "--delete", "2,3")
    assert code == 0 and "chi = 2" in out


def test_chi_core_target(capsys, tmp_path):
    code, out, _ = run(capsys, "chi", "--core", "2")
    assert code == 0 and "chi = 3" in out
    target = tmp_path / "cert.json"
    code, out, _ = run(capsys, "chi", "--core", "2", "--out", str(target))
    assert code == 0 and str(target) in out
    cert = json.loads(target.read_text())
    assert cert["chi"] == 3 and cert["refutation"]["k"] == 2


def test_chi_inconclusive_exit(capsys):
    code, out, _ = run(capsys, "chi", "9", "--max-nodes", "3")
    assert code == 3 and "inconclusive" in out


def test_chi_usage_errors(capsys):
    code, _, err = run(capsys, "chi")
    assert code == 2 and "exactly one target" in err
    code, _, err = run(capsys, "chi", "5", "--core", "2")
    assert code == 2
    code, _, err = run(capsys, "chi", "5", "--delete", "1,9")
    assert code == 2 and "not in the target graph" in err
    code, _, err = run(capsys, "chi", "5", "--delete", "nope")
    assert code == 2
    code, _, err = run(capsys, "chi", "5", "--delete", "a,b")
    assert code == 2 and "wants integers" in err


def test_verify_pass_exit_and_report(capsys, tmp_path):
    target = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "3", "--n", "2", "--out", str(target))
    assert code == 0 and "theorem 3: pass" in out
    rep = json.loads(target.read_text())
    assert rep["status"] == "pass" and rep["theorem"] == "3"


def test_verify_w4_refutation_is_conclusive(capsys, tmp_path):
    target = tmp_path / "rep4.json"
    code, out, _ = run(capsys, "verify", "3", "--n", "4", "--max-nodes", "2000000",
                       "--out", str(target))
    assert code == 0
    cert = json.loads(target.read_text())["certificates"]["lower:saturated-refutation"]
    assert cert["k"] == 4 and cert["conclusive"] is True
    assert cert["nodes"] == 69_648


def test_verify_each_theorem(capsys):
    assert run(capsys, "verify", "1", "--n", "2")[0] == 0
    assert run(capsys, "verify", "2", "--n", "2")[0] == 0
    assert run(capsys, "verify", "formula", "--n", "9")[0] == 0


def test_verify_members_only(capsys):
    code, out, _ = run(capsys, "verify", "2", "--n", "4", "--members-only")
    assert code == 0 and "skipped:" in out


def test_verify_inconclusive_exit(capsys):
    code, out, _ = run(capsys, "verify", "3", "--n", "3", "--max-nodes", "5")
    assert code == 3 and "inconclusive" in out


def test_member_rows_stop_at_the_time_budget(capsys, tmp_path):
    # W(13) has 33,460,223 members at tens of ms each; one row stands for the rest
    target = tmp_path / "r.json"
    start = time.monotonic()
    code, _, _ = run(capsys, "verify", "2", "--n", "13", "--members-only",
                       "--max-seconds", "1", "--out", str(target))
    assert code == 3 and time.monotonic() - start < 10
    report = json.loads(target.read_text())
    assert report["status"] == "inconclusive"
    *rows, last = report["checks"]
    assert rows and all(c["status"] == "pass" for c in rows)
    assert last["status"] == "inconclusive"
    assert f"the {33_460_223 - len(rows)} core vertices" in last["claim"]


def test_formula_upper_bounds_stop_at_the_time_budget(capsys, tmp_path):
    # checking every N up to 4,000 takes about 30 s; one row stands for the sizes left
    target = tmp_path / "f.json"
    start = time.monotonic()
    code, _, _ = run(capsys, "verify", "formula", "--n", "4000", "--max-seconds", "0.5",
                     "--out", str(target))
    assert code == 3 and time.monotonic() - start < 5
    *rows, last = json.loads(target.read_text())["checks"]
    assert rows and all(c["status"] == "pass" for c in rows)
    assert last["status"] == "inconclusive"
    assert last["claim"].endswith(f"for each M from {len(rows) + 1} to 4000")


def test_memory_error_is_inconclusive(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_chi", exhausted)
    code, _, err = run(capsys, "chi", "5")
    assert code == 3 and err.startswith("error:") and err.count("\n") == 1


def test_diagram_writes_svg(capsys, tmp_path):
    target = tmp_path / "core.svg"
    code, _, _ = run(capsys, "diagram", "3", "--out", str(target))
    assert code == 0
    root = ET.fromstring(target.read_text())
    cells = [r for r in root.iter("{http://www.w3.org/2000/svg}rect")
             if r.get("class") == "cell"]
    assert len(cells) == 19


def test_diagram_out_of_range(capsys):
    code, _, err = run(capsys, "diagram", "9")
    assert code == 2 and "2 <= n <= 8" in err


def test_unwritable_path_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "5", "--out", str(tmp_path / "no" / "x"))
    assert code == 2 and "error:" in err


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("SHIFTCRIT_MAX_SECONDS", "bogus")
    code, _, err = run(capsys, "chi", "5")
    assert code == 2 and "SHIFTCRIT_MAX_SECONDS" in err
    monkeypatch.setenv("SHIFTCRIT_MAX_SECONDS", "60")
    code, out, _ = run(capsys, "chi", "5")
    assert code == 0 and "chi = 3" in out


@pytest.mark.parametrize("theorem", ("1", "3"))
def test_core_chromatic_past_the_color_limit_fails_before_building(capsys, monkeypatch, theorem):
    def built(*args):
        raise AssertionError("the upper-bound sequence was built")

    monkeypatch.setattr(verify, "descending_full_sequence", built)
    code, _, err = run(capsys, "verify", theorem, "--n", "20")
    assert code == 2 and "at most 12" in err


def test_nan_time_budget_is_a_usage_error(capsys, monkeypatch):
    # NaN fails every comparison, so it would silently switch the time budget off
    code, _, err = run(capsys, "verify", "3", "--n", "2", "--max-seconds", "nan")
    assert code == 2 and "max_seconds=nan" in err
    monkeypatch.setenv("SHIFTCRIT_MAX_SECONDS", "nan")
    code, _, err = run(capsys, "verify", "3", "--n", "2")
    assert code == 2 and "max_seconds=nan" in err


def test_inf_time_budget_means_no_limit(capsys, monkeypatch):
    assert run(capsys, "chi", "5", "--max-seconds", "inf")[0] == 0
    monkeypatch.setenv("SHIFTCRIT_MAX_SECONDS", "inf")
    assert run(capsys, "verify", "3", "--n", "2")[0] == 0


def test_parser_is_built_once_and_subcommands_dispatch_by_name(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # a replaced cmd_* (as the benchmark's tracer installs) runs after the parser is built
    monkeypatch.setattr(cli, "cmd_core", lambda args: 42)
    assert main(["core", "2"]) == 42


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])
    assert exc.value.code == 2


def test_verify_refute_nonmembers_is_a_usage_error():
    # the non-member scope follows from n; --members-only is the one scope flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "2", "--n", "2", "--refute-nonmembers"])
    assert exc.value.code == 2


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_stdout_and_out_file_bytes_match_in_memory_encoding(capsys, tmp_path):
    cases = ((("gen", "9"), sorted_dimacs(build_shift_graph(9))),
             (("gen", "9", "--format", "json"), dumps(graph_to_json_dict(build_shift_graph(9)))),
             (("core", "3"), dumps(critical_core(3).to_json_dict())))
    for argv, want in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want
        target = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(target))[0] == 0
        assert target.read_bytes() == want.encode("utf-8")
    # chi and verify print a summary to stdout and the JSON only to --out
    cases = ((("chi", "5"), chromatic_number(build_shift_graph(5))),
             (("verify", "2", "--n", "2"), verify_criticality(2)))
    for argv, result in cases:
        target = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(target))[0] == 0
        assert target.read_bytes() == dumps(result.to_json_dict()).encode("utf-8")


def failing_after_first_chunk(exc):
    def chunks(view):
        yield "{\n"
        raise exc
    return chunks


def test_failed_write_leaves_no_partial_out_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "g.json"
    target.write_text("earlier\n")
    monkeypatch.setattr(cli, "graph_json_chunks", failing_after_first_chunk(OSError("disk full")))
    code, _, err = run(capsys, "gen", "5", "--format", "json", "--out", str(target))
    assert code == 2 and "disk full" in err
    assert os.listdir(tmp_path) == ["g.json"] and target.read_text() == "earlier\n"
    target.unlink()
    monkeypatch.setattr(cli, "graph_json_chunks", failing_after_first_chunk(RuntimeError("bug")))
    with pytest.raises(RuntimeError):
        main(["gen", "5", "--format", "json", "--out", str(target)])
    assert os.listdir(tmp_path) == []


def test_stale_temporary_file_is_skipped_and_left_alone(capsys, tmp_path):
    # a run killed mid-write leaves .<name>.<pid>.tmp, and pids are reused
    target = tmp_path / "core2.json"
    stale = [tmp_path / f".core2.json.{os.getpid()}{suffix}.tmp" for suffix in ("", ".1")]
    for path in stale:
        path.write_text("stale\n")
    assert run(capsys, "core", "2", "--out", str(target))[0] == 0
    assert target.read_bytes() == dumps(critical_core(2).to_json_dict()).encode("utf-8")
    assert [path.read_text() for path in stale] == ["stale\n", "stale\n"]
    assert sorted(os.listdir(tmp_path)) == sorted(["core2.json"] + [p.name for p in stale])


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    real = tmp_path / "real.col"
    real.write_text("earlier\n")
    link = tmp_path / "link.col"
    link.symlink_to(real)
    assert run(capsys, "gen", "5", "--out", str(link))[0] == 0
    assert link.is_symlink() and real.read_text() == sorted_dimacs(build_shift_graph(5))
    assert sorted(os.listdir(tmp_path)) == ["link.col", "real.col"]


def traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("fmt", ("dimacs", "json"))
def test_gen_129_streams_in_bounded_memory(capsys, tmp_path, fmt):
    # 349,504 edges; holding them, as an in-memory export does, peaks above 50 MB,
    # and a table of the 8,256 vertices and their ids above 1 MB
    target = tmp_path / "g129"
    peak = traced_peak(["gen", "129", "--format", fmt, "--out", str(target)])
    assert target.stat().st_size > 4_000_000
    assert peak < 2 ** 20


def test_core_8_streams_in_bounded_memory(capsys, tmp_path):
    # 31,103 members; their tuple, set and JSON lists peak near 7 MB
    target = tmp_path / "core8.json"
    peak = traced_peak(["core", "8", "--out", str(target)])
    assert target.stat().st_size > 900_000
    assert peak < 2 ** 20


def test_every_name_the_benchmark_tracer_wraps_exists():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    assert len(wrapped) > 30
    for modname, attr, _ in wrapped:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    # the tracer counts the bytes of _emit's first argument
    assert list(inspect.signature(cli._emit).parameters) == ["text", "out"]


# sha256 of the --out bytes of commands whose searches never ran in the
# saturated mode the sequence engine once had; recorded from that engine
GOLDEN_OUT_SHA256 = {
    ("chi", "2"):
        "1a15a4c5719d1c6f52bfdc90d149fe7efa70f4bc699f95211116d5f179f86321",
    ("chi", "3"):
        "981b6b22aaff7c2e11de11fa5bdf2f0edb763b5f92c0e259fb9822d94fd4846b",
    ("chi", "4"):
        "fabb5f7ac9abe1d223c7b78caf5034e64fab4b6e6cb904f777d08e0a5e9cc891",
    ("chi", "5"):
        "b3ee0a5e0d4b15dd935eda00c0f90049faa74959f3f8e698a843e5efd0bbbb1d",
    ("chi", "6"):
        "25b457731a8ee411230465cec247b49783f9ccca96bb9dfe037d0690da8ff9ea",
    ("chi", "7"):
        "82e41c05fe2dc2f64a8f794e2bee8e20643004c1044a32d08c8a3c8d412e1efa",
    ("chi", "8"):
        "fc7a9582741d57709c44a7ae796f628c105fc0bfcbcd0f6792af65da5361c79b",
    ("chi", "9"):
        "b979be7ca39efd0eb9ac0e12f7f2b863e9b6e3c8b848d58d135177db2337353c",
    ("chi", "10"):
        "a2316149cb50d35d0513d179258b0b8fb8ad58e5ba66786f84f69025039421a5",
    ("chi", "11"):
        "0d0807f498cf2f1c9c8d362f0d0b56b9fb2096dfd5e855500c0e037437589751",
    ("chi", "12"):
        "030f68feb8227706d4038117ed3b0f24d4fab011a50d0a344510630d7cebd246",
    ("chi", "13"):
        "488020f5240da9bb061798c875a19b8a483bcb901dde6f85002bca9d11a484d0",
    ("chi", "14"):
        "6b52dd68643fdee02b6d8824e5d114f482ae2484a942f2f54599f6998e5684a8",
    ("chi", "--core", "4", "--delete", "2,7"):
        "24d8db51e6d23a454e7ed88546837e9ad425680fb5cc40d821eca6d4753effc4",
    ("chi", "--core", "4", "--delete", "2,6"):
        "0fcd67a8507741209a6f9a3d99588c6b3914bcf732e1828fe43fa727b9cdf800",
    ("chi", "--core", "4", "--delete", "9,11"):
        "085d5c45801f9879ec9c3283521af4fc112bfb41c008c76e0318f58826518984",
    ("chi", "--core", "4", "--delete", "12,15"):
        "8fb65e712b96c833188469e5f11bde5e01be65d2fb60659fe21d8326d77073e1",
    ("chi", "--core", "4", "--delete", "4,7"):
        "3ffcebaae7caf4c6252f5c7d0ab479026e3a81ff104568bcc8c4893277cec34d",
    ("verify", "2", "--n", "3"):
        "c57cc2d3fe4b110bb0f3a27cc9ef60b7ccd6220aed4eb347a078f8d285b28fbf",
    # the core as a solver view; recorded while it was solved through an
    # induced copy of its members
    ("chi", "--core", "2"):
        "0e1b7527fdf168a078da61cf72d8127d8dba8e0abf82c6367f2c95aa8ec375a3",
    ("chi", "--core", "3"):
        "051b67d93bfe0aa96dc019b688365e48eb215bedfbe252261a8656e4faec00b3",
    # re-recorded when the enumeration row's method text named the subset DP
    ("verify", "1", "--n", "2"):
        "fa1662de02ff58707d9627a780e61b47c1b49ec5cc6f6753b9293f18e8c9011e",
    ("verify", "3", "--n", "3"):
        "c51472272efc8adb18ab68f7b6207834e5afbc5de123c563a588f4b9ea59151e",
}


@pytest.mark.parametrize("argv", list(GOLDEN_OUT_SHA256), ids=" ".join)
def test_out_bytes_match_recorded_digests(capsys, tmp_path, argv):
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(target))[0] == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_OUT_SHA256[argv]


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workloads.py, loaded by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", (("chi", "--core", "3"), ("chi", "9")), ids=" ".join)
def test_tracer_counts_one_greedy_and_each_bb_query(capsys, tmp_path, argv):
    # the greedy upper bound must not reach the public k_colorable_bb, which
    # the tracer counts as a bb query
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    target = tmp_path / "out.json"
    tracer.install()
    try:
        assert cli.main([*argv, "--out", str(target)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    queries = json.loads(target.read_text(encoding="utf-8"))["queries"]
    assert names.count("solvers.greedy") == 1
    assert names.count("solvers.bb") == sum(q["engine"] == "bb" for q in queries) > 0


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
@pytest.mark.parametrize("workload", ["members", "export"])
def test_benchmark_outputs_match_recorded_digests(capsys, tmp_path, bench_workloads,
                                                  workload, smoke):
    # the members and export outputs at the benchmark's own sizes, seed 0,
    # as record_digests.py builds them
    digests = bench_workloads.load_digests()
    for cmd in bench_workloads.build(workload, 0, smoke, {}):
        target = tmp_path / cmd.out
        argv = [str(target) if a == "{out}" else a for a in cmd.argv]
        assert run(capsys, *argv)[0] == 0, argv
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digests[cmd.digest], argv
