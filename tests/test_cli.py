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
from shiftcrit.diagram import render_svg
from shiftcrit.export import core_to_json_dict, graph_to_json_dict
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


def test_chi_inconclusive_exit(capsys, tmp_path):
    code, out, _ = run(capsys, "chi", "9", "--max-nodes", "3")
    assert code == 3 and "inconclusive" in out
    # the --out document keeps the queries that ran out
    target = tmp_path / "chi9.json"
    code, _, _ = run(capsys, "chi", "9", "--max-nodes", "3", "--out", str(target))
    assert code == 3
    doc = json.loads(target.read_text())
    assert doc["chi"] is None and doc["conclusive"] is False
    assert doc["coloring"] is None and doc["refutation"] is None
    assert [(q["engine"], q["k"], q["decision"]) for q in doc["queries"]] == [
        ("sequence", 3, "inconclusive"), ("bb", 3, "inconclusive")]


def test_chi_usage_errors(capsys):
    code, _, err = run(capsys, "chi")
    assert code == 2 and "exactly one target" in err
    code, _, err = run(capsys, "chi", "5", "--core", "2")
    assert code == 2
    code, _, err = run(capsys, "chi", "5", "--delete", "1,9")
    assert code == 2 and "(1,9) is not a vertex of ShiftGraph(n_points=5)" in err
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
    assert cert["nodes"] == 68_560


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


def test_diagram_passes_cell_size_and_no_hyperbola_through(capsys, tmp_path):
    expected = render_svg(3, 20, hyperbola=False)
    assert expected not in (render_svg(3, 20), render_svg(3, hyperbola=False))  # each flag shows
    code, out, _ = run(capsys, "diagram", "3", "--cell-size", "20", "--no-hyperbola")
    assert code == 0 and out == expected
    target = tmp_path / "core.svg"
    code, out, _ = run(capsys, "diagram", "3", "--cell-size", "20", "--no-hyperbola",
                       "--out", str(target))
    assert code == 0 and out == "" and target.read_text() == expected


def test_diagram_out_of_range(capsys):
    code, _, err = run(capsys, "diagram", "9")
    assert code == 2 and "2 <= n <= 8" in err


def test_unwritable_path_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "5", "--out", str(tmp_path / "no" / "x"))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("theorem", ("1", "3"))
def test_core_chromatic_past_the_color_limit_fails_before_building(capsys, monkeypatch, theorem):
    def built(*args):
        raise AssertionError("the upper-bound sequence was built")

    monkeypatch.setattr(verify, "descending_full_sequence", built)
    code, _, err = run(capsys, "verify", theorem, "--n", "20")
    assert code == 2 and "at most 12" in err


def test_nan_time_budget_is_a_usage_error(capsys):
    # NaN fails every comparison, so it would silently switch the time budget off
    code, _, err = run(capsys, "verify", "3", "--n", "2", "--max-seconds", "nan")
    assert code == 2 and "max_seconds=nan" in err


def test_inf_time_budget_means_no_limit(capsys):
    assert run(capsys, "chi", "5", "--max-seconds", "inf")[0] == 0


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
             (("core", "3"), dumps(core_to_json_dict(critical_core(3)))))
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
    assert target.read_bytes() == dumps(core_to_json_dict(critical_core(2))).encode("utf-8")
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


# (sha256 of the --out bytes, sha256 of the same document with every
# "nodes" and "prunes" key dropped) for commands whose searches never ran
# in the saturated mode the sequence engine once had; an SVG has no keys
# to drop.  The first digests of chi 9-14, chi --core 3, the chi --core 4
# --delete rows, verify 2 --n 3 and verify 3 --n 3 were re-recorded when
# the failure memo came to be keyed by the search state alone: that
# skips more exhausted subtrees, so node and prune counts fell.  Their
# counts-free digests were recorded before that change and still hold.
# The first digests of chi 2-14, chi --core 2 and 3, the chi --core 4
# --delete rows and verify 2 --n 3 were re-recorded again when branch and
# bound stopped precoloring a greedy clique: it colors those two vertices
# in its own first two nodes, so its node and prune counts rose by one or
# two per query.  Every counts-free digest held.
GOLDEN_OUT_SHA256 = {
    ("chi", "2"):
        ("b29d8d6689405d896fe7b9c664815b8f5595b4e77307490e9dbd3c38180f0248",
         "b19381daa8a79ce83ecdcca901ae9ebe7d35c4ef6f50d42e36c69044141d4021"),
    ("chi", "3"):
        ("e11e1397ce98574f3cee51e811912f5f5acf109ad9ade0e49bfeb81d002b1095",
         "a22066ff8d3c5a8c54ef3800b85a0570f6cd7c6f8bdc8197f2229ee718834c98"),
    ("chi", "4"):
        ("8c44d0060f83f0d47f99a935e295c9770e46654c9ce4906fe2225bf9da5de5ed",
         "a2353d02ed10024872469d8b23e94c5887f1470b17872465f0a0254c977a6d4b"),
    ("chi", "5"):
        ("91832d2cfb44f16e0f2a5860f22e4d0d8b2350cf7a5294b27b4db36b5df94a22",
         "ccd2db5fc8afc16b6f0aa9aed031cc0273d7e65d0a696282d8e7fc25f1c5d68d"),
    ("chi", "6"):
        ("f68dab1a37e55b15ce691949cd527f36f36b68e8fba2b2c00c9d955ae6d567ad",
         "a4d7e8d362d9f947542e7b03937938566516afaf731c24c49a49087828fb0921"),
    ("chi", "7"):
        ("4c9add00a99b25f3490ccc65e09132b773ae3decf60b05730d8f707cdf300c73",
         "68b03c06702eaaff6efa1601334c8c310445ad8c3b69c88649279be60f123d62"),
    ("chi", "8"):
        ("ce3f80c2582baff86df59c1b156024ace43b61f7d08685e024d9d724d2356052",
         "3418e2b11d5c4bdef3e969b572440708daa20417eb5c4ab10ecb607c1502513e"),
    ("chi", "9"):
        ("49b73879d44d8bd571a94212373999ffb43cdbdbaa585e893ff475610ea6fbe1",
         "5e6673d3c4c4b6971149737f296dc61f5017f887d5ef30cceb3745dba9047729"),
    ("chi", "10"):
        ("962f6cfd8ec02ca2e4936478be8114674b19cdeb2ee6e738c035804f393896ca",
         "bc5006bfc342d441b8f64ba2e81ae70f218c300aa98df7dfe530631b27d779d8"),
    ("chi", "11"):
        ("2571339b1b4d02a58a8b44b3e03b42842764d8969949bd55e49dd5c44a4047d7",
         "40adda69e047c7d80382450ab574e10ff2c1a02531d2d41ca886b0e91035d512"),
    ("chi", "12"):
        ("9f5d0efc52dd53f19ec931ebb91902cfa3292d61b68750d3332c31806539fce9",
         "dda1c0ab140bff27b007b8ab00e946358ec10d020e89c406d3a07506655d0112"),
    ("chi", "13"):
        ("a568dfd92af63032736202360bfa9b351fa175348445dd9267865b2a0b20a59d",
         "b73d799f47c4a04fa5576c35e8b434343f48d97f2f45fc9ba7adcf3f810ca28e"),
    ("chi", "14"):
        ("e1b30cc991e21624068ab247a805a05ba7896680e5607679e78c224c07dd3c02",
         "866470c278faa086b50dc6bf67922ad67bf0dcfeb8ec8e405234643d0602ede7"),
    ("chi", "--core", "4", "--delete", "2,7"):
        ("678201f66a87410cb33253d1fa21db44554838719d4f4aa205ff5d66d5f62f76",
         "062c07245f314301c83ad6a5640b39a5d00fe3ac76e4044ce4016ba8d5f61941"),
    ("chi", "--core", "4", "--delete", "2,6"):
        ("73fc31741c08e91097a13ef63bcba0895aab59ebd5a46c8db097391bc03a2f23",
         "519a937b7777e7a4cbb0a18a67e6b2edb8964b4e7bdfc0bd8563266f39be67fa"),
    ("chi", "--core", "4", "--delete", "9,11"):
        ("c8921556cbb114ec0dde562973d5892366f2becc51bcd325a43ce962f2550c37",
         "9c22233d1b2b80be1133f8b5f23f5b16711d56733c705f919f78d293eed53372"),
    ("chi", "--core", "4", "--delete", "12,15"):
        ("ba19d1099a46f70fd5d12a500f7d8d8edf245155fd486d29730a0f6cc2b2b6b5",
         "0353c5814f78d020cb590b5beffb55cd597a0c89a2d4fab48a160dc32c4b80d8"),
    ("chi", "--core", "4", "--delete", "4,7"):
        ("068a6a45d193dad056bebf069531d8b19ab044e502381982ed092f7bed3a015f",
         "4da046a6d2ea54da59bde239d90373e50d4c1020ad30c959a3befaa33fd6ad6b"),
    ("verify", "2", "--n", "3"):
        ("62a5120309a17fc7469719daa41f45c8aef80596977a24c534d75dc88327798a",
         "7f1c8a2cecd74c6587c64b45a4e65d2a8e102b134779f6a8e48ececf6b518307"),
    # the core as a solver view; recorded while it was solved through an
    # induced copy of its members
    ("chi", "--core", "2"):
        ("b116ce12e5388dd1da58bba4188c493c4a531f105002059efcbc5d37d4b8eac7",
         "d952478747043ab04138839c9751d2bce49d9b1c4e9a9b586767e03375598ccf"),
    ("chi", "--core", "3"):
        ("4b3d3e999ec8b00ac1ab5464031dc1e0655ebf5b2826379a5ec49ed22b73da85",
         "37e9981fe9aba6192a0ea2be2dbdc39d9075ff783ba19439cf771cf88292739e"),
    # re-recorded when the enumeration row's method text named the subset DP
    ("verify", "1", "--n", "2"):
        ("fa1662de02ff58707d9627a780e61b47c1b49ec5cc6f6753b9293f18e8c9011e",
         "5ced68353d66c5783197f5d6a02920df6c1e898514ee002fd2bf255b18e90e5a"),
    ("verify", "3", "--n", "3"):
        ("b497ddebf4553ff62d6893548cd3a63078459dedf63f5c2c8cb5af07ccde458d",
         "3779524669a41208407b6ebcc6878271d7132a48c96d6a7be3d61fd5fbaf6a7c"),
    # criterion 6's refutation of W(4) at k = 4
    ("verify", "3", "--n", "4", "--max-nodes", "2000000"):
        ("d772e948c73f8bd88d21de0104b8a43e959921fe66d258ca54142c43ed5273cb",
         "6eae9b90852f049a5193b5b57ae656dd216b2e0d38f61de1a233c2d40548e968"),
    # the export workload's SVG
    ("diagram", "6"):
        ("189486d906332e02c89800586f3ce96ea2495a80b217652a16cd9eea3f1ec5d5",
         "189486d906332e02c89800586f3ce96ea2495a80b217652a16cd9eea3f1ec5d5"),
}


def without_counts(doc):
    """The JSON document with every "nodes" and "prunes" key dropped, at any depth."""
    if isinstance(doc, dict):
        return {k: without_counts(v) for k, v in doc.items() if k not in ("nodes", "prunes")}
    if isinstance(doc, list):
        return [without_counts(v) for v in doc]
    return doc


@pytest.mark.parametrize("argv", list(GOLDEN_OUT_SHA256), ids=" ".join)
def test_out_bytes_match_recorded_digests(capsys, tmp_path, argv):
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(target))[0] == 0
    raw = target.read_bytes()
    counts_free = raw if argv[0] == "diagram" else json.dumps(
        without_counts(json.loads(raw)), sort_keys=True).encode()
    assert (hashlib.sha256(raw).hexdigest(),
            hashlib.sha256(counts_free).hexdigest()) == GOLDEN_OUT_SHA256[argv]


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
