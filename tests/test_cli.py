import json
import xml.etree.ElementTree as ET

import pytest

from shiftcrit.cli import main


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


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])
    assert exc.value.code == 2
