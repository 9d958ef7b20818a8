"""What importing the package and running one command loads, and the lazy public names."""
import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftcrit

ROOT = Path(__file__).resolve().parents[1]


def fresh_python(code: str, *args: str) -> str:
    """Run `code` in a new interpreter on this checkout's src; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED_AFTER = """
import contextlib, io, json, sys
from shiftcrit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:  # --help
        pass
print(json.dumps(sorted(sys.modules)))
"""

SOLVER_MODULES = {"shiftcrit.solvers", "shiftcrit.sequences", "shiftcrit.fullgraph", "shiftcrit.verify"}


@pytest.mark.parametrize("argv", (("core", "3"), ("gen", "9"), ("diagram", "3"), ("--help",)),
                         ids=" ".join)
def test_export_commands_load_no_solver_and_no_numpy(argv):
    loaded = set(json.loads(fresh_python(LOADED_AFTER, *argv)))
    assert "shiftcrit.cli" in loaded
    assert not loaded & (SOLVER_MODULES | {"numpy"}), sorted(loaded & (SOLVER_MODULES | {"numpy"}))


def test_chi_loads_no_verify_and_no_diagram():
    loaded = set(json.loads(fresh_python(LOADED_AFTER, "chi", "5")))
    assert "shiftcrit.solvers" in loaded
    assert not loaded & {"shiftcrit.verify", "shiftcrit.diagram", "numpy"}


@pytest.mark.parametrize("argv", (("verify", "1", "--n", "2"), ("verify", "2", "--n", "2"),
                                  ("verify", "3", "--n", "2"), ("verify", "formula", "--n", "9")),
                         ids=" ".join)
def test_verify_commands_load_no_numpy(argv):
    # each of these runs the bulk goodness check of `fullgraph`
    loaded = set(json.loads(fresh_python(LOADED_AFTER, *argv)))
    assert {"shiftcrit.fullgraph", "shiftcrit.verify"} <= loaded
    assert "numpy" not in loaded


def test_importing_the_package_loads_no_submodule():
    loaded = json.loads(fresh_python(
        "import json, sys, shiftcrit; print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in loaded if m.startswith("shiftcrit")] == ["shiftcrit"]
    assert "numpy" not in loaded


def test_every_public_name_is_its_submodules_object():
    assert len(shiftcrit.__all__) == len(set(shiftcrit.__all__)) > 50
    for name in shiftcrit.__all__:
        module = importlib.import_module(f"shiftcrit.{shiftcrit._SOURCE[name]}")
        assert getattr(shiftcrit, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    listed = dir(shiftcrit)
    assert set(shiftcrit.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from shiftcrit import *", namespace)
    assert set(shiftcrit.__all__) <= set(namespace)
    assert namespace["chromatic_number"] is shiftcrit.solvers.chromatic_number


def test_submodules_and_version_stay_reachable():
    from shiftcrit import solvers
    assert solvers is shiftcrit.solvers is sys.modules["shiftcrit.solvers"]
    assert shiftcrit.cli.main is sys.modules["shiftcrit.cli"].main
    assert shiftcrit.__version__ == "0.1.0"


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'shiftcrit' has no attribute 'nope'$"):
        shiftcrit.nope
    with pytest.raises(ImportError):
        exec("from shiftcrit import nope", {})
    with pytest.raises(AttributeError, match="^module 'shiftcrit.cli' has no attribute 'nope'$"):
        shiftcrit.cli.nope


# the benchmark tracer's pattern: setattr a wrapper on shiftcrit.cli before any
# command has run, and rely on the commands looking the name up at call time
WRAPPED_BEFORE_FIRST_COMMAND = """
import hashlib, json, sys
from shiftcrit import cli

out = sys.argv[1]
calls = {}
originals = {name: getattr(cli, name) for name in ("chromatic_number", "critical_core")}

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper

def digests():
    got = []
    for argv in (["chi", "5"], ["core", "3"]):
        assert cli.main(argv + ["--out", out]) == 0
        with open(out, "rb") as fh:
            got.append(hashlib.sha256(fh.read()).hexdigest())
    return got

for name, fn in originals.items():
    setattr(cli, name, counting(name, fn))
wrapped = digests()
for name, fn in originals.items():
    setattr(cli, name, fn)
restored = digests()
print(json.dumps({"calls": calls, "wrapped": wrapped, "restored": restored,
                  "same": all(getattr(cli, n) is fn for n, fn in originals.items())}))
"""


def sha256_of_json(obj) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_wrappers_set_before_the_first_command_are_called(tmp_path):
    out = fresh_python(WRAPPED_BEFORE_FIRST_COMMAND, str(tmp_path / "out.json"))
    result = json.loads(out.splitlines()[-1])
    # chi 5 solves once; core 3 builds its core once; nothing runs after restoring
    assert result["calls"] == {"chromatic_number": 1, "critical_core": 1}
    assert result["wrapped"] == result["restored"] == [
        sha256_of_json(shiftcrit.chromatic_number(shiftcrit.build_shift_graph(5)).to_json_dict()),
        sha256_of_json(shiftcrit.critical_core(3).to_json_dict()),
    ]
    assert result["same"] is True


# names a module imports only for callers that look them up there: the
# benchmark's tracer wraps the two exports in `cli` and `is_good` in `solvers`
REEXPORTS = {
    "cli": {"graph_to_json_dict", "to_dimacs"},
    "solvers": {"is_good"},
}


def unused_imports(source: str) -> set[str]:
    """Module-level import names that nothing else in the source mentions."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_unused_import_finder_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "from x import a, b as c, d\nprint(a, os)\ndef f() -> d: ...\n")
    assert unused_imports(source) == {"c"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "shiftcrit").glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_module_import_is_used(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == REEXPORTS.get(path.stem, set())
