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

SOLVER_MODULES = {"shiftcrit.solvers", "shiftcrit.seqsearch", "shiftcrit.dsatur",
                  "shiftcrit.sequences", "shiftcrit.fullgraph", "shiftcrit.constructions",
                  "shiftcrit.verify"}


@pytest.mark.parametrize("argv", (("core", "3"), ("gen", "9"), ("diagram", "3"), ("--help",)),
                         ids=" ".join)
def test_export_commands_load_no_solver_and_no_numpy(argv):
    loaded = set(json.loads(fresh_python(LOADED_AFTER, *argv)))
    assert "shiftcrit.cli" in loaded
    assert not loaded & (SOLVER_MODULES | {"numpy"}), sorted(loaded & (SOLVER_MODULES | {"numpy"}))
    # only gen and core write graphs
    assert ("shiftcrit.export" in loaded) == (argv[0] in ("core", "gen"))


def test_chi_loads_no_verify_and_no_diagram():
    # nor the graph exports or the constructions: chi compiles only what it runs
    loaded = set(json.loads(fresh_python(LOADED_AFTER, "chi", "5")))
    assert {"shiftcrit.solvers", "shiftcrit.seqsearch", "shiftcrit.dsatur"} <= loaded
    assert not loaded & {"shiftcrit.verify", "shiftcrit.diagram", "shiftcrit.export",
                         "shiftcrit.constructions", "numpy"}


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
# benchmark's tracer wraps `is_good` in `solvers`
REEXPORTS = {
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


def private_imports(source: str) -> set[str]:
    """Underscore-prefixed names the source imports from within the package."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if a.name.startswith("_")}


def test_private_import_finder_flags_only_package_private_names():
    source = ("from __future__ import annotations\nfrom .solvers import _a, b\n"
              "from os import _exit\ndef f():\n    from . import _c\n")
    assert private_imports(source) == {"_a", "_c"}


def test_verify_imports_only_public_names():
    # the checkers share no private helper with the code they check
    assert private_imports((ROOT / "src" / "shiftcrit" / "verify.py").read_text("utf-8")) == set()


def integer_checks(source: str) -> list[int]:
    """Lines that test for an int or a bool on their own.

    The forms are isinstance(_, int), isinstance(_, bool), `type(_) is bool`
    and operator.index; `errors.require_int` is the one place for that rule.
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            hit = any(getattr(c, "id", None) in ("int", "bool") for c in classes)
        elif isinstance(node, ast.Compare):
            hit = (isinstance(node.left, ast.Call) and getattr(node.left.func, "id", None) == "type"
                   and any(getattr(c, "id", None) == "bool" for c in node.comparators))
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "index" and getattr(node.value, "id", None) == "operator"
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "operator" and any(a.name == "index" for a in node.names)
        else:
            hit = False
        if hit:
            hits.append(node.lineno)
    return sorted(hits)


def test_integer_check_finder_flags_each_form():
    source = ("import operator\nfrom operator import index, or_\n"
              "isinstance(a, int)\nisinstance(a, (tuple, bool))\ntype(a) is bool\n"
              "operator.index(a)\ntype(a) is int\nisinstance(a, list)\nb.index(a)\n")
    assert integer_checks(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "src" / "shiftcrit").glob("*.py")
                                        if p.name != "errors.py"), ids=lambda p: p.stem)
def test_only_errors_checks_integers(path):
    assert integer_checks(path.read_text(encoding="utf-8")) == []


# the two engines share no search code (ROADMAP): each kernel module imports
# neither the other nor `solvers`, so no helper can pass between them
def package_imports(source: str) -> set[str]:
    """The shiftcrit modules a source imports, at module level or inside functions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "shiftcrit":
                    continue
                parts = parts[1:]
            found.update(parts[:1] if parts and parts[0] else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("shiftcrit."))
    return found


def test_package_import_finder_flags_each_form():
    source = ("from .sequences import a\nfrom . import solvers\nfrom shiftcrit.dsatur import b\n"
              "from shiftcrit import cli\nimport shiftcrit.graphs, os\nfrom os import path\n"
              "def f():\n    from .verify import c\n")
    assert package_imports(source) == {"sequences", "solvers", "dsatur", "cli", "graphs", "verify"}


KERNEL_LOADS = """
import json, sys
import shiftcrit.{}
print(json.dumps(sorted(sys.modules)))
"""


def test_the_two_engines_share_no_search_code():
    solvers = package_imports((ROOT / "src" / "shiftcrit" / "solvers.py").read_text("utf-8"))
    for kernel, other in (("seqsearch", "dsatur"), ("dsatur", "seqsearch")):
        source = (ROOT / "src" / "shiftcrit" / f"{kernel}.py").read_text("utf-8")
        assert not package_imports(source) & {other, "solvers"}, kernel
        loaded = set(json.loads(fresh_python(KERNEL_LOADS.format(kernel))))
        assert not loaded & {f"shiftcrit.{other}", "shiftcrit.solvers"}, kernel
        assert kernel in solvers


# a graph argument is checked once, by graphs.as_view; the goodness check's
# full-graph fast path is the one other isinstance test on a view class
VIEW_CLASSES = {"GraphView", "ReachView", "ShiftGraph", "CriticalCore", "InducedSubgraph"}


def view_checks(source: str) -> list[tuple[str, int]]:
    """(module-level function or class, line) of each isinstance(_, <view class>)."""
    hits = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any((getattr(c, "id", None) or getattr(c, "attr", None)) in VIEW_CLASSES
                       for c in classes):
                    hits.append((getattr(top, "name", ""), node.lineno))
    return hits


def test_view_check_finder_flags_each_form():
    source = ("def as_view(x):\n    return isinstance(x, GraphView)\n"
              "def f(x):\n    return isinstance(x, (list, graphs.ShiftGraph))\n"
              "class C:\n    def m(self, x):\n        return isinstance(x, InducedSubgraph)\n"
              "isinstance(y, ReachView)\nisinstance(y, list)\n")
    assert view_checks(source) == [("as_view", 2), ("f", 4), ("C", 7), ("", 8)]


def test_views_are_checked_only_by_as_view():
    found = {(path.stem, where) for path in (ROOT / "src" / "shiftcrit").glob("*.py")
             for where, _ in view_checks(path.read_text("utf-8"))}
    assert found == {("graphs", "as_view"), ("sequences", "goodness_violation")}


# a view kind states its vertex set once, as _has(v); GraphView answers
# membership, the refusal of a non-vertex and the neighbors over it
MEMBERSHIP_METHODS = {"__contains__", "require_vertex", "neighbors", "_has"}


def membership_methods(source: str) -> dict[str, set[str]]:
    """The membership methods, _has included, that each module-level class defines."""
    return {c.name: {f.name for f in c.body if isinstance(f, ast.FunctionDef)} & MEMBERSHIP_METHODS
            for c in ast.parse(source).body if isinstance(c, ast.ClassDef)}


def test_membership_method_finder_lists_each_class():
    source = ("class A:\n    def __contains__(self, v): ...\n    def degree(self, v): ...\n"
              "class B(A):\n    def _has(self, v): ...\n    x = 1\ndef neighbors(g, v): ...\n")
    assert membership_methods(source) == {"A": {"__contains__"}, "B": {"_has"}}


def test_only_graph_view_answers_membership():
    found = membership_methods((ROOT / "src" / "shiftcrit" / "graphs.py").read_text("utf-8"))
    assert {name: methods for name, methods in found.items() if methods} == {
        "GraphView": {"__contains__", "require_vertex", "neighbors"},
        "ReachView": {"_has"},
        "InducedSubgraph": {"_has"},
    }
