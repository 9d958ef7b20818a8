"""Command-line interface.

Subcommands: gen (emit a shift graph), core (emit the critical core),
chi (exact chromatic number with certificates), verify (run a
verification pipeline), diagram (render the core as SVG).

Exit codes: 0 success or pass, 1 verification failure, 2 usage or I/O
error, 3 inconclusive within budget or out of memory.
SHIFTCRIT_MAX_SECONDS overrides the default time budget; explicit flags
beat the environment.

Every output is streamed to stdout or to its --out file chunk by chunk,
and an --out file appears only once it is complete.

At import, this module loads only the standard library, `errors` and
`graphs`, which every command uses.  The graph exports, the solvers,
the verify pipelines and the SVG renderer load when a command first
needs one of their names, through `_need`, so `core 3` or `gen 9` never
loads a solver and `chi` never loads the exports.  No command loads
anything outside the standard library.  Commands look those
names up as globals of this module at call time: a function set here
with setattr, before or after the first command, is the one they call.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import stat
import sys

from .errors import InvalidParameterError, InvalidVertexError
from .graphs import build_shift_graph, critical_core

# the names a command imports on first use (see _need); the package knows
# the submodule of each.  graph_to_json_dict and to_dimacs are called by no
# command: they are names of this module for callers that look them up
# here, such as the benchmark's tracer, which wraps them
_LAZY = frozenset({
    "render_svg", "SearchBudget", "chromatic_number",
    "core_json_chunks", "dimacs_chunks", "graph_json_chunks", "graph_to_json_dict",
    "to_dimacs", "verify_chromatic_formula", "verify_core_chromatic",
    "verify_criticality", "verify_uniqueness",
})


def _need(*names: str) -> None:
    """Bind each of `names` in this module from the package, unless it is bound already.

    A name already bound is left alone, so a function set on this module
    (a wrapper, a test double) stays the one the commands call: they look
    each name up as a module global at call time.
    """
    g = globals()
    for name in names:
        if name not in g:
            g[name] = getattr(importlib.import_module(__package__), name)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(name)
    return globals()[name]


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_STATUS_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}

# report and certificate JSON: the same bytes as json.dumps(obj, indent=2, sort_keys=True)
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _budget(args) -> SearchBudget:
    _need("SearchBudget")
    seconds = args.max_seconds
    if seconds is None:
        env = os.environ.get("SHIFTCRIT_MAX_SECONDS")
        if env is not None:
            try:
                seconds = float(env)
            except ValueError:
                raise InvalidParameterError(
                    f"SHIFTCRIT_MAX_SECONDS must be a number, got {env!r}")
    kwargs = {}
    if args.max_nodes is not None:
        kwargs["max_nodes"] = args.max_nodes
    if seconds is not None:
        kwargs["max_seconds"] = seconds
    return SearchBudget(**kwargs)


def _write_chunks(chunks, out: str | None) -> None:
    """Stream text chunks to stdout, or atomically to the file `out`.

    A new or regular file is written under a temporary name in its
    directory and renamed onto `out` only once every chunk is written, so
    a failure leaves any earlier `out` untouched and no partial file
    behind.  A temporary name that already exists, such as one a killed
    run left, is skipped and left alone.  Anything else at `out` (a
    symlink such as /dev/stdout, a device, a pipe) is written through
    directly, as a rename would replace it.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        direct = not stat.S_ISREG(os.lstat(out).st_mode)
    except FileNotFoundError:
        direct = False
    if direct:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    head, tail = os.path.split(out)
    prefix = os.path.join(head, f".{tail}.{os.getpid()}")
    tmp, retry = f"{prefix}.tmp", 0
    while True:
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # left by a killed run whose pid this one reuses
            retry += 1
            tmp = f"{prefix}.{retry}.tmp"
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    _write_chunks((text,), out)


def _json_chunks(obj):
    yield from _JSON.iterencode(obj)
    yield "\n"


def _parse_vertex(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidParameterError(f"--delete wants 'x,y', got {text!r}")
    try:
        x, y = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidParameterError(f"--delete wants integers, got {text!r}")
    return x, y


def cmd_gen(args) -> int:
    g = build_shift_graph(args.n_points)
    _need("dimacs_chunks", "graph_json_chunks")
    chunks = dimacs_chunks(g) if args.format == "dimacs" else graph_json_chunks(g)
    _write_chunks(chunks, args.out)
    return EXIT_OK


def cmd_core(args) -> int:
    _need("core_json_chunks")
    _write_chunks(core_json_chunks(critical_core(args.n)), args.out)
    return EXIT_OK


def cmd_chi(args) -> int:
    if (args.n_points is None) == (args.core is None):
        raise InvalidParameterError("pick exactly one target: a ground size or --core n")
    if args.core is not None:
        view = critical_core(args.core)
    else:
        view = build_shift_graph(args.n_points)
    if args.delete is not None:
        v = view.require_vertex(_parse_vertex(args.delete))
        view = view.induced(w for w in view.vertices() if w != v)
    _need("chromatic_number")
    res = chromatic_number(view, _budget(args))
    print(f"chi = {res.chi}" if res.conclusive else "chi inconclusive within budget")
    if args.out is not None:
        # an inconclusive document keeps the query log up to the k that ran out
        _write_chunks(_json_chunks(res.to_json_dict()), args.out)
        print(f"certificates: {args.out}")
    return EXIT_OK if res.conclusive else EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    _need("verify_chromatic_formula", "verify_core_chromatic", "verify_criticality",
          "verify_uniqueness")
    budget = _budget(args)
    if args.theorem == "1":
        report = verify_uniqueness(args.n, budget)
    elif args.theorem == "2":
        report = verify_criticality(args.n, budget, members_only=args.members_only)
    elif args.theorem == "3":
        report = verify_core_chromatic(args.n, budget)
    else:
        report = verify_chromatic_formula(args.n, budget)
    passed = sum(1 for c in report.checks if c.status == "pass")
    print(f"theorem {report.theorem}: {report.status} "
          f"({passed}/{len(report.checks)} checks passed)")
    for c in report.checks:
        if c.status != "pass":
            print(f"  {c.status}: {c.claim}")
    for entry in report.skipped:
        print(f"  skipped: {entry['claim']}")
    if args.out is not None:
        _write_chunks(_json_chunks(report.to_json_dict()), args.out)
        print(f"report: {args.out}")
    return _STATUS_EXIT[report.status]


def cmd_diagram(args) -> int:
    _need("render_svg")
    _emit(render_svg(args.n, args.cell_size, hyperbola=not args.no_hyperbola), args.out)
    return EXIT_OK


def _add_budget_flags(p) -> None:
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node budget per solver query")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="wall-clock budget per solver query; inf means no time limit")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and never modified by parsing.

    argparse objects form reference cycles, so a parser built on every
    main() call would leave garbage that only the cyclic collector frees,
    and a process calling main() repeatedly would carry it until a full
    collection.  Subcommands are dispatched by name in main().
    """
    parser = argparse.ArgumentParser(
        prog="shiftcrit",
        description="Shift graphs, their critical cores, and certified chromatic numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a shift graph")
    p.add_argument("n_points", type=int, metavar="N")
    p.add_argument("--format", choices=("dimacs", "json"), default="dimacs")
    p.add_argument("--out", default=None)

    p = sub.add_parser("core", help="emit the critical core for exponent n")
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None)

    p = sub.add_parser("chi", help="exact chromatic number with certificates")
    p.add_argument("n_points", type=int, nargs="?", default=None, metavar="N")
    p.add_argument("--core", type=int, default=None, metavar="n",
                   help="target the core subgraph instead of the full graph")
    p.add_argument("--delete", default=None, metavar="x,y",
                   help="delete one vertex before solving")
    p.add_argument("--out", default=None, help="write certificates as JSON")
    _add_budget_flags(p)

    p = sub.add_parser("verify", help="run a verification pipeline")
    p.add_argument("theorem", choices=("1", "2", "3", "formula"))
    p.add_argument("--n", type=int, required=True,
                   help="core exponent, or max ground size for 'formula'")
    p.add_argument("--members-only", action="store_true",
                   help="criticality: skip the non-member refutations run for n <= 3")
    p.add_argument("--out", default=None, help="write the report as JSON")
    _add_budget_flags(p)

    p = sub.add_parser("diagram", help="render the core as SVG")
    p.add_argument("n", type=int)
    p.add_argument("--cell-size", type=int, default=0, metavar="PX")
    p.add_argument("--no-hyperbola", action="store_true")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a cmd_* replaced after the parser was built still runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (InvalidParameterError, InvalidVertexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; the result is inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
