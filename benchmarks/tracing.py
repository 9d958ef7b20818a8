"""Spans around the calls into each shiftcrit module, and per-layer metrics.

``Tracer.install`` replaces functions at the names their callers look
them up (``shiftcrit.cli.chromatic_number``, ``shiftcrit.solvers.k_colorable_bb``
and so on) with wrappers that record a span: name, start, end, parent
span and run id.  Spans stay in memory until ``dump``.  ``uninstall``
puts the originals back.  ``layer_metrics`` turns the spans of one run
into the per-layer numbers; a layer's self time is its span durations
minus the durations of their direct children.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); each name is looked up by its callers at call time
WRAPPED = (
    ("shiftcrit.cli", "main", "cli.main"),
    ("shiftcrit.cli", "cmd_gen", "cli.cmd"),
    ("shiftcrit.cli", "cmd_core", "cli.cmd"),
    ("shiftcrit.cli", "cmd_chi", "cli.cmd"),
    ("shiftcrit.cli", "cmd_verify", "cli.cmd"),
    ("shiftcrit.cli", "cmd_diagram", "cli.cmd"),
    ("shiftcrit.cli", "_emit", "cli.emit"),
    ("shiftcrit.cli", "build_shift_graph", "graphs.build"),
    ("shiftcrit.cli", "critical_core", "graphs.build"),
    ("shiftcrit.cli", "graph_to_json_dict", "graphs.export"),
    ("shiftcrit.cli", "to_dimacs", "graphs.export"),
    ("shiftcrit.cli", "render_svg", "diagram.render"),
    ("shiftcrit.cli", "chromatic_number", "solvers.chromatic"),
    ("shiftcrit.cli", "verify_criticality", "verify.criticality"),
    ("shiftcrit.cli", "verify_core_chromatic", "verify.core_chromatic"),
    ("shiftcrit.cli", "verify_uniqueness", "verify.uniqueness"),
    ("shiftcrit.cli", "verify_chromatic_formula", "verify.formula"),
    ("shiftcrit.verify", "build_shift_graph", "graphs.build"),
    ("shiftcrit.verify", "critical_core", "graphs.build"),
    ("shiftcrit.verify", "construct_deleted_vertex_sequence", "sequences.construct"),
    ("shiftcrit.verify", "full_graph_min_coloring_is_proper", "sequences.proper_check"),
    ("shiftcrit.verify", "full_graph_goodness_violation", "sequences.goodness"),
    ("shiftcrit.verify", "coloring_from_sequence", "sequences.coloring"),
    ("shiftcrit.verify", "k_colorable_via_sequences", "solvers.seq"),
    ("shiftcrit.verify", "k_colorable_bb", "solvers.bb"),
    ("shiftcrit.verify", "chromatic_number", "solvers.chromatic"),
    ("shiftcrit.solvers", "k_colorable_via_sequences", "solvers.seq"),
    ("shiftcrit.solvers", "k_colorable_bb", "solvers.bb"),
    ("shiftcrit.solvers", "greedy_coloring", "solvers.greedy"),
    ("shiftcrit.solvers", "coloring_from_sequence", "sequences.coloring"),
    ("shiftcrit.solvers", "proper_coloring_violation", "sequences.coloring"),
    ("shiftcrit.solvers", "is_good", "sequences.goodness"),
    ("shiftcrit.sequences", "full_graph_goodness_violation", "sequences.goodness"),
)


def _search_info(args, result):
    return {"nodes": result.nodes, "prunes": result.prunes,
            "inconclusive": result.decision == "inconclusive"}


def _export_info(args, result):
    if isinstance(result, dict):
        return {"edges": result["edge_count"]}
    header = result[result.index("\np edge "):].split("\n", 2)[1]
    return {"edges": int(header.split()[3])}


# what each kind of span records from its call, outside the timed interval
INFO = {
    "solvers.seq": _search_info,
    "solvers.bb": _search_info,
    "graphs.export": _export_info,
    "cli.emit": lambda args, result: {"bytes": len(args[0].encode("utf-8"))},
    "diagram.render": lambda args, result: {"bytes": len(result.encode("utf-8"))},
    "verify.criticality": lambda args, result: {"checks": len(result.checks)},
    "verify.core_chromatic": lambda args, result: {"checks": len(result.checks)},
}


class Tracer:
    """Records spans as lists [name, start, end, parent index, run id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for modname, attr, name in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, info_of = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info_of is not None:
                span[5] = info_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def tail_percentile(values):
    """(label, value) for the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, -(-len(vals) * p // 100))  # nearest rank, ceil(n * p / 100)
        if len(vals) - rank >= 10:
            return f"p{p:g}", vals[int(rank) - 1]
    return None


def call_percentiles(spans, name: str) -> dict:
    """Median and tail duration in microseconds over every span called `name`."""
    vals = sorted(s[2] - s[1] for s in spans if s[0] == name)
    if not vals:
        return {"samples": 0, "p50_us": 0.0, "tail_us": 0.0, "tail": "none"}
    label, tail = tail_percentile(vals) or ("max", vals[-1])
    return {"samples": len(vals), "p50_us": vals[(len(vals) - 1) // 2] * 1e6,
            "tail_us": tail * 1e6, "tail": label}


def layer_metrics(spans, run_id: int) -> dict:
    """Per-layer totals over the spans of one run; parents are indices into `spans`."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    info = Counter()
    child_time = defaultdict(float)
    for s in spans:
        if s[4] == run_id and s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    for idx, s in enumerate(spans):
        if s[4] != run_id:
            continue
        d = s[2] - s[1]
        total[s[0]] += d
        self_time[s[0]] += d - child_time[idx]
        calls[s[0]] += 1
        for key, value in (s[5] or {}).items():
            info[f"{s[0]}.{key}"] += value

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {
        "graphs.build_s": total["graphs.build"],
        "graphs.export_s": total["graphs.export"],
        "graphs.export_edges_per_s": per_s(info["graphs.export.edges"], total["graphs.export"]),
        "sequences.goodness_s": total["sequences.goodness"],
        "sequences.coloring_s": total["sequences.coloring"],
    }
    for key, name in (("construct", "sequences.construct"),
                      ("proper_check", "sequences.proper_check")):
        m[f"sequences.{key}.calls"] = calls[name]
        m[f"sequences.{key}_s"] = total[name]
    for eng in ("seq", "bb"):
        name = f"solvers.{eng}"
        nodes, prunes = info[f"{name}.nodes"], info[f"{name}.prunes"]
        m[f"{name}.queries"] = calls[name]
        m[f"{name}.nodes"] = nodes
        m[f"{name}.prunes"] = prunes
        m[f"{name}.busy_s"] = total[name]
        m[f"{name}.nodes_per_s"] = per_s(nodes, total[name])
        m[f"{name}.prune_ratio"] = prunes / nodes if nodes else 0.0
        m[f"{name}.inconclusive"] = info[f"{name}.inconclusive"]
    m["solvers.greedy_s"] = total["solvers.greedy"]
    m["solvers.chromatic.self_s"] = self_time["solvers.chromatic"]
    m["verify.criticality.self_s"] = self_time["verify.criticality"]
    m["verify.core_chromatic.self_s"] = self_time["verify.core_chromatic"]
    m["verify.checks"] = (info["verify.criticality.checks"]
                          + info["verify.core_chromatic.checks"])
    m["cli.busy_s"] = total["cli.main"]  # every command of the pass, end to end
    m["cli.self_s"] = sum(self_time[k] for k in ("cli.main", "cli.cmd", "cli.emit"))
    m["cli.bytes_written"] = info["cli.emit.bytes"]
    m["diagram.render_s"] = total["diagram.render"]
    m["diagram.bytes"] = info["diagram.render.bytes"]
    return m
