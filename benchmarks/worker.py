"""One workload in one fresh process: set up, run timed passes, check every output.

Started by run.py; prints one JSON object as its last stdout line.  A
pass runs each command of the workload through ``shiftcrit.cli.main``
in-process with ``--out`` into a scratch directory, and ends when the
last output has been checked.  With ``--trace 1`` the second half of the
time runs with spans recorded around every layer boundary.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from workloads import Outcome, all_failed, build, load_digests


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    return p.parse_args(argv)


def run_pass(cli, commands, scratch):
    """Run every command once and check its output; return (wall_s, cpu_s, Outcome)."""
    outcome = Outcome()
    t0, c0 = time.perf_counter(), time.process_time()
    for cmd in commands:
        path = os.path.join(scratch, cmd.out)
        argv = [path if a == "{out}" else a for a in cmd.argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            outcome.add(cmd.check(code, path))
        except (Exception, SystemExit) as e:  # a crash or unreadable output is a failed item
            outcome.add(all_failed(cmd.items, f"{' '.join(argv)}: {e!r}"))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    for name in os.listdir(scratch):
        os.remove(os.path.join(scratch, name))
    return wall, cpu, outcome


def timed_passes(cli, commands, scratch, seconds, record, tracer=None):
    """Passes for about `seconds`: at least one, and none expected to end past the deadline."""
    start = time.perf_counter()
    walls = []
    while True:
        if tracer is not None:
            tracer.run_id += 1
        wall, cpu, outcome = run_pass(cli, commands, scratch)
        record(wall, cpu, outcome, tracer.run_id if tracer else None)
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    from shiftcrit import cli

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"shiftcrit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    commands = build(args.workload, args.seed, args.smoke, load_digests())
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = []

    def record(wall, cpu, outcome, run_id):
        passes.append({"wall_s": wall, "cpu_s": cpu, "traced": run_id is not None,
                       "run_id": run_id, "items": outcome.items,
                       "conclusive": outcome.conclusive, "inconclusive": outcome.inconclusive,
                       "failed": outcome.failed, "counts": dict(outcome.counts),
                       "problems": outcome.problems[:20]})

    os.makedirs(args.out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    layers = {}
    try:
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        timed_passes(cli, commands, scratch, untraced_s, record)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            from tracing import Tracer, call_percentiles, layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                timed_passes(cli, commands, scratch, args.seconds / 2, record, tracer)
            finally:
                tracer.uninstall()
            runs = sorted({p["run_id"] for p in passes if p["traced"]})
            layers = {"per_run": [layer_metrics(tracer.spans, r) for r in runs],
                      "calls": {name: call_percentiles(tracer.spans, name)
                                for name in ("sequences.construct", "sequences.proper_check")}}
            tracer.dump(os.path.join(args.out_dir, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "passes": passes, "layers": layers,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
