"""Benchmark of the shiftcrit CLI: time to a checked verdict, per workload.

Run from the repository root:

    python3 benchmarks/run.py --workload members --seed 0 --seconds 26 --trace 0

Workloads (see workloads.py): members, refute, chi, export.  Each runs
single-threaded in a fresh worker process that drives
``shiftcrit.cli.main`` in-process; four processes before it and four
after it only set up, so that ``setup_s`` is a median.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics from a
traced run.  The last stdout line is one JSON object {correct,
attempted, failed, metrics}; the lines before it are a readable summary
with run counts, exact solver counts and the environment.  Every output
is checked by code that shares nothing with the library; the exit code
is 0 only when every check passes.  ``--smoke`` shrinks every workload
to a tiny size.  Details go to .bench_out/result-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # before the worker and again after it, to sample two stretches of time
SLACK_S = 140  # beyond --seconds, for set-up, the last pass and the checks: 166 s at 26 s
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 reproduces the documented inputs")
    p.add_argument("--seconds", type=float, default=26.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return p.parse_args(argv)


def spawn(args, out_dir, env, setup_only: bool, deadline: float) -> dict:
    """Run one worker to completion, killing it at `deadline`; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--spawned-at", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values, what: str) -> str:
    """'median of n <what>' plus the highest percentile with at least ten values beyond it."""
    tail = tail_percentile(values)
    return (f"median of {len(values)} {what}; "
            + (f"{tail[0]} {tail[1]:.6g}" if tail else "no tail percentile below 11 values"))


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def end_to_end(result, setups) -> dict:
    """End-to-end metrics, each as (value, how it was taken)."""
    plain = [p for p in result["passes"] if not p["traced"]]
    attempted = sum(p["items"] for p in result["passes"])
    conclusive = sum(p["conclusive"] for p in result["passes"])
    wall = [p["wall_s"] for p in plain]
    n = f"of {len(plain)} untraced passes"
    return {
        "setup_s": (statistics.median(setups), spread(setups, "fresh processes")),
        "wall_s": (statistics.median(wall), spread(wall, "untraced passes")),
        "cpu_s": (statistics.median(p["cpu_s"] for p in plain), f"median {n}"),
        "items_per_s": (statistics.median(p["conclusive"] / p["wall_s"] for p in plain),
                        f"conclusive items per second, median {n}"),
        "conclusive_frac": (conclusive / attempted, f"{conclusive}/{attempted} items"),
        "peak_rss_mb": (result["peak_rss_mb"], "worker process, untraced passes"),
    }


def per_layer(result, plain_wall_s: float) -> dict:
    """Per-layer metrics as (value, note): medians over traced passes, counts exact."""
    runs = result["layers"]["per_run"]
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        if isinstance(values[-1], int):
            out[name] = (values[-1], "exact, last traced pass")
        else:
            out[name] = (statistics.median(values), f"median of {len(runs)} traced passes")
    for name, c in result["layers"]["calls"].items():
        note = f"over {c['samples']} calls"
        out[f"{name}_us_p50"] = (c["p50_us"], f"p50 {note}")
        out[f"{name}_us_tail"] = (c["tail_us"], f"{c['tail']} {note}")
    traced_wall = [p["wall_s"] for p in result["passes"] if p["traced"]]
    out["trace.overhead_s"] = (statistics.median(traced_wall) - plain_wall_s,
                               "traced minus untraced median wall_s")
    return out


def count_drift(passes) -> list:
    """Passes whose exact counts differ from the pass before: a sign of nondeterminism."""
    return [i for i in range(1, len(passes)) if passes[i]["counts"] != passes[i - 1]["counts"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shiftcrit", "cli.py")):
        print("error: run from the repository root; src/shiftcrit is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    out_dir = os.path.join(root, ".bench_out")
    env = dict(os.environ, **{k: "1" for k in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    environment = {"nproc": len(os.sched_getaffinity(0)),
                   "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
                   "threads": "BLAS/OpenMP pinned to 1"}
    deadline = time.monotonic() + args.seconds + SLACK_S
    try:
        setups = [spawn(args, out_dir, env, True, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = spawn(args, out_dir, env, False, deadline)
        setups += [spawn(args, out_dir, env, True, deadline)["setup_s"]
                   for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    environment.update(python=result["python"], numpy=result["numpy"])

    passes = result["passes"]
    drift = count_drift(passes)
    attempted = sum(p["items"] for p in passes)
    inconclusive = sum(p["inconclusive"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(drift)
    e2e = end_to_end(result, setups)
    e2e["inconclusive_frac"] = (inconclusive / attempted, f"{inconclusive}/{attempted} items")
    e2e["failed_frac"] = (failed / attempted, f"{failed}/{attempted} items, must stay 0")
    units = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "inconclusive_frac": "1",
             "failed_frac": "1", **{m["name"]: m["unit"] for m in spec["end_to_end"]}}

    lines = [f"workload {args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}: "
             f"{sum(not p['traced'] for p in passes)} untraced passes, "
             f"{sum(p['traced'] for p in passes)} traced, {attempted} items attempted",
             "environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()),
             "end to end:"]
    lines += [f"  {name:34s} {fmt(v)} {units[name]}  ({note})" for name, (v, note) in e2e.items()]
    if passes[-1]["counts"]:
        lines.append("exact counts per pass, from the --out records: " + ", ".join(
            f"{k}={v}" for k, v in sorted(passes[-1]["counts"].items())))
    lines.append(f"count drift between passes: {drift or 'none'}")
    lines += [f"  FAILED CHECK: {problem}" for p in passes for problem in p["problems"]]
    layer = {}
    if args.trace:
        layer = per_layer(result, e2e["wall_s"][0])
        lines.append("per layer:")
        lines += [f"  {m['name']:34s} {fmt(layer[m['name']][0])} {m['unit']}  "
                  f"({layer[m['name']][1]})" for m in spec["per_layer"]]
    print("\n".join(lines))

    with open(os.path.join(out_dir, f"result-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": environment, "setups_s": setups, "count_drift": drift,
                   "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "per_layer": {k: v for k, (v, _) in layer.items()}, **result},
                  fh, indent=1, sort_keys=True)
    chosen, values = (spec["per_layer"], layer) if args.trace else (spec["end_to_end"], e2e)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in chosen},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
