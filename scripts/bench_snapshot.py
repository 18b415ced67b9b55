#!/usr/bin/env python3
"""Fold the repo benchmark's per-workload results into one JSON snapshot.

Usage:
    python3 scripts/bench_snapshot.py --out BENCH_<n>.json [--runs K]

Runs `benchmark/run.py --workload W --seed S --trace T` for every workload
of BENCHMARK.json, seeds 1 and 2, and both trace modes, each at
BENCHMARK.json's run_seconds, and writes

    {"run_seconds", "host", "workloads": {W: {"seed<S>": {
        "correct", "attempted", "failed",
        "end_to_end": {metric: {value, unit}},      # --trace 0
        "per_layer":  {metric: {value, unit}}}}}}    # --trace 1

With --runs K > 1 the untraced run repeats K times per cell, and the
snapshot records "runs": K at its top level. Each end-to-end metric then
holds the median as "value", its quartiles "q1" and "q3" (bench_pair.py's
inclusive method) and every reading in "runs"; "attempted" and "failed"
are the first run's. Two snapshots can then be compared within their
recorded spread. The traced run stays single: its per-layer metrics are
deterministic counts or host timings split by layer.

A committed snapshot per change makes the benchmark's numbers a
trajectory that later changes can diff. Exits nonzero, writing nothing,
if any run fails or reports an incorrect result.

Stdlib only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from bench_pair import quartiles

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmark" / "run.py"


def run_one(workload, seed, trace, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: "
                           f"run.py exited {proc.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: "
                           "incorrect result")
    return out


def spread(runs):
    """One end-to-end cell over K untraced runs of it."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "unit": first["unit"],
                     "q1": q1, "q3": q3, "runs": values}
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--runs", type=int, default=1,
                   help="untraced runs per cell (default 1)")
    args = p.parse_args()
    if args.runs < 1:
        p.error("--runs must be at least 1")

    seconds = spec["run_seconds"]
    snapshot = {
        "run_seconds": seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "system": platform.system()},
        "workloads": {},
    }
    if args.runs > 1:
        snapshot["runs"] = args.runs
    try:
        for w in spec["workloads"]:
            per_seed = snapshot["workloads"].setdefault(w["name"], {})
            for seed in (1, 2):
                runs = [run_one(w["name"], seed, 0, seconds)
                        for _ in range(args.runs)]
                traced = run_one(w["name"], seed, 1, seconds)
                e2e = runs[0]["metrics"] if args.runs == 1 else spread(runs)
                per_seed[f"seed{seed}"] = {
                    "correct": all(r["correct"] for r in [*runs, traced]),
                    "attempted": runs[0]["attempted"],
                    "failed": runs[0]["failed"],
                    "end_to_end": e2e,
                    "per_layer": traced["metrics"],
                }
                print(f"{w['name']} seed {seed}: ops_per_s "
                      f"{e2e['ops_per_s']['value']:.6g}",
                      file=sys.stderr, flush=True)
    except (RuntimeError, ValueError, KeyError, OSError) as e:
        print(f"bench_snapshot: {e}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
