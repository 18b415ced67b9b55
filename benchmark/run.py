#!/usr/bin/env python3
"""Build the benchmark driver and run the workloads named in BENCHMARK.json.

    python3 benchmark/run.py                  # every workload, untraced and traced
    python3 benchmark/run.py --seed 2         # the hold-out seed
    python3 benchmark/run.py --repeat 2       # run twice; fail on any simulated difference
    python3 benchmark/run.py --smoke          # ~1% inputs, one round each
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own process (build-bench/gqs_bench, one
simulation thread). With --workload, the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"} whose metrics
are the end-to-end ones (--trace 0) or the per-layer ones (--trace 1), each
as {"value", "unit"}. A per-layer metric of a layer the workload does not
exercise reads 0. The exit code is nonzero if the build fails or any
correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "gqs_bench"
# Deterministic values the driver reports besides the metrics: compared by
# --repeat and printed, but not metrics of BENCHMARK.json.
EXTRAS = {"latency_samples", "sim_end_s"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr.
    Compiler temporaries stay inside the build directory."""
    jobs = str(min(2, os.cpu_count() or 1))
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "gqs_bench"],
                   stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)


def run_driver(workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: driver printed nothing "
                           f"(exit {proc.returncode})")
    out = json.loads(lines[-1])
    if proc.returncode != 0 and out["correct"]:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode}")
    return out


def select_metrics(out, spec, trace):
    """The metrics of BENCHMARK.json's list for this trace mode."""
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = set(out["metrics"]) - known - EXTRAS
    if unknown:
        raise RuntimeError(f"driver emitted unknown metrics {sorted(unknown)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if trace:
            value = out["metrics"].get(m["name"], 0.0)
        elif m["name"] in out["metrics"]:
            value = out["metrics"][m["name"]]
        else:
            raise RuntimeError(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def run_checked(workload, args, trace, spec):
    """Runs the driver --repeat times; later runs must reproduce every
    simulated metric and count of the first bit for bit."""
    runs = [run_driver(workload, args.seed, args.seconds, trace, args.smoke)
            for _ in range(args.repeat)]
    first = runs[0]
    correct = all(r["correct"] for r in runs)
    for i, r in enumerate(runs):
        if not r["correct"]:
            log(f"{workload} trace={trace} run {i}: FAILED: {r['why']}")
    for i, r in enumerate(runs[1:], start=1):
        diff = sorted(k for k in set(first["deterministic"]) |
                      set(r["deterministic"])
                      if first["deterministic"].get(k) !=
                      r["deterministic"].get(k))
        if r["digest"] != first["digest"]:
            diff.append("digest")
        if diff:
            correct = False
            log(f"{workload} trace={trace} run {i} differs from run 0 "
                f"under seed {args.seed}: {diff}")
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": select_metrics(first, spec, trace),
            "extras": {k: first["deterministic"][k] for k in EXTRAS
                       if k in first["deterministic"]}}


def print_table(workload, trace, result):
    kind = "per-layer (traced slice)" if trace else "end-to-end"
    print(f"== {workload} — {kind} — "
          f"{'correct' if result['correct'] else 'INCORRECT'}, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, value in sorted(result["extras"].items()):
        print(f"  ({name:32s} {value:>16.6g})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1,
                   help="derives every input; 1 by default, 2 is held out")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.repeat < 1:
        p.error("--repeat must be >= 1")

    try:
        build()
        if args.workload:
            trace = args.trace or 0
            result = run_checked(args.workload, args, trace, spec)
            print_table(args.workload, trace, result)
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0 if result["correct"] else 1
        correct = True
        for workload in names:
            for trace in ((args.trace,) if args.trace is not None else (0, 1)):
                result = run_checked(workload, args, trace, spec)
                print_table(workload, trace, result)
                correct &= result["correct"]
        print("all workloads correct" if correct else "SOME WORKLOAD FAILED")
        return 0 if correct else 1
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
