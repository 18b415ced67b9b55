#!/usr/bin/env python3
"""Compare two gqs_bench binaries in alternating pairs of runs.

Usage:
    python3 scripts/bench_pair.py PARENT_BIN CHANGE_BIN [--pairs K]
        [--workload W ...] [--seed N] [--seconds S] [--json OUT]

For each workload (every workload of BENCHMARK.json unless --workload
names some) it runs K pairs (10 by default) of

    gqs_bench --workload W --seed N --seconds S --trace 0

one run of each binary per pair, alternating which side runs first, at
BENCHMARK.json's run_seconds unless --seconds says otherwise. For every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the change/parent ratio of the medians, how many pairs the
change won (ties count for neither side) and whether a gain stands: the
change wins at least nine tenths of the pairs and the medians differ, in
the metric's better direction, by more than the distance between the
parent's quartiles. Both sides must report correct results, or the script
stops and exits 1. A refactor prints the same digest and deterministic
block on both sides. A change that moves protocol behaviour prints DIFFER
for the workloads it moves and the script exits 1 once every pair has run;
their metric rows still stand as the comparison. --json writes every
run's metrics.

Stdlib only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_one(binary, workload, seed, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary} {workload}: printed nothing "
                           f"(exit {proc.returncode})")
    out = json.loads(lines[-1])
    if proc.returncode != 0 or not out["correct"]:
        raise RuntimeError(f"{binary} {workload}: incorrect result "
                           f"(exit {proc.returncode}): {out.get('why', '')}")
    return out


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(metric, parent, change):
    """The summary of one metric over paired runs."""
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    pq, cq = quartiles(parent), quartiles(change)
    gap = cq[1] - pq[1] if higher else pq[1] - cq[1]
    return {
        "parent": pq, "change": cq,
        "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
        "wins": wins, "pairs": len(parent),
        "gain": 10 * wins >= 9 * len(parent) and gap > pq[2] - pq[0],
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent's gqs_bench")
    p.add_argument("change", type=Path, help="the change's gqs_bench")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--json", type=Path, help="write every run's metrics")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    binaries = {"parent": args.parent, "change": args.change}
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    same = True
    for workload in args.workload or names:
        runs = {side: [] for side in SIDES}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_one(binaries[side], workload,
                                          args.seed, args.seconds))
                print(f"{workload} pair {k + 1}/{args.pairs} {side} done",
                      file=sys.stderr, flush=True)
        ref = {side: (runs[side][0]["digest"], runs[side][0]["deterministic"])
               for side in SIDES}
        equal = ref["parent"] == ref["change"]
        same &= equal
        print(f"== {workload}: {args.pairs} pairs, seed {args.seed}, "
              f"{args.seconds:g} s; digests and deterministic blocks "
              f"{'equal' if equal else 'DIFFER'}")
        print(f"  {'metric':14s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'ratio':>7s} "
              f"{'wins':>6s}  gain")
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = {side: [r["metrics"][name] for r in runs[side]]
                      for side in SIDES}
            c = compare(metric, series["parent"], series["change"])
            rows[name] = dict(c, runs=series)
            print(f"  {name:14s} {spread(c['parent']):>34s} "
                  f"{spread(c['change']):>34s} {c['ratio']:7.3f} "
                  f"{c['wins']:>3d}/{c['pairs']:<2d}  "
                  f"{'yes' if c['gain'] else 'no'}")
        record["workloads"][workload] = {"digests_equal": equal,
                                         "metrics": rows}
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError) as e:
        print(f"bench_pair: {e}", file=sys.stderr)
        sys.exit(1)
