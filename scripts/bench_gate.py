#!/usr/bin/env python3
"""Performance gate over bench/out JSON records.

Compares the gated records of the benches against a baseline and fails
(exit 1) on a regression larger than the tolerance. Baselines come from
a committed bench/baselines.json; pass --previous to use a downloaded
previous bench-out artifact instead (record-vs-record), with the
committed file as the fallback for keys the artifact lacks.

Only machine-relative ratio keys (e.g. `telemetry_overhead`, two
configurations of the same engine measured on the same host) are gated;
per-host throughputs are `info` keys, printed but never gated, since they
vary with the runner hardware (benchmark/'s gqs_bench is the throughput
surface). Every key the baseline names — gate or info — must be present
in the record; a missing one fails the gate, so the baseline cannot keep
naming records a bench no longer writes.

Override knobs (documented in README.md):
  GQS_BENCH_GATE_SKIP=1        skip the gate entirely (exit 0)
  GQS_BENCH_GATE_TOLERANCE=x   regression tolerance (default from
                               baselines.json, normally 0.20)
"""

import argparse
import json
import os
import pathlib
import sys


def load_record(records_dir: pathlib.Path, bench: str):
    path = records_dir / f"{bench}.json"
    if not path.exists():
        sys.exit(f"bench-gate: missing record {path} (did the bench run?)")
    record = json.loads(path.read_text())
    if record.get("exit_code") != 0:
        sys.exit(f"bench-gate: {bench} reported exit_code "
                 f"{record.get('exit_code')}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", default="bench/out",
                        help="directory of current bench records")
    parser.add_argument("--baseline", default="bench/baselines.json",
                        help="committed baseline file")
    parser.add_argument("--previous", default=None,
                        help="directory of a previous bench-out artifact to "
                             "use as the baseline instead")
    args = parser.parse_args()

    if os.environ.get("GQS_BENCH_GATE_SKIP") == "1":
        print("bench-gate: GQS_BENCH_GATE_SKIP=1 — skipping")
        return 0

    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    # CI forwards the knob from an Actions variable, so an unset variable
    # arrives as an empty string — treat that as "use the default".
    tolerance_env = os.environ.get("GQS_BENCH_GATE_TOLERANCE", "").strip()
    tolerance = (float(tolerance_env) if tolerance_env
                 else float(baseline.get("tolerance", 0.20)))
    records_dir = pathlib.Path(args.records)
    previous_dir = pathlib.Path(args.previous) if args.previous else None

    failures = []
    for bench, spec in baseline["benches"].items():
        record = load_record(records_dir, bench)
        previous = None
        if previous_dir is not None:
            prev_path = previous_dir / f"{bench}.json"
            if prev_path.exists():
                previous = json.loads(prev_path.read_text())

        # Every key the baseline names must exist in the record, so the
        # baseline cannot keep naming records a bench no longer writes.
        named = [*spec.get("gate", {}), *spec.get("info", [])]
        missing = {key for key in named if key not in record}
        failures += [f"{bench}.{key}: missing from record"
                     for key in named if key in missing]

        for key, committed_value in spec.get("gate", {}).items():
            if key in missing:
                continue
            current = float(record[key])
            base = committed_value
            source = "baselines.json"
            if previous is not None and key in previous:
                base = float(previous[key])
                source = "previous artifact"
            floor = base * (1.0 - tolerance)
            status = "ok" if current >= floor else "REGRESSION"
            print(f"{bench}.{key}: current={current:.4g} "
                  f"baseline={base:.4g} ({source}) floor={floor:.4g} "
                  f"[{status}]")
            if current < floor:
                failures.append(
                    f"{bench}.{key}: {current:.4g} < floor {floor:.4g} "
                    f"(baseline {base:.4g}, tolerance {tolerance:.0%})")

        for key in spec.get("info", []):
            if key not in missing:
                print(f"{bench}.{key}: {float(record[key]):.4g} (info only)")

    if failures:
        print("\nbench-gate: FAILED")
        for failure in failures:
            print(f"  {failure}")
        print("\nTo override: set GQS_BENCH_GATE_SKIP=1 (skip) or "
              "GQS_BENCH_GATE_TOLERANCE (loosen), or update "
              "bench/baselines.json with the new expected values.")
        return 1
    print("\nbench-gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
