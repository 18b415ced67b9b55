// Shared entry point for the figure-regeneration benchmarks.
//
// Each bench_*.cpp defines bench_entry() instead of main(); the harness in
// bench_main.cpp times the run and writes a JSON record to bench/out/
// (override the directory with GQS_BENCH_OUT_DIR in the environment).
// bench_entry may attach extra fields to the record — grid shapes,
// events/sec, per-cell aggregates — through gqs_bench::record*.
#pragma once

#include <cstdint>
#include <string>

// Implemented by each benchmark translation unit. Returns a process exit
// code; nonzero marks the run failed in the JSON record and the exit status.
int bench_entry();

namespace gqs_bench {

/// Attaches an extra field to this bench's JSON record (written by the
/// harness after bench_entry returns). Fields render in first-recorded
/// order; recording a key again overwrites its value in place.
void record(const std::string& key, double value);
void record(const std::string& key, std::uint64_t value);
void record(const std::string& key, const std::string& value);

/// Attaches a pre-rendered JSON value (object or array) verbatim — e.g.
/// gqs::to_json(run_aggregate) from sim/runner.hpp.
void record_json(const std::string& key, const std::string& raw_json);

}  // namespace gqs_bench
