// runner.hpp — parallel experiment runner over independent simulations.
//
// A bench or test declares a grid of cells (protocol factory × fault plan
// × seed); each cell is a closure that builds and drives its *own*
// simulation from scratch and returns a run_result. The runner fans the
// cells across a std::thread pool and hands results back in cell order.
//
// Determinism contract: a simulation run is a pure function of its
// construction arguments, cells share no state, and results land in a
// pre-sized vector by cell index — so everything except wall_ms is
// bit-identical for any thread count (tests/runner_test.cpp holds the
// engine to this).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "workload/stats.hpp"

namespace gqs {

/// Outcome of one grid cell. Every field except wall_ms is a pure
/// function of the cell spec.
struct run_result {
  bool ok = true;
  std::string error;                 ///< exception text when !ok
  sim_metrics metrics;               ///< final simulator counters
  sim_time sim_end = 0;              ///< virtual clock when the run ended
  std::vector<double> latencies_us;  ///< per-operation latencies
  /// Bytes carried per loaded link (simulation::channels().per_link_bytes();
  /// empty when the bandwidth model is off). Folded like latencies so
  /// aggregates expose the byte-imbalance across links.
  std::vector<double> link_bytes;
  std::map<std::string, double> stats;  ///< protocol-specific outputs
  /// Telemetry snapshot (simulation::obs().metrics.snapshot(); empty when
  /// the run's telemetry is off). Mergeable — aggregation is exact.
  metrics_snapshot obs;
  /// Time-series captured by the run's sampler (empty when off).
  std::vector<timeseries_sampler::series> series;
  double wall_ms = 0;  ///< host time (excluded from determinism)
};

/// One cell of an experiment grid: a label plus a closure that builds and
/// drives its own simulation.
struct run_spec {
  std::string label;
  std::function<run_result()> run;
};

/// Aggregate view of a set of results (e.g. all repetitions of one cell,
/// or a whole grid).
struct run_aggregate {
  std::size_t runs = 0;
  std::size_t failed = 0;  ///< cells with ok == false
  sim_metrics totals;
  sample_summary latency_us;
  sample_summary link_bytes;  ///< per-link byte distribution (channel runs)
  /// Telemetry snapshots merged in spec order (counters sum, so the
  /// sim.* rows equal `totals`); bit-identical at any thread count.
  metrics_snapshot obs;
  double wall_ms = 0;         ///< summed across cells (CPU-seconds-ish)
  double events_per_sec = 0;  ///< totals.events_processed per wall second
};

/// The outcome of check_determinism: the grid's results at the first
/// thread count, and the first violation of the determinism contract.
struct determinism_report {
  std::vector<run_result> results;
  std::string error;  ///< empty when every cell passed

  bool ok() const noexcept { return error.empty(); }
};

/// Stat lookup that tolerates failed cells: a cell whose closure threw
/// comes back with ok == false and an empty stats map, and report code
/// must not crash on it.
inline double stat_or(const run_result& r, const std::string& key,
                      double fallback = 0) {
  const auto it = r.stats.find(key);
  return it == r.stats.end() ? fallback : it->second;
}

/// Folds results into totals; latencies are merged and re-summarized.
run_aggregate aggregate(const std::vector<run_result>& results);

/// Renders an aggregate as a JSON object (for bench records).
std::string to_json(const run_aggregate& a);

/// Runs `specs` once at each of `thread_counts` and holds every cell to
/// the determinism contract: it must come back ok, and equal in every
/// field except wall_ms to its result at the first thread count. The
/// error names the first cell that failed (label and error text) or that
/// differs (label, both thread counts and the first differing field).
determinism_report check_determinism(const std::vector<run_spec>& specs,
                                     const std::vector<unsigned>& thread_counts);

/// Deterministically derives the seed of grid cell (config, plan, rep)
/// from a base seed (splitmix64 over the coordinates), decorrelating
/// neighboring cells.
std::uint64_t grid_seed(std::uint64_t base, std::size_t config,
                        std::size_t plan, std::size_t rep);

/// Reads environment variable `name` as a decimal count. Unset or empty
/// yields std::nullopt (CI forwards an unset knob as an empty string).
/// Anything else must be plain decimal digits with a value ≤ max: a sign,
/// a suffix, letters or an overflow throw std::invalid_argument naming
/// the variable.
std::optional<std::uint64_t> env_count(
    const char* name,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The thread pool. Each run_all call spins up at most `threads` workers
/// that pull cells off a shared atomic counter.
class experiment_runner {
 public:
  /// threads == 0 resolves to $GQS_RUNNER_THREADS if set and nonzero
  /// (parsed by env_count, so a malformed value throws), otherwise
  /// std::thread::hardware_concurrency().
  explicit experiment_runner(unsigned threads = 0);

  unsigned threads() const noexcept { return threads_; }

  /// Executes every spec and returns results in spec order. Exceptions
  /// escaping a cell are captured into its result (ok = false), never
  /// thrown across threads.
  std::vector<run_result> run_all(const std::vector<run_spec>& specs) const;

 private:
  unsigned threads_;
};

}  // namespace gqs
