// bench.hpp — shared pieces of the benchmark driver: the host-time layer
// clock, the per-pass result record, and the workload table.
//
// Every layer is measured from outside the library: the driver times its
// own calls into public entry points and reads the counters and spans the
// library already keeps. Nothing here feeds back into a simulation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace bench {

/// Host-time buckets of a traced pass. The first five are layers of a
/// simulated workload; the last three split the plan-corpus pipeline.
enum class layer : std::uint8_t {
  sim,        ///< engine self time: the event loop outside every callback
  quorum,     ///< quorum service incl. flooding relays and transport
  smr,        ///< sharded SMR service incl. flooding relays and transport
  workload,   ///< workload driver + adapter (completion bookkeeping)
  lincheck,   ///< streaming linearizability checker hooks
  solve,      ///< existence_solver construction + solve()
  verify,     ///< check_generalized on a witness
  plan,       ///< plan_optimal on a witness
};
inline constexpr std::size_t kLayers = 8;

/// Attributes wall time to the innermost open layer: entering a scope
/// charges the time since the last transition to the enclosing layer, and
/// leaving it charges the scope's own layer. Nested scopes therefore
/// subtract from their parent, and the self times sum to the time between
/// start() and lap(). Re-entering the layer already on top costs no clock
/// read. Scopes may only open between start() and the clock's destruction.
class layer_clock {
 public:
  using clock = std::chrono::steady_clock;

  void start(layer root) {
    stack_.assign(1, root);
    last_ = clock::now();
  }
  /// Seconds charged to each layer since start(), up to now.
  std::array<double, kLayers> lap() {
    charge(stack_.back());
    return self_;
  }
  void enter(layer l) {
    if (stack_.back() != l) charge(stack_.back());
    stack_.push_back(l);
  }
  void leave() {
    const layer l = stack_.back();
    stack_.pop_back();
    if (stack_.back() != l) charge(l);
  }

 private:
  void charge(layer l) {
    const clock::time_point t = clock::now();
    self_[static_cast<std::size_t>(l)] +=
        std::chrono::duration<double>(t - last_).count();
    last_ = t;
  }

  std::vector<layer> stack_;
  clock::time_point last_;
  std::array<double, kLayers> self_{};
};

/// RAII layer scope; a null clock (untraced pass) makes it a no-op.
class scope {
 public:
  scope(layer_clock* c, layer l) : c_(c) {
    if (c_) c_->enter(l);
  }
  ~scope() {
    if (c_) c_->leave();
  }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  layer_clock* c_;
};

/// Seeds of one benchmark run, all derived from --seed.
struct seeds {
  std::uint64_t sim = 0;       ///< simulation RNG (message delays)
  std::uint64_t workload = 0;  ///< client operation schedules
  std::uint64_t selector = 0;  ///< quorum-selector sampling streams
  std::uint64_t corpus = 0;    ///< plan-corpus instance generation

  static seeds from(std::uint64_t seed);
};

/// One fixed-size execution of a workload.
struct pass_config {
  seeds seed;
  std::uint64_t size = 0;         ///< workload-specific input size
  layer_clock* clock = nullptr;   ///< non-null: timed pass (host split)
  bool spans = false;             ///< telemetry + span recording on
  std::uint64_t round = 0;        ///< round index (distinct-round workloads)
  bool setup_only = false;        ///< stop after set-up (setup_s samples)
};

struct pass_result {
  bool ok = true;
  std::string why;  ///< first failed correctness gate
  double setup_s = 0;  ///< pass start until the first issue
  double wall_s = 0;   ///< first issue until the stop condition
  /// Operations (register ops, SMR commands or corpus instances) issued
  /// where the paper promises termination, and those still incomplete at
  /// the simulated horizon.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  /// Digest of everything the pass produced (history or verdicts): equal
  /// digests mean bit-identical client-visible results.
  std::uint64_t digest = 0;
  gqs::sim_metrics sim;
  /// Deterministic per-layer values (counts and simulated-time metrics)
  /// — a pure function of (workload, size, seed).
  std::map<std::string, double> counts;
  /// Deterministic values read from recorded spans (span passes only).
  std::map<std::string, double> spans;
  /// Host seconds per layer (timed passes only).
  std::array<double, kLayers> self_s{};
  /// Host seconds of the strategy planner call made during set-up.
  double plan_s = 0;

  void fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

pass_result run_fig1(const pass_config& cfg);
pass_result run_targeted(const pass_config& cfg);
pass_result run_smr(const pass_config& cfg);
pass_result run_corpus(const pass_config& cfg);

/// A workload with its three input sizes: the measured round, the traced
/// slice, and the smoke-test size (~1% of the round).
struct workload_def {
  const char* name;
  pass_result (*run)(const pass_config&);
  std::uint64_t full;
  std::uint64_t slice;
  std::uint64_t smoke;
  /// Each round draws fresh inputs from (seed, round) instead of
  /// repeating round 0. For inputs whose cost is heavy-tailed, one round
  /// is too small a sample for a throughput that holds across seeds.
  bool distinct_rounds = false;
};

const std::vector<workload_def>& workloads();

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a accumulator for digests.
struct fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  }
};

}  // namespace bench
