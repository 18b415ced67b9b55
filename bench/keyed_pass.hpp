// keyed_pass.hpp — the run-and-verify pass shared by the keyed benches
// (bench_service_throughput, bench_strategy, bench_smr_throughput).
//
// run_keyed_pass drives one started world's keyed workload to completion
// within a simulated horizon; everything it returns is a pure function of
// the world's seeds (host throughput is gqs_bench's to measure). The
// caller picks its checks of the recorded history:
//
//   stream — the streaming checker rides the workload driver's hooks
//            while the run is live; once it drains, the checker must find
//            the run linearizable and have retired every completed op;
//   batch  — the full keyed history goes through the batch dependency-
//            graph checker once, which must find it linearizable.
//
// A bench adds its engine-specific checks (convergence, agreement) on top,
// reading final states through freshest_finals, and fingerprints them with
// finals_digest — the client-visible word the determinism grids compare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lincheck/history_checker.hpp"
#include "sim/runner.hpp"
#include "sim/simulation.hpp"
#include "workload/clients.hpp"

namespace gqs_bench {

struct keyed_checks {
  bool stream = false;
  bool batch = false;
};

struct keyed_pass {
  bool ok = false;
  std::string why;  ///< first failure, empty when ok
  std::uint64_t completed = 0;
  std::vector<double> latencies_us;
  std::vector<std::uint64_t> per_key_ops;
  std::vector<gqs::keyed_register_op> history;
  std::size_t peak_window = 0;  ///< stream: largest live checker window

  void fail(std::string reason) {
    ok = false;
    why = std::move(reason);
  }
};

/// Launches `workload` through `adapter` on `sim` (already started), runs
/// it to completion within `horizon` of simulated time and applies
/// `checks`. ok is false, with why naming the failure, if the run did not
/// complete or a check failed.
template <class Adapter>
keyed_pass run_keyed_pass(gqs::simulation& sim, Adapter adapter,
                          const gqs::client_workload_options& workload,
                          gqs::sim_time horizon, keyed_checks checks = {}) {
  gqs::workload_driver<Adapter> driver(sim, std::move(adapter), workload);
  gqs::streaming_checker live(workload.keys);
  keyed_pass r;
  if (checks.stream) {
    driver.on_issue = [&](const gqs::keyed_register_op& rec, std::size_t) {
      live.on_invoke(rec);
    };
    driver.on_complete_op = [&](const gqs::keyed_register_op& rec,
                                std::size_t idx) {
      live.on_complete(rec, idx);
      r.peak_window = std::max(r.peak_window, live.active_ops());
    };
  }

  driver.launch();
  if (!sim.run_until_condition([&] { return driver.done(); },
                               sim.now() + horizon)) {
    r.why = "run did not complete within the horizon";
    return r;
  }
  r.completed = driver.completed();
  r.latencies_us = driver.latencies_us();
  r.per_key_ops = driver.per_key_ops();
  r.history = driver.history();

  if (checks.stream) {
    const gqs::lincheck_result& streamed = live.finish();
    if (!streamed.linearizable)
      r.why = "streaming checker flagged the run: " + streamed.reason;
    else if (live.retired_ops() != r.completed || live.active_ops() != 0)
      r.why = "streaming checker failed to retire the drained run";
  }
  if (checks.batch && r.why.empty()) {
    const auto batch = check_keyed_history(r.history, workload.keys);
    if (!batch.linearizable)
      r.why = "batch check flagged the run: " + batch.reason;
  }
  r.ok = r.why.empty();
  return r;
}

/// The freshest final state of each key across `nodes`, read as
/// state_of(node, key).
template <class Node, class StateOf>
std::vector<gqs::reg_state> freshest_finals(const std::vector<Node*>& nodes,
                                            gqs::service_key keys,
                                            StateOf state_of) {
  std::vector<gqs::reg_state> finals(keys);
  for (gqs::service_key k = 0; k < keys; ++k)
    for (const Node* node : nodes) {
      const gqs::reg_state& s = state_of(*node, k);
      if (s.version >= finals[k].version) finals[k] = s;
    }
  return finals;
}

/// FNV-1a over `lead` words, then each final (value, version) state.
inline std::uint64_t finals_digest(const std::vector<gqs::reg_state>& finals,
                                   const std::vector<std::uint64_t>& lead = {}) {
  std::uint64_t d = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t x) {
    d ^= x;
    d *= 0x100000001b3ull;
  };
  for (const std::uint64_t x : lead) mix(x);
  for (const gqs::reg_state& s : finals) {
    mix(static_cast<std::uint64_t>(s.value));
    mix(s.version.number);
    mix(s.version.writer);
  }
  return d;
}

/// A pass as one determinism-grid cell: its outcome and what a client
/// sees of it (completions, latencies, the final-state digest).
inline gqs::run_result grid_cell(const keyed_pass& p, std::uint64_t digest) {
  gqs::run_result r;
  r.ok = p.ok;
  r.error = p.why;
  r.latencies_us = p.latencies_us;
  r.stats["completed"] = static_cast<double>(p.completed);
  r.stats["digest_hi"] = static_cast<double>(digest >> 32);
  r.stats["digest_lo"] = static_cast<double>(digest & 0xffffffffull);
  return r;
}

}  // namespace gqs_bench
