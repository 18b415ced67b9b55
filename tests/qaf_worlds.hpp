// qaf_worlds.hpp — shared helpers for quorum-access-function tests and
// benches: builds a simulation populated with qaf nodes over a given quorum
// configuration and fault plan.
#pragma once

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "quorum/qaf_classical.hpp"
#include "quorum/qaf_generalized.hpp"
#include "sim/simulation.hpp"

namespace gqs::testing {

/// Grow-only integer-set state: the canonical opaque state for exercising
/// the access functions. Updates insert one element; Validity then means
/// every returned state is a subset of the issued elements, and Real-time
/// ordering means a completed insert is visible in at least one returned
/// state of every later get.
using int_set = std::set<int>;

inline quorum_access<int_set>::update_fn insert_update(int x) {
  return [x](const int_set& s) {
    int_set t = s;
    t.insert(x);
    return t;
  };
}

/// Builds a simulation with one component of type Qaf per process, each
/// hosted on its own flooding endpoint.
template <class Qaf>
struct qaf_world {
  simulation sim;
  std::vector<Qaf*> nodes;

  template <class... NodeArgs>
  qaf_world(process_id n, fault_plan faults, std::uint64_t seed,
            network_options net, NodeArgs&&... node_args)
      : sim(n, net, std::move(faults), seed) {
    for (process_id p = 0; p < n; ++p) {
      auto comp = std::make_unique<Qaf>(node_args...);
      nodes.push_back(comp.get());
      sim.set_node(p, std::make_unique<single_host>(std::move(comp)));
    }
    sim.start();
    sim.run_until(0);
  }
};

using classical_world = qaf_world<classical_qaf<int_set>>;
using generalized_world = qaf_world<generalized_qaf<int_set>>;

/// Scenario C of bench_ablation_clocks, the one the set-confirmation wait
/// closes: disjoint write quorums {0,1} and {2,3} under read quorum {1,2}.
/// A reader's cutoff resolves through the write quorum the writer did not
/// use.
inline quorum_config disjoint_scenario_config() {
  return quorum_config{{process_set{1, 2}},
                       {process_set{0, 1}, process_set{2, 3}}};
}

/// The scenario's channels: only 0→1, 1→0, 1→3, 3→2, 2→3 and 2→1 stay up.
inline fault_plan disjoint_scenario_faults() {
  fault_plan faults = fault_plan::none(4);
  const std::pair<process_id, process_id> alive[] = {
      {0, 1}, {1, 0}, {1, 3}, {3, 2}, {2, 3}, {2, 1}};
  for (process_id u = 0; u < 4; ++u)
    for (process_id v = 0; v < 4; ++v) {
      if (u == v) continue;
      bool keep = false;
      for (const auto& [a, b] : alive) keep |= (a == u && b == v);
      if (!keep) faults.disconnect(u, v, 0);
    }
  return faults;
}

}  // namespace gqs::testing
