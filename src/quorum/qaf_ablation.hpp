// qaf_ablation.hpp — deliberately weakened variants of the Figure 3
// access functions, for the ablation study of the paper's logical-clock
// mechanism (bench_ablation_clocks, E12 in docs/ARCHITECTURE.md, "Figures →
// benches"), and the study's disjoint-quorum scenario.
//
// The full protocol has two clock-driven waits:
//
//   (1) quorum_get's cutoff: ask a *write* quorum for clocks, take the
//       max as c_get, and accept only read-quorum gossip with clocks
//       ≥ c_get (Figure 3 lines 5-8);
//   (2) quorum_set's confirmation: after the write quorum applied the
//       update, wait until some read quorum gossips clocks ≥ c_set
//       (Figure 3 lines 18-20).
//
// Dropping either breaks Real-time ordering (Theorem 3's proof uses both):
// a "push-only" quorum_get may assemble a read quorum from *stale* cached
// gossip that predates a completed quorum_set. The weakened protocol is
// the shared engine core (qaf_core.hpp's push_qaf) with the corresponding
// wait switched off, so the effect of each wait can be measured; the
// register built on top then exhibits machine-detectable non-linearizable
// histories (stale reads / new-old inversions).
//
// This is NOT part of the supported API — it exists to demonstrate that
// the paper's mechanism is load-bearing. The register over it is
// gqs_register_node (register/atomic_register.hpp), built with the
// switches off.
#pragma once

#include <set>
#include <utility>

#include "quorum/qaf_core.hpp"
#include "sim/options.hpp"

namespace gqs {

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
  const std::set<std::pair<process_id, process_id>> alive = {
      {0, 1}, {1, 0}, {1, 3}, {3, 2}, {2, 3}, {2, 1}};
  fault_plan faults = fault_plan::none(4);
  for (process_id u = 0; u < 4; ++u)
    for (process_id v = 0; v < 4; ++v)
      if (u != v && !alive.contains({u, v})) faults.disconnect(u, v, 0);
  return faults;
}

}  // namespace gqs
