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
// the paper's mechanism is load-bearing.
#pragma once

#include <set>
#include <utility>

#include "quorum/qaf_core.hpp"
#include "register/atomic_register.hpp"
#include "sim/options.hpp"

namespace gqs {

struct ablated_qaf_options {
  sim_time gossip_period = 5000;
  /// Keep Figure 3's clock cutoff in quorum_get (lines 5-8). If false,
  /// quorum_get returns the first full read quorum of cached gossip,
  /// however old.
  bool use_get_cutoff = true;
  /// Keep Figure 3's delayed completion of quorum_set (lines 18-20). If
  /// false, quorum_set returns as soon as a write quorum acknowledged.
  bool use_set_confirmation = true;
  /// Starting value of the logical clock. The protocol never compares
  /// clocks of different processes for equality, so correctness must be
  /// invariant under per-process offsets — the ablation uses an offset to
  /// widen the race that the set-confirmation wait closes.
  std::uint64_t initial_clock = 0;
};

template <class S>
class ablated_qaf : public push_qaf<S> {
 public:
  ablated_qaf(quorum_config config, S initial, ablated_qaf_options options)
      : push_qaf<S>(std::move(config), std::move(initial),
                    to_core(options)) {}

 private:
  static push_qaf_options to_core(const ablated_qaf_options& o) {
    push_qaf_options core;
    core.gossip_period = o.gossip_period;
    core.use_get_cutoff = o.use_get_cutoff;
    core.use_set_confirmation = o.use_set_confirmation;
    core.initial_clock = o.initial_clock;
    return core;
  }
};

/// Figure 4 register over the weakened access functions.
using ablated_register_node = atomic_register<ablated_qaf<reg_state>>;

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
