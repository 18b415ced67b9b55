// smr_workload.hpp — wiring the keyed workload drivers onto the sharded
// SMR service: the world preset, its convergence check and the driver
// adapter, shared by the SMR tests and the repo benchmark's driver.
//
// The adapter satisfies the workload_driver contract (clients.hpp): a
// write completes when the *submitting* replica applies the command at
// its log position (the linearization point), a read completes with the
// state at its own log position. Every completed operation therefore
// sits inside a totally ordered log prefix, which is what the
// linearizability checkers verify externally.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "smr/smr_service.hpp"
#include "workload/clients.hpp"
#include "workload/worlds.hpp"

namespace gqs {

/// workload_driver adapter over one smr_service replica per process.
struct smr_adapter {
  std::vector<smr_service*> nodes;

  void write(process_id p, service_key key, reg_value x,
             std::function<void(reg_version)> done) {
    nodes[p]->submit_write(key, x, std::move(done));
  }
  void read(process_id p, service_key key,
            std::function<void(reg_value, reg_version)> done) {
    nodes[p]->submit_read(key, std::move(done));
  }
};

/// One smr_service per process over a partially synchronous network (the
/// consensus default), started and settled at time 0.
struct smr_world : world<smr_service> {
  smr_world(const generalized_quorum_system& gqs, fault_plan faults,
            std::uint64_t seed, service_key keys, smr_options options = {},
            network_options net = consensus_world::partial_sync())
      : world(gqs.system_size(), std::move(faults), seed, net, keys,
              quorum_config::of(gqs), options) {}

  smr_adapter adapter() { return smr_adapter{nodes}; }

  std::vector<const smr_service*> replicas() const {
    return {nodes.begin(), nodes.end()};
  }
};

/// Every replica applied the same log prefix per shard, covering at
/// least `min_cmds` commands.
inline bool converged(const smr_world& w, std::uint64_t min_cmds) {
  for (std::size_t s = 0; s < w.nodes.front()->shard_count(); ++s) {
    const std::uint64_t prefix = w.nodes.front()->applied_prefix(s);
    for (const smr_service* r : w.nodes)
      if (r->applied_prefix(s) != prefix) return false;
  }
  for (const smr_service* r : w.nodes)
    if (r->counters().commands_applied < min_cmds) return false;
  return true;
}

}  // namespace gqs
