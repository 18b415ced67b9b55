// worlds.hpp — the one simulation-world builder, world<Node>, and its
// per-protocol presets: a simulation populated with one protocol node per
// process for a given quorum system, fault plan, network and seed, started
// and settled at time 0. Tests, benches and examples build their worlds
// through it; recording clients attach to `sim` and `nodes` afterwards.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "consensus/consensus_client.hpp"
#include "core/factories.hpp"
#include "lattice/lattice_agreement.hpp"
#include "register/register_client.hpp"
#include "sim/simulation.hpp"
#include "snapshot/snapshot_client.hpp"

namespace gqs {

/// n processes running one Node each. A component is hosted on its own
/// single_host (a flooding endpoint); any other node (a flooding_node, a
/// snapshot node, ...) is installed as is. The nodes come from a factory
/// `p -> unique_ptr<Node>`, called once per process in ascending p, or —
/// when every process runs the same node — from Node's constructor
/// arguments. The constructor starts the simulation and runs every
/// time-0 event.
template <class Node>
struct world {
  simulation sim;
  std::vector<Node*> nodes;

  template <class Make>
    requires std::is_invocable_r_v<std::unique_ptr<Node>, Make&, process_id>
  world(process_id n, fault_plan faults, std::uint64_t seed,
        network_options net, Make make)
      : sim(n, net, std::move(faults), seed) {
    for (process_id p = 0; p < n; ++p) {
      std::unique_ptr<Node> nd = make(p);
      nodes.push_back(nd.get());
      if constexpr (std::is_base_of_v<component, Node>)
        sim.set_node(p, std::make_unique<single_host>(std::move(nd)));
      else
        sim.set_node(p, std::move(nd));
    }
    sim.start();
    sim.run_until(0);
  }

  template <class... Args>
  world(process_id n, fault_plan faults, std::uint64_t seed,
        network_options net, Args&&... args)
      : world(n, std::move(faults), seed, net,
              [&](process_id) { return std::make_unique<Node>(args...); }) {}
};

template <class C>
using component_world = world<C>;

/// Register world (either atomic_register instantiation) with a recording
/// client.
template <class RegisterNode>
struct register_world : world<RegisterNode> {
  using world<RegisterNode>::world;
  register_client<RegisterNode> client{this->sim, this->nodes};
};

/// Snapshot world over int64 segment values, with a recording client.
struct snapshot_world : world<snapshot_node<std::int64_t>> {
  snapshot_client client{sim, nodes};

  snapshot_world(const generalized_quorum_system& gqs, fault_plan faults,
                 std::uint64_t seed)
      : world(gqs.system_size(), std::move(faults), seed, network_options{},
              gqs.system_size(), quorum_config::of(gqs)) {}
};

/// Lattice-agreement world.
struct lattice_world : world<lattice_agreement_node> {
  lattice_world(const generalized_quorum_system& gqs, fault_plan faults,
                std::uint64_t seed)
      : world(gqs.system_size(), std::move(faults), seed, network_options{},
              gqs.system_size(), quorum_config::of(gqs)) {}
};

/// Consensus world with a recording client. Defaults to a partially
/// synchronous network timely from time 0.
struct consensus_world : world<consensus_node> {
  consensus_client client{sim, nodes};

  static network_options partial_sync(sim_time gst = 0) {
    network_options net;
    net.min_delay = 1000;
    net.max_delay = 200000;
    net.delta = 10000;
    net.gst = gst;
    return net;
  }

  consensus_world(const generalized_quorum_system& gqs, fault_plan faults,
                  std::uint64_t seed, network_options net = partial_sync(),
                  consensus_options opts = {})
      : world(gqs.system_size(), std::move(faults), seed, net,
              quorum_config::of(gqs), opts) {}
};

}  // namespace gqs
