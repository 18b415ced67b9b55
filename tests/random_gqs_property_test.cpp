// random_gqs_property_test — the register is correct on *arbitrary*
// generalized quorum systems, not just the Figure 1 example.
//
// For random fail-prone systems admitting a GQS (found by the existence
// search), run the Figure 4 register over the witness quorums with the
// pattern injected at time 0 and verify operationally:
//   * wait-freedom at every member of U_f (Theorem 1), and
//   * linearizability of the recorded history (both checkers).
// This ties the combinatorial layer (search, canonical construction) to
// the protocol layer end to end.
#include <gtest/gtest.h>

#include <random>

#include "core/random_systems.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "workload/topologies.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

class RandomGqsSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomGqsSweep, RegisterCorrectOnWitnessQuorums) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(seed);
  random_system_params params;
  params.n = 5;
  params.patterns = 2;
  params.crash_probability = 0.25;
  params.channel_fail_probability = 0.3;

  const auto witness = random_gqs(params, rng, 200);
  ASSERT_TRUE(witness.has_value())
      << "attempts exhausted: " << witness.attempts << " drawn, "
      << witness.rejected << " rejected by the solver";
  EXPECT_FALSE(witness.exhausted);
  EXPECT_EQ(witness.attempts, witness.rejected + 1);
  const auto& system = witness->system;
  ASSERT_TRUE(check_generalized(system).ok);

  for (std::size_t k = 0; k < system.fps.size(); ++k) {
    const failure_pattern& f = system.fps[k];
    const process_set u_f = witness->max_termination[k];
    ASSERT_FALSE(u_f.empty());

    register_world<gqs_register_node> w(
        params.n, fault_plan::from_pattern(f, 0), seed * 17 + k,
        network_options{}, quorum_config::of(system), reg_state{},
        push_qaf_options{});

    // One write + one read per U_f member, sequentially.
    int value = 1;
    for (process_id p : u_f) {
      const auto wi = w.client.invoke_write(p, value++);
      ASSERT_TRUE(w.sim.run_until_condition(
          [&] { return w.client.complete(wi); },
          w.sim.now() + 600L * 1000 * 1000))
          << "write at " << p << " pattern " << k << " seed " << seed;
      const auto ri = w.client.invoke_read(p);
      ASSERT_TRUE(w.sim.run_until_condition(
          [&] { return w.client.complete(ri); },
          w.sim.now() + 600L * 1000 * 1000))
          << "read at " << p << " pattern " << k << " seed " << seed;
      // A read right after one's own write returns it (real-time order).
      EXPECT_EQ(w.client.history()[ri].value, value - 1);
    }
    const auto bb = check_linearizable(w.client.history());
    EXPECT_TRUE(bb.linearizable) << bb.reason;
    const auto wb = check_history(w.client.history());
    EXPECT_TRUE(wb.linearizable) << wb.reason;
  }
}

TEST_P(RandomGqsSweep, ConsensusDecidesOnWitnessQuorums) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(seed + 1000);
  random_system_params params;
  params.n = 5;
  params.patterns = 2;
  params.channel_fail_probability = 0.25;

  const auto witness = random_gqs(params, rng, 200);
  ASSERT_TRUE(witness.has_value())
      << "attempts exhausted after " << witness.attempts << " draws";
  const auto& system = witness->system;

  for (std::size_t k = 0; k < system.fps.size(); ++k) {
    const process_set u_f = witness->max_termination[k];
    consensus_world w(system, fault_plan::from_pattern(system.fps[k], 0),
                      seed * 13 + k);
    std::int64_t v = 1;
    for (process_id p : u_f) w.client.invoke_propose(p, v++);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.all_decided(u_f); }, 1800L * 1000 * 1000))
        << "pattern " << k << " seed " << seed;
    const auto safety = check_consensus(w.client.outcomes(), u_f);
    EXPECT_TRUE(safety.linearizable) << safety.reason;
  }
}

// Same end-to-end property over the topology scenario corpus: a witness
// found on a structured (star / ring / clusters) scenario system drives a
// linearizable register with the pattern injected at time 0. This is the
// corpus replacing the uniform generator as the property-test instance
// source.
TEST_P(RandomGqsSweep, RegisterCorrectOnTopologyScenarioWitness) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(seed + 5000);
  scenario_params sp;
  const topology_kind kinds[] = {topology_kind::star, topology_kind::ring,
                                 topology_kind::clusters};
  sp.topology.kind = kinds[seed % 3];
  sp.topology.n = 5;
  sp.topology.cluster_size = 3;
  sp.patterns = 2;
  sp.crash_probability = 0.15;
  sp.channel_fail_probability = 0.1;

  const auto witness =
      random_gqs_from([&] { return scenario_system(sp, rng); }, 300);
  ASSERT_TRUE(witness.has_value())
      << to_string(sp.topology.kind) << ": attempts exhausted after "
      << witness.attempts << " draws";
  const auto& system = witness->system;
  ASSERT_TRUE(check_generalized(system).ok);

  for (std::size_t k = 0; k < system.fps.size(); ++k) {
    const failure_pattern& f = system.fps[k];
    const process_set u_f = witness->max_termination[k];
    ASSERT_FALSE(u_f.empty());

    register_world<gqs_register_node> w(
        sp.topology.n, fault_plan::from_pattern(f, 0), seed * 23 + k,
        network_options{}, quorum_config::of(system), reg_state{},
        push_qaf_options{});

    int value = 1;
    for (process_id p : u_f) {
      const auto wi = w.client.invoke_write(p, value++);
      ASSERT_TRUE(w.sim.run_until_condition(
          [&] { return w.client.complete(wi); },
          w.sim.now() + 600L * 1000 * 1000))
          << "write at " << p << " pattern " << k << " seed " << seed;
      const auto ri = w.client.invoke_read(p);
      ASSERT_TRUE(w.sim.run_until_condition(
          [&] { return w.client.complete(ri); },
          w.sim.now() + 600L * 1000 * 1000))
          << "read at " << p << " pattern " << k << " seed " << seed;
      EXPECT_EQ(w.client.history()[ri].value, value - 1);
    }
    const auto bb = check_linearizable(w.client.history());
    EXPECT_TRUE(bb.linearizable) << bb.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGqsSweep, ::testing::Range(0u, 6u));

}  // namespace
}  // namespace gqs
