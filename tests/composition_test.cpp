// composition_test — different protocol stacks coexisting in one world.
//
// The component/transport split exists so that a process can host several
// independent protocol instances over one network endpoint. This test runs
// a Figure 4 register AND a Figure 6 consensus instance side by side at
// every process (one mux_host each) under Figure 1's f1, and checks both
// stacks deliver their guarantees without interfering.
#include <gtest/gtest.h>

#include "consensus/consensus.hpp"
#include "lincheck/object_checkers.hpp"
#include "lincheck/wing_gong.hpp"
#include "register/atomic_register.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

constexpr sim_time kBudget = 1800L * 1000 * 1000;

TEST(Composition, RegisterAndConsensusShareTheNetwork) {
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[0]);

  // Consensus needs eventual timeliness; the register tolerates it too.
  std::vector<gqs_register_node*> registers;
  std::vector<consensus_node*> consensi;
  world<mux_host> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), /*seed=*/3,
      consensus_world::partial_sync(), [&](process_id) {
        auto host = std::make_unique<mux_host>();
        registers.push_back(&host->emplace_component<gqs_register_node>(
            quorum_config::of(fig.gqs), reg_state{},
            generalized_qaf_options{}));
        consensi.push_back(&host->emplace_component<consensus_node>(
            quorum_config::of(fig.gqs), consensus_options{}));
        return host;
      });
  simulation& sim = w.sim;

  // Drive both stacks concurrently from a and b.
  bool write_done = false;
  std::optional<reg_value> read_value;
  std::optional<std::int64_t> decision_a, decision_b;
  sim.post(0, [&] {
    registers[0]->write(555, [&](reg_version) { write_done = true; });
    consensi[0]->propose(11, [&](std::int64_t d) { decision_a = d; });
  });
  sim.post(1, [&] {
    consensi[1]->propose(22, [&](std::int64_t d) { decision_b = d; });
  });

  ASSERT_TRUE(sim.run_until_condition(
      [&] { return write_done && decision_a && decision_b; }, kBudget));
  sim.post(1, [&] {
    registers[1]->read(
        [&](reg_value v, reg_version) { read_value = v; });
  });
  ASSERT_TRUE(
      sim.run_until_condition([&] { return read_value.has_value(); },
                              sim.now() + kBudget));

  EXPECT_EQ(*read_value, 555);
  EXPECT_EQ(*decision_a, *decision_b);
  EXPECT_TRUE(*decision_a == 11 || *decision_a == 22);
  EXPECT_TRUE(u_f.contains(0) && u_f.contains(1));
}

TEST(Composition, ManyRegistersAtOnce) {
  // Eight independent registers multiplexed per process; interleaved ops
  // at both U_f1 members; each register individually linearizable.
  const auto fig = make_figure1();
  constexpr int kRegisters = 8;
  std::vector<std::vector<gqs_register_node*>> regs(4);
  world<mux_host> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), /*seed=*/5,
      network_options{}, [&](process_id p) {
        auto host = std::make_unique<mux_host>();
        for (int r = 0; r < kRegisters; ++r)
          regs[p].push_back(&host->emplace_component<gqs_register_node>(
              quorum_config::of(fig.gqs), reg_state{},
              generalized_qaf_options{}));
        return host;
      });
  simulation& sim = w.sim;

  // Write register r at a with value 1000+r, all concurrently.
  int writes_pending = kRegisters;
  sim.post(0, [&] {
    for (int r = 0; r < kRegisters; ++r)
      regs[0][r]->write(1000 + r, [&](reg_version) { --writes_pending; });
  });
  ASSERT_TRUE(sim.run_until_condition([&] { return writes_pending == 0; },
                                      kBudget));
  // Read them all back at b.
  std::vector<std::optional<reg_value>> seen(kRegisters);
  sim.post(1, [&] {
    for (int r = 0; r < kRegisters; ++r)
      regs[1][r]->read(
          [&, r](reg_value v, reg_version) { seen[r] = v; });
  });
  ASSERT_TRUE(sim.run_until_condition(
      [&] {
        for (const auto& v : seen)
          if (!v) return false;
        return true;
      },
      sim.now() + kBudget));
  for (int r = 0; r < kRegisters; ++r)
    EXPECT_EQ(*seen[r], 1000 + r) << "register " << r;
}

}  // namespace
}  // namespace gqs
