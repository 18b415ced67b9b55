// Regression tests for the ablation study (bench_ablation_clocks): the
// published Figure 3 protocol is safe in the adversarial scenarios, and
// each weakened variant is *observed* to violate linearizability there —
// pinning down that both clock waits are load-bearing.
#include <gtest/gtest.h>

#include "lincheck/wing_gong.hpp"
#include "quorum/qaf_ablation.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

/// Scenario C of the bench (disjoint_scenario_config).
struct disjoint_world : register_world<ablated_register_node> {
  disjoint_world(std::uint64_t seed, bool use_get_cutoff,
                 bool use_set_confirmation)
      : register_world(
            4, disjoint_scenario_faults(), seed, network_options{},
            [&](process_id p) {
              ablated_qaf_options opts;
              opts.use_get_cutoff = use_get_cutoff;
              opts.use_set_confirmation = use_set_confirmation;
              if (p == 1) opts.initial_clock = 1000;
              return std::make_unique<ablated_register_node>(
                  disjoint_scenario_config(), reg_state{}, opts);
            }) {}

  /// Runs `rounds` of write-at-0-then-read-at-3; returns false on stall.
  bool run_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const auto wi = client.invoke_write(0, 1000 + round);
      if (!sim.run_until_condition([&] { return client.complete(wi); },
                                   sim.now() + 600L * 1000 * 1000))
        return false;
      const auto ri = client.invoke_read(3);
      if (!sim.run_until_condition([&] { return client.complete(ri); },
                                   sim.now() + 600L * 1000 * 1000))
        return false;
    }
    return true;
  }
};

TEST(Ablation, FullProtocolSafeInDisjointScenario) {
  // The crafted scenario cannot break the published protocol — Theorem 3
  // holds for arbitrary clock offsets.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    disjoint_world w(seed, true, true);
    ASSERT_TRUE(w.run_rounds(4)) << "seed " << seed;
    const auto r = check_linearizable(w.client.history());
    EXPECT_TRUE(r.linearizable) << "seed " << seed << ": " << r.reason;
  }
}

TEST(Ablation, DroppingSetConfirmationViolatesSomewhere) {
  // Lemma 1 is necessary: without the set's read-quorum confirmation, the
  // scenario produces at least one non-linearizable history across seeds.
  // A violating delay schedule is rare (27 of seeds 0..255, the first at
  // seed 30), so the sweep is wide and stops at the first catch.
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 256 && !caught; ++seed) {
    disjoint_world w(seed, true, false);
    if (!w.run_rounds(4)) continue;
    caught = !check_linearizable(w.client.history()).linearizable;
  }
  EXPECT_TRUE(caught);
}

TEST(Ablation, DroppingGetCutoffViolatesSomewhere) {
  // The clock cutoff of quorum_get is necessary: accepting arbitrarily
  // stale gossip loses completed writes under Figure 1's f1.
  const auto fig = make_figure1();
  const quorum_config qc = quorum_config::of(fig.gqs);
  int violations = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    ablated_qaf_options opts;
    opts.use_get_cutoff = false;
    register_world<ablated_register_node> w(
        4, fault_plan::from_pattern(fig.gqs.fps[0], 0), seed,
        network_options{}, qc, reg_state{}, opts);
    bool ok = true;
    for (int round = 0; round < 6 && ok; ++round) {
      const auto wi = w.client.invoke_write(0, 100 + round);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                      w.sim.now() + 600L * 1000 * 1000);
      if (!ok) break;
      const auto ri = w.client.invoke_read(1);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                      w.sim.now() + 600L * 1000 * 1000);
    }
    if (!ok) continue;
    violations += !check_linearizable(w.client.history()).linearizable;
  }
  EXPECT_GT(violations, 0);
}

TEST(Ablation, BothSwitchesOnMatchesPublishedProtocol) {
  // Sanity: the ablated implementation with both waits enabled behaves
  // like the real one on the Figure 1 scenario (ops complete, histories
  // linearizable).
  const auto fig = make_figure1();
  const quorum_config qc = quorum_config::of(fig.gqs);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    ablated_qaf_options opts;  // defaults: both on
    register_world<ablated_register_node> w(
        4, fault_plan::from_pattern(fig.gqs.fps[0], 0), seed,
        network_options{}, qc, reg_state{}, opts);
    const auto wi = w.client.invoke_write(0, 5);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); }, 600L * 1000 * 1000));
    const auto ri = w.client.invoke_read(1);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(ri); }, 1200L * 1000 * 1000));
    EXPECT_EQ(w.client.history()[ri].value, 5);
    EXPECT_TRUE(check_linearizable(w.client.history()).linearizable);
  }
}

}  // namespace
}  // namespace gqs
