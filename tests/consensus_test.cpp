#include "consensus/consensus.hpp"

#include <gtest/gtest.h>

#include "core/factories.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

constexpr process_id kA = 0, kB = 1, kC = 2;

TEST(ConsensusOptions, Validation) {
  consensus_options bad;
  bad.view_duration_unit = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  const auto fig = make_figure1();
  EXPECT_THROW(consensus_node(quorum_config::of(fig.gqs), bad),
               std::logic_error);
}

TEST(Consensus, SingleProposerDecidesOwnValue) {
  const auto fig = make_figure1();
  consensus_world w(fig.gqs, fault_plan::none(4), 1);
  w.client.invoke_propose(kA, 77);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.decided(kA); },
                                        600_s));
  EXPECT_EQ(*w.client.outcomes()[kA].decided, 77);
  EXPECT_TRUE(check_consensus(w.client.outcomes()));
}

TEST(Consensus, ProposeTwiceRejected) {
  const auto fig = make_figure1();
  consensus_world w(fig.gqs, fault_plan::none(4), 2);
  w.client.invoke_propose(kA, 1);
  w.sim.run_until(1_ms);
  EXPECT_THROW(w.nodes[kA]->propose(2, [](std::int64_t) {}),
               std::logic_error);
}

TEST(Consensus, DecidesUnderFigure1F1) {
  // Theorem 5: consensus terminates at U_f1 = {a, b} despite d's crash and
  // the channel failures.
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[0]);
  consensus_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 3);
  w.client.invoke_propose(kA, 5);
  w.client.invoke_propose(kB, 9);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_decided(u_f); }, 600_s));
  const auto r = check_consensus(w.client.outcomes(), u_f);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

TEST(Consensus, IsolatedProcessDoesNotDecide) {
  const auto fig = make_figure1();
  consensus_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 4);
  w.client.invoke_propose(kC, 3);  // c hears nothing under f1
  w.client.invoke_propose(kA, 5);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.decided(kA); },
                                        600_s));
  w.sim.run_until(w.sim.now() + 120_s);
  EXPECT_FALSE(w.client.decided(kC));
  EXPECT_TRUE(check_consensus(w.client.outcomes()));
}

TEST(Consensus, LateGstStillDecides) {
  // Messages are arbitrarily delayed before GST = 2 s; decisions still
  // happen (afterwards).
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[0]);
  consensus_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 5,
                    consensus_world::partial_sync(2_s));
  w.client.invoke_propose(kA, 1);
  w.client.invoke_propose(kB, 2);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_decided(u_f); }, 1200_s));
  EXPECT_TRUE(check_consensus(w.client.outcomes(), u_f));
}

TEST(Consensus, ThresholdSystemAllCorrectDecide) {
  const auto qs = threshold_quorum_system(5, 2);
  fault_plan faults = fault_plan::none(5);
  faults.crash(3, 0);
  faults.crash(4, 0);
  consensus_world w(qs, std::move(faults), 6);
  for (process_id p = 0; p < 3; ++p)
    w.client.invoke_propose(p, 100 + static_cast<int>(p));
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_decided(process_set{0, 1, 2}); }, 600_s));
  EXPECT_TRUE(check_consensus(w.client.outcomes(), process_set{0, 1, 2}));
}

TEST(Consensus, ViewLogMatchesSynchronizerSchedule) {
  // A process spends v·C in view v (Proposition 2's mechanism): entry time
  // of view v is Σ_{u<v} u·C from its start.
  const auto fig = make_figure1();
  consensus_options opts;
  opts.view_duration_unit = 20_ms;
  consensus_world w(fig.gqs, fault_plan::none(4), 7,
                    consensus_world::partial_sync(), opts);
  w.sim.run_until(5_s);
  for (const auto* node : w.nodes) {
    const auto& log = node->view_log();
    ASSERT_GE(log.size(), 3u);
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].first, i + 1);  // views 1, 2, 3, ... in order
      sim_time expected = 0;
      for (std::uint64_t u = 1; u < log[i].first; ++u)
        expected += static_cast<sim_time>(u) * opts.view_duration_unit;
      EXPECT_EQ(log[i].second, expected);
    }
  }
}

TEST(Consensus, DecidedProcessKeepsHelpingOthers) {
  // a decides first; b (which missed nothing structurally but has later
  // views) must still decide — a decided process keeps sending 1B/2A/2B.
  const auto fig = make_figure1();
  consensus_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 8);
  w.client.invoke_propose(kB, 11);  // only b proposes
  // Both U_f1 members learn the decision: b through its propose, a as a
  // passive participant (observable through the node state).
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        return w.client.decided(kB) && w.nodes[kA]->has_decided();
      },
      1200_s));
  EXPECT_EQ(*w.client.outcomes()[kB].decided, 11);
  EXPECT_EQ(*w.nodes[kA]->decision(), 11);
}

// Agreement + validity + termination across patterns, seeds, GST values
// and view-duration constants.
class ConsensusSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned, int>> {};

TEST_P(ConsensusSweep, SafeAndLiveWithinUf) {
  const auto [pattern, seed, gst_ms] = GetParam();
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  consensus_world w(
      fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0), seed,
      consensus_world::partial_sync(gst_ms * 1_ms));
  std::int64_t v = 1;
  for (process_id p : u_f) w.client.invoke_propose(p, v++);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_decided(u_f); }, 1800_s))
      << "pattern " << pattern << " seed " << seed << " gst " << gst_ms;
  const auto r = check_consensus(w.client.outcomes(), u_f);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConsensusSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0u, 1u),
                                            ::testing::Values(0, 500)));

}  // namespace
}  // namespace gqs
