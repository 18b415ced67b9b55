// failure_injection_test — failures that strike *mid-run*, not at time 0.
//
// The paper's model lets a pattern's processes crash and channels
// disconnect at any point of the execution ("from some point on"). These
// tests run the register under a healthy network first, inject the
// Figure 1 failures while operations are in flight, and check that
//   * every completed history remains linearizable (safety is
//     unconditional), and
//   * operations at U_f members that start after the failures still
//     terminate (wait-freedom does not depend on when the pattern
//     strikes).
#include <gtest/gtest.h>

#include <random>

#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using world_t = register_world<gqs_register_node>;

constexpr sim_time kStrike = 500'000;  // failures hit at 500 ms
constexpr sim_time kBudget = 600L * 1000 * 1000;

world_t make_world(int pattern, std::uint64_t seed) {
  const auto fig = make_figure1();
  return world_t(4, fault_plan::from_pattern(fig.gqs.fps[pattern], kStrike),
                 seed, network_options{}, quorum_config::of(fig.gqs),
                 reg_state{}, push_qaf_options{});
}

TEST(FailureInjection, OpsBeforeStrikeUseFullConnectivity) {
  // Before the strike every process can operate — even c and d, which are
  // doomed under f1.
  auto w = make_world(0, 1);
  for (process_id p = 0; p < 4; ++p) {
    const auto wi = w.client.invoke_write(p, 10 + p);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); }, w.sim.now() + 100'000))
        << "process " << p << " (pre-strike ops must be fast)";
  }
  EXPECT_LT(w.sim.now(), kStrike);
  EXPECT_TRUE(check_linearizable(w.client.history()).linearizable);
}

TEST(FailureInjection, PostStrikeOpsAtUfStillComplete) {
  auto w = make_world(0, 2);
  w.sim.run_until(kStrike + 1000);  // failures have struck
  const auto wi = w.client.invoke_write(0, 42);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                        kBudget));
  const auto ri = w.client.invoke_read(1);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                        kBudget));
  EXPECT_EQ(w.client.history()[ri].value, 42);
  EXPECT_TRUE(check_linearizable(w.client.history()).linearizable);
  EXPECT_TRUE(check_history(w.client.history()).linearizable);
}

TEST(FailureInjection, InFlightOpsAcrossTheStrikeLinearize) {
  // Operations started just before the strike at every process; the ones
  // at U_f members must finish, the others may hang, and whatever
  // completes must linearize.
  auto w = make_world(0, 3);
  w.sim.run_until(kStrike - 2000);  // 2 ms before the strike
  std::vector<std::size_t> ops;
  for (process_id p = 0; p < 4; ++p)
    ops.push_back(w.client.invoke_write(p, 100 + p));
  w.sim.run_until(w.sim.now() + kBudget);
  // a and b (U_f1) must have completed:
  EXPECT_TRUE(w.client.complete(ops[0]));
  EXPECT_TRUE(w.client.complete(ops[1]));
  const auto bb = check_linearizable(w.client.history());
  EXPECT_TRUE(bb.linearizable) << bb.reason;
}

TEST(FailureInjection, ValueWrittenBeforeStrikeSurvives) {
  // A write completed pre-strike must remain visible to post-strike
  // readers inside U_f (the write quorum it reached intersects every read
  // quorum).
  auto w = make_world(0, 4);
  const auto wi = w.client.invoke_write(2, 77);  // c writes while healthy
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.complete(wi); }, kStrike - 1000));
  w.sim.run_until(kStrike + 1000);
  const auto ri = w.client.invoke_read(0);  // a reads after the strike
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                        kBudget));
  EXPECT_EQ(w.client.history()[ri].value, 77);
}

class MidRunSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(MidRunSweep, MixedWorkloadAcrossStrikeLinearizes) {
  const auto [pattern, seed] = GetParam();
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  auto w = make_world(pattern, seed);

  std::mt19937_64 rng(seed * 31 + pattern);
  std::bernoulli_distribution is_write(0.5);
  std::uniform_int_distribution<int> val(1, 99);

  // Burst 1 (healthy): ops at all processes.
  for (process_id p = 0; p < 4; ++p) {
    if (is_write(rng))
      w.client.invoke_write(p, val(rng));
    else
      w.client.invoke_read(p);
  }
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_complete(); }, kStrike - 5000));

  // Burst 2: straddles the strike (invoked just before).
  w.sim.run_until(kStrike - 1000);
  std::vector<std::size_t> straddling;
  for (process_id p = 0; p < 4; ++p) {
    if (is_write(rng))
      straddling.push_back(w.client.invoke_write(p, val(rng)));
    else
      straddling.push_back(w.client.invoke_read(p));
  }
  // Burst 3 (degraded): ops at U_f members only, after the strike.
  w.sim.run_until(kStrike + 10'000);
  std::vector<std::size_t> degraded;
  for (process_id p : u_f) {
    if (is_write(rng))
      degraded.push_back(w.client.invoke_write(p, val(rng)));
    else
      degraded.push_back(w.client.invoke_read(p));
  }
  w.sim.run_until(w.sim.now() + kBudget);
  for (std::size_t idx : degraded)
    EXPECT_TRUE(w.client.complete(idx)) << "degraded op " << idx;
  for (process_id p : u_f)
    for (std::size_t idx : straddling)
      if (w.client.history()[idx].proc == p) {
        EXPECT_TRUE(w.client.complete(idx)) << "straddling op at U_f member";
      }
  const auto bb = check_linearizable(w.client.history());
  EXPECT_TRUE(bb.linearizable) << bb.reason;
}

INSTANTIATE_TEST_SUITE_P(Patterns, MidRunSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0u, 3u)));

// ---- consensus under mid-run failures ----

TEST(FailureInjection, ConsensusProposedBeforeStrikeDecidesAfter) {
  // Proposals land while the network is healthy; the failure pattern
  // strikes before a decision is possible (tiny pre-strike window plus
  // slow views). U_f members must still decide afterwards.
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[0]);
  consensus_options opts;
  opts.view_duration_unit = 200'000;  // 200 ms: nothing decides pre-strike
  consensus_world w(fig.gqs,
                    fault_plan::from_pattern(fig.gqs.fps[0], 100'000), 5,
                    consensus_world::partial_sync(), opts);
  w.client.invoke_propose(0, 31);
  w.client.invoke_propose(1, 32);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_decided(u_f); }, 3600L * 1000 * 1000));
  EXPECT_TRUE(check_consensus(w.client.outcomes(), u_f).linearizable);
}

TEST(FailureInjection, ConsensusDecisionBeforeStrikeIsStable) {
  // A decision reached pre-strike stays the decision; late learners in
  // U_f pick it up post-strike.
  const auto fig = make_figure1();
  consensus_world w(fig.gqs,
                    fault_plan::from_pattern(fig.gqs.fps[0], 500'000), 6);
  w.client.invoke_propose(2, 77);  // c proposes while healthy
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.decided(2); },
                                        400'000));
  w.sim.run_until(600'000);  // strike passed
  w.client.invoke_propose(0, 99);  // a proposes after the strike
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.client.decided(0); },
                                        600L * 1000 * 1000));
  // Agreement across the strike: a must adopt c's pre-strike decision.
  EXPECT_EQ(*w.client.outcomes()[0].decided, 77);
  EXPECT_TRUE(check_consensus(w.client.outcomes()).linearizable);
}

}  // namespace
}  // namespace gqs
