#include "quorum/qaf_generalized.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/factories.hpp"
#include "qaf_worlds.hpp"
#include "sim/time.hpp"

namespace gqs {
namespace {

using namespace sim_literals;
using testing::generalized_world;
using testing::insert_update;
using testing::int_set;

constexpr process_id kA = 0, kB = 1, kC = 2, kD = 3;

generalized_world figure1_world(int pattern_index, std::uint64_t seed,
                                push_qaf_options opts = {}) {
  const auto fig = make_figure1();
  return generalized_world(
      4, fault_plan::from_pattern(fig.gqs.fps[pattern_index], 0), seed, {},
      quorum_config::of(fig.gqs), int_set{}, opts);
}

TEST(GeneralizedQafOptions, Validation) {
  push_qaf_options opts;
  // generalized_qaf is push_qaf itself: only the defaults make it Figure 3
  // verbatim (both clock waits on, clock from 0).
  EXPECT_TRUE(opts.use_get_cutoff && opts.use_set_confirmation &&
              opts.initial_clock == 0);
  opts.gossip_period = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(GeneralizedQaf, GetCompletesWithoutFailures) {
  const auto fig = make_figure1();
  generalized_world w(4, fault_plan::none(4), 1, {},
                      quorum_config::of(fig.gqs), int_set{},
                      push_qaf_options{});
  std::optional<std::vector<int_set>> result;
  w.nodes[kA]->quorum_get([&](std::vector<int_set> states) {
    result = std::move(states);
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return result.has_value(); },
                                        10_s));
  ASSERT_EQ(result->size(), 2u);  // every read quorum has two members
  for (const auto& s : *result) EXPECT_TRUE(s.empty());
}

TEST(GeneralizedQaf, SetThenGetObservesUpdate_F1) {
  // The scenario of Examples 3 and 10: under f1, operations at a must
  // succeed even though a cannot request anything from c.
  auto w = figure1_world(0, 2);
  bool set_done = false;
  w.nodes[kA]->quorum_set(insert_update(5), [&] { set_done = true; });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return set_done; }, 30_s));

  std::optional<std::vector<int_set>> result;
  w.nodes[kA]->quorum_get([&](std::vector<int_set> states) {
    result = std::move(states);
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return result.has_value(); },
                                        60_s));
  bool seen = false;
  for (const auto& s : *result) seen |= s.count(5) > 0;
  EXPECT_TRUE(seen) << "Real-time ordering: completed set must be visible";
}

TEST(GeneralizedQaf, WaitFreedomWithinUf1AtBothMembers) {
  // U_f1 = {a, b}: ops invoked at either member complete.
  auto w = figure1_world(0, 3);
  for (process_id p : {kA, kB}) {
    bool set_done = false;
    w.nodes[p]->quorum_set(insert_update(static_cast<int>(p)),
                           [&] { set_done = true; });
    ASSERT_TRUE(w.sim.run_until_condition([&] { return set_done; }, 60_s))
        << "set at " << p;
    bool get_done = false;
    w.nodes[p]->quorum_get([&](std::vector<int_set>) { get_done = true; });
    ASSERT_TRUE(w.sim.run_until_condition([&] { return get_done; }, 60_s))
        << "get at " << p;
  }
}

TEST(GeneralizedQaf, IsolatedProcessCannotComplete) {
  // Process c under f1 has every incoming channel failed: it can never
  // learn clocks of a write quorum, so its operations hang (c ∉ U_f1 —
  // the theory does not require termination there).
  auto w = figure1_world(0, 4);
  bool get_done = false, set_done = false;
  w.nodes[kC]->quorum_get([&](std::vector<int_set>) { get_done = true; });
  w.nodes[kC]->quorum_set(insert_update(1), [&] { set_done = true; });
  w.sim.run_until(30_s);
  EXPECT_FALSE(get_done);
  EXPECT_FALSE(set_done);
}

TEST(GeneralizedQaf, CrossProcessRealTimeOrdering) {
  // set completes at a; a later get at b (the other U_f1 member) must
  // observe it.
  auto w = figure1_world(0, 5);
  bool set_done = false;
  w.nodes[kA]->quorum_set(insert_update(77), [&] { set_done = true; });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return set_done; }, 60_s));
  std::optional<std::vector<int_set>> result;
  w.nodes[kB]->quorum_get([&](std::vector<int_set> states) {
    result = std::move(states);
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return result.has_value(); },
                                        60_s));
  bool seen = false;
  for (const auto& s : *result) seen |= s.count(77) > 0;
  EXPECT_TRUE(seen);
}

TEST(GeneralizedQaf, ValidityOnlyIssuedUpdates) {
  auto w = figure1_world(0, 6);
  int completed = 0;
  w.nodes[kA]->quorum_set(insert_update(1), [&] { ++completed; });
  w.nodes[kB]->quorum_set(insert_update(2), [&] { ++completed; });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return completed == 2; }, 60_s));
  std::optional<std::vector<int_set>> result;
  w.nodes[kB]->quorum_get([&](std::vector<int_set> states) {
    result = std::move(states);
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return result.has_value(); },
                                        60_s));
  for (const auto& s : *result)
    for (int v : s) EXPECT_TRUE(v == 1 || v == 2) << v;
}

TEST(GeneralizedQaf, LogicalClocksAdvance) {
  auto w = figure1_world(0, 7);
  w.sim.run_until(1_s);
  // Every live process ticks its clock each gossip period (5 ms default):
  // after 1 s each should have clock near 200 (d is crashed).
  for (process_id p : {kA, kB, kC}) {
    EXPECT_GE(w.nodes[p]->logical_clock(), 150u) << "process " << p;
    EXPECT_LE(w.nodes[p]->logical_clock(), 250u) << "process " << p;
  }
  EXPECT_EQ(w.nodes[kD]->logical_clock(), 0u) << "crashed process";
}

TEST(GeneralizedQaf, PipelinedOpsFromCallbacks) {
  auto w = figure1_world(0, 8);
  bool all_done = false;
  w.nodes[kA]->quorum_get([&](std::vector<int_set>) {
    w.nodes[kA]->quorum_set(insert_update(1), [&] {
      w.nodes[kA]->quorum_get([&](std::vector<int_set> states) {
        bool seen = false;
        for (const auto& s : states) seen |= s.count(1) > 0;
        EXPECT_TRUE(seen);
        all_done = true;
      });
    });
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return all_done; }, 120_s));
}

TEST(GeneralizedQaf, ManySequentialSetsAllVisible) {
  auto w = figure1_world(0, 9);
  int next = 0;
  std::function<void()> chain = [&] {
    if (next == 8) return;
    const int value = next++;
    w.nodes[value % 2 == 0 ? kA : kB]->quorum_set(insert_update(value),
                                                  [&] { chain(); });
  };
  chain();
  ASSERT_TRUE(w.sim.run_until_condition([&] { return next == 8; }, 300_s));
  std::optional<std::vector<int_set>> result;
  w.nodes[kA]->quorum_get([&](std::vector<int_set> states) {
    result = std::move(states);
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return result.has_value(); },
                                        400_s));
  int_set joined;
  for (const auto& s : *result) joined.insert(s.begin(), s.end());
  for (int v = 0; v < 7; ++v) EXPECT_TRUE(joined.count(v)) << v;
}

// Wait-freedom within U_f for every Figure 1 pattern × seeds (Theorem 4
// operationally).
class Figure1PatternSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(Figure1PatternSweep, WaitFreeWithinUf) {
  const auto [pattern, seed] = GetParam();
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  auto w = figure1_world(pattern, seed);
  for (process_id p : u_f) {
    bool set_done = false;
    w.nodes[p]->quorum_set(insert_update(static_cast<int>(p)),
                           [&] { set_done = true; });
    ASSERT_TRUE(w.sim.run_until_condition([&] { return set_done; }, 120_s))
        << "set at " << p << " pattern " << pattern;
    std::optional<std::vector<int_set>> result;
    w.nodes[p]->quorum_get([&](std::vector<int_set> states) {
      result = std::move(states);
    });
    ASSERT_TRUE(w.sim.run_until_condition([&] { return result.has_value(); },
                                          120_s))
        << "get at " << p << " pattern " << pattern;
    // Real-time ordering within the sweep: own completed set visible.
    bool seen = false;
    for (const auto& s : *result) seen |= s.count(static_cast<int>(p)) > 0;
    EXPECT_TRUE(seen);
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, Figure1PatternSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0u, 1u, 2u)));

// Gossip-period sweep: liveness must hold for fast and slow propagation.
class GossipPeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(GossipPeriodSweep, RoundTripCompletes) {
  push_qaf_options opts;
  opts.gossip_period = GetParam() * 1_ms;
  auto w = figure1_world(0, 11, opts);
  bool done = false;
  w.nodes[kA]->quorum_set(insert_update(1), [&] {
    w.nodes[kA]->quorum_get([&](std::vector<int_set>) { done = true; });
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return done; }, 600_s));
}

INSTANTIATE_TEST_SUITE_P(Periods, GossipPeriodSweep,
                         ::testing::Values(1, 2, 5, 20, 50));

}  // namespace
}  // namespace gqs
