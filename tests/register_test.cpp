#include "register/atomic_register.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/factories.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;
using gqs_register_world = register_world<gqs_register_node>;
using abd_register_world = register_world<abd_register_node>;

constexpr process_id kA = 0, kB = 1, kC = 2;

/// The Figure 4 register over the Figure 1 GQS under failure pattern
/// `pattern_index` (0..3), failing at time 0.
gqs_register_world figure1_register_world(int pattern_index,
                                          std::uint64_t seed) {
  const auto fig = make_figure1();
  return gqs_register_world(
      4, fault_plan::from_pattern(fig.gqs.fps[pattern_index], 0), seed,
      network_options{}, quorum_config::of(fig.gqs), reg_state{},
      push_qaf_options{});
}

TEST(GqsRegister, WriteThenReadNoFailures) {
  const auto fig = make_figure1();
  gqs_register_world w(4, fault_plan::none(4), 1, {},
                       quorum_config::of(fig.gqs), reg_state{},
                       push_qaf_options{});
  w.client.invoke_write(kA, 42);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 60_s));
  w.client.invoke_read(kB);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(1); }, 60_s));
  EXPECT_EQ(w.client.history()[1].value, 42);
  EXPECT_TRUE(check_linearizable(w.client.history()));
  EXPECT_TRUE(check_history(w.client.history()));
}

TEST(GqsRegister, ReadOfFreshRegisterReturnsInitial) {
  auto w = figure1_register_world(0, 2);
  w.client.invoke_read(kA);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 60_s));
  EXPECT_EQ(w.client.history()[0].value, 0);
  EXPECT_EQ(w.client.history()[0].version, (reg_version{0, 0}));
}

TEST(GqsRegister, Example10ScenarioWorksUnderF1) {
  // The paper's running scenario: operations invoked at a under f1, where
  // no read quorum is strongly connected and c cannot be queried.
  auto w = figure1_register_world(0, 3);
  w.client.invoke_write(kA, 7);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 120_s));
  w.client.invoke_read(kA);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(1); }, 120_s));
  EXPECT_EQ(w.client.history()[1].value, 7);
  w.client.invoke_read(kB);  // the other U_f1 member sees it too
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(2); }, 120_s));
  EXPECT_EQ(w.client.history()[2].value, 7);
  EXPECT_TRUE(check_linearizable(w.client.history()));
  EXPECT_TRUE(check_history(w.client.history()));
}

TEST(GqsRegister, OperationsOutsideUfHang) {
  // c under f1 is isolated from every write quorum: its ops never return.
  auto w = figure1_register_world(0, 4);
  w.client.invoke_read(kC);
  w.client.invoke_write(kC, 9);
  w.sim.run_until(60_s);
  EXPECT_FALSE(w.client.complete(0));
  EXPECT_FALSE(w.client.complete(1));
  // History with the pending ops is still linearizable.
  EXPECT_TRUE(check_linearizable(w.client.history()));
}

TEST(GqsRegister, MultiWriterVersionsAreUnique) {
  auto w = figure1_register_world(0, 5);
  w.client.invoke_write(kA, 1);
  w.client.invoke_write(kB, 2);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.complete(0) && w.client.complete(1); }, 240_s));
  const auto& h = w.client.history();
  EXPECT_NE(h[0].version, h[1].version);
  EXPECT_TRUE(check_history(h));
}

TEST(AbdRegister, WorksUnderThresholdSystem) {
  const auto qs = threshold_quorum_system(5, 2);
  fault_plan faults = fault_plan::none(5);
  faults.crash(3, 0);
  faults.crash(4, 0);
  abd_register_world w(5, std::move(faults), 6, {}, quorum_config::of(qs),
                       reg_state{});
  w.client.invoke_write(0, 11);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 60_s));
  w.client.invoke_read(1);
  w.client.invoke_read(2);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_complete(); }, 60_s));
  EXPECT_EQ(w.client.history()[1].value, 11);
  EXPECT_EQ(w.client.history()[2].value, 11);
  EXPECT_TRUE(check_linearizable(w.client.history()));
  EXPECT_TRUE(check_history(w.client.history()));
}

TEST(AbdRegister, StuckUnderFigure1F1) {
  // Experiment E6's qualitative claim: classical ABD cannot serve reads or
  // writes under f1 (its get phase needs a whole read quorum to answer,
  // and every read quorum contains the unreachable c or the crashed d).
  const auto fig = make_figure1();
  abd_register_world w(4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 7, {},
                       quorum_config::of(fig.gqs), reg_state{});
  w.client.invoke_write(kA, 1);
  w.client.invoke_read(kB);
  w.sim.run_until(60_s);
  EXPECT_FALSE(w.client.complete(0));
  EXPECT_FALSE(w.client.complete(1));
}

TEST(GqsRegister, SequentialChainAcrossUfMembers) {
  auto w = figure1_register_world(0, 8);
  // a and b alternate writes and read back each other's values.
  std::vector<reg_value> reads_seen;
  int step = 0;
  std::function<void()> advance = [&] {
    switch (step++) {
      case 0:
        w.nodes[kA]->write(10, [&](reg_version) { advance(); });
        break;
      case 1:
        w.nodes[kB]->read([&](reg_value v, reg_version) {
          reads_seen.push_back(v);
          advance();
        });
        break;
      case 2:
        w.nodes[kB]->write(20, [&](reg_version) { advance(); });
        break;
      case 3:
        w.nodes[kA]->read([&](reg_value v, reg_version) {
          reads_seen.push_back(v);
          advance();
        });
        break;
      default:
        break;
    }
  };
  w.sim.post(kA, advance);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return step == 5; }, 600_s));
  EXPECT_EQ(reads_seen, (std::vector<reg_value>{10, 20}));
}

// Random concurrent workloads over every Figure 1 pattern: linearizability
// must hold for both checkers; ops at U_f members must all complete.
class RegisterWorkloadSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(RegisterWorkloadSweep, ConcurrentOpsLinearizable) {
  const auto [pattern, seed] = GetParam();
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  auto w = figure1_register_world(pattern, seed);

  std::mt19937_64 rng(seed * 977 + pattern);
  std::vector<process_id> members(u_f.begin(), u_f.end());
  std::uniform_int_distribution<int> val(1, 100);
  std::bernoulli_distribution is_write(0.5);

  // Three bursts of concurrent operations: one op per U_f member per burst
  // (a process is a sequential client — concurrent ops come from
  // *different* processes).
  for (int burst = 0; burst < 3; ++burst) {
    for (const process_id p : members) {
      if (is_write(rng))
        w.client.invoke_write(p, val(rng));
      else
        w.client.invoke_read(p);
    }
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.all_complete(); }, w.sim.now() + 600_s))
        << "burst " << burst << " pattern " << pattern << " seed " << seed;
  }
  const auto& h = w.client.history();
  const auto bb = check_linearizable(h);
  EXPECT_TRUE(bb.linearizable) << bb.reason;
  const auto wb = check_history(h);
  EXPECT_TRUE(wb.linearizable) << wb.reason;
}

INSTANTIATE_TEST_SUITE_P(PatternsAndSeeds, RegisterWorkloadSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0u, 4u)));

TEST(GqsRegister, CompletionSequencePinnedUnderF1) {
  // Overlapping writes at a and reads at b under f1, five rounds. The
  // completion order, times and versions are pinned bit for bit: a change
  // to how Figure 3's two clock waits complete shows here first.
  auto w = figure1_register_world(0, 21);
  for (int round = 0; round < 5; ++round) {
    w.client.invoke_write(kA, 10 * round + 1);
    w.client.invoke_read(kB);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.all_complete(); }, w.sim.now() + 60_s));
  }
  const register_history& h = w.client.history();
  std::vector<std::size_t> order(h.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return h[x].returned_stamp < h[y].returned_stamp;
  });
  std::string seq;
  for (const std::size_t i : order) {
    const register_op& op = h[i];
    seq += std::to_string(i);
    seq += op.kind == reg_op_kind::write ? "W" : "R";
    seq += std::to_string(op.value);
    seq += "v";
    seq += std::to_string(op.version.number);
    seq += ".";
    seq += std::to_string(op.version.writer);
    seq += "@";
    seq += std::to_string(op.returned_at.value_or(-1));
    seq += " ";
  }
  EXPECT_EQ(seq,
            "0W1v1.0@33130 1R1v1.0@51650 2W11v2.0@96176 3R11v2.0@114563 "
            "4W21v3.0@180541 5R11v2.0@182231 6W31v4.0@267357 "
            "7R21v3.0@288064 8W41v5.0@386021 9R41v5.0@412834 ");
}

// The ABD baseline under threshold systems with random workloads: also
// linearizable (both protocols share the Figure 4 skeleton).
class AbdWorkloadSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AbdWorkloadSweep, ConcurrentOpsLinearizable) {
  const unsigned seed = GetParam();
  const auto qs = threshold_quorum_system(3, 1);
  abd_register_world w(3, fault_plan::none(3), seed, {},
                       quorum_config::of(qs), reg_state{});
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> val(1, 50);
  std::bernoulli_distribution is_write(0.5);
  for (int burst = 0; burst < 4; ++burst) {
    for (process_id p = 0; p < 3; ++p) {  // one op per (sequential) process
      if (is_write(rng))
        w.client.invoke_write(p, val(rng));
      else
        w.client.invoke_read(p);
    }
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.all_complete(); }, w.sim.now() + 60_s));
  }
  EXPECT_TRUE(check_linearizable(w.client.history()));
  EXPECT_TRUE(check_history(w.client.history()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbdWorkloadSweep, ::testing::Range(0u, 6u));

}  // namespace
}  // namespace gqs
