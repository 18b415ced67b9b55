#include "smr/replicated_log.hpp"

#include <gtest/gtest.h>

#include "core/factories.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

constexpr process_id kA = 0, kB = 1, kC = 2;

struct log_world : world<replicated_log_node> {
  std::vector<replicated_log_node*>& replicas = nodes;

  log_world(const generalized_quorum_system& gqs, fault_plan faults,
            std::uint64_t seed, std::size_t slots = 8)
      : world(gqs.system_size(), std::move(faults), seed,
              consensus_world::partial_sync(), gqs.system_size(),
              quorum_config::of(gqs), slots) {}

  std::vector<const replicated_log_node*> replica_views() const {
    return {replicas.begin(), replicas.end()};
  }
};

TEST(LogCommand, PackUnpackRoundTrip) {
  for (const log_command c : {log_command{42, 3, 7},
                              log_command{-5, 0, 0},
                              log_command{INT32_MAX, 63, 0xffffffu},
                              log_command{INT32_MIN, 1, 1}}) {
    EXPECT_EQ(log_command::unpack(c.pack()), c);
  }
}

TEST(LogCommand, PackBoundaryValuesRoundTrip) {
  // The widest values each bit field can carry survive the round trip.
  const log_command max{INT32_MAX, 0xffu, 0xffffffu};
  EXPECT_EQ(log_command::unpack(max.pack()), max);
  const log_command negative{INT32_MIN, 0xffu, 0xffffffu};
  EXPECT_EQ(log_command::unpack(negative.pack()), negative);
}

TEST(LogCommand, PackOverflowThrowsInsteadOfAliasing) {
  // One past each field's capacity: silent truncation would alias another
  // command (wrong submitter / duplicate in the converged log).
  log_command wide_submitter{1, 0x100u, 0};
  EXPECT_THROW(wide_submitter.pack(), std::out_of_range);
  log_command wide_seq{1, 0, 0x1000000u};
  EXPECT_THROW(wide_seq.pack(), std::out_of_range);
}

TEST(ReplicatedLog, SingleSubmitterFillsSlotZero) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 1);
  std::optional<std::size_t> slot;
  w.sim.post(kA, [&] {
    w.replicas[kA]->submit(100, [&](std::size_t s) { slot = s; });
  });
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return slot.has_value(); }, 600_s));
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(w.replicas[kA]->log()[0]->payload, 100);
  EXPECT_TRUE(check_log_agreement(w.replica_views()));
}

TEST(ReplicatedLog, AllReplicasLearnDecisions) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 2);
  std::optional<std::size_t> slot;
  w.sim.post(kA, [&] {
    w.replicas[kA]->submit(7, [&](std::size_t s) { slot = s; });
  });
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return slot.has_value(); }, 600_s));
  // Passive learners converge shortly after.
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const auto* r : w.replicas)
          if (r->committed_prefix() < 1) return false;
        return true;
      },
      w.sim.now() + 600_s));
  for (const auto* r : w.replicas) EXPECT_EQ(r->log()[0]->payload, 7);
}

TEST(ReplicatedLog, ConcurrentSubmittersGetDistinctSlots) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 3);
  std::map<process_id, std::size_t> landed;
  for (process_id p = 0; p < 4; ++p)
    w.sim.post(p, [&, p] {
      w.replicas[p]->submit(static_cast<std::int32_t>(p * 10),
                            [&, p](std::size_t s) { landed[p] = s; });
    });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return landed.size() == 4; },
                                        1800_s));
  std::set<std::size_t> slots;
  for (const auto& [p, s] : landed) slots.insert(s);
  EXPECT_EQ(slots.size(), 4u) << "each command lands in its own slot";
  EXPECT_TRUE(check_log_agreement(w.replica_views()));
}

TEST(ReplicatedLog, SequentialSubmissionsKeepOrder) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 4);
  std::vector<std::size_t> slots;
  std::function<void(int)> chain = [&](int i) {
    if (i == 4) return;
    w.replicas[kA]->submit(200 + i, [&, i](std::size_t s) {
      slots.push_back(s);
      chain(i + 1);
    });
  };
  w.sim.post(kA, [&] { chain(0); });
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return slots.size() == 4; }, 1800_s));
  for (std::size_t i = 1; i < slots.size(); ++i)
    EXPECT_LT(slots[i - 1], slots[i]) << "a single submitter's commands "
                                         "occupy increasing slots";
  EXPECT_EQ(w.replicas[kA]->committed_prefix(), 4u);
}

TEST(ReplicatedLog, WorksUnderFigure1F1) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 5);
  std::map<process_id, std::size_t> landed;
  for (process_id p : {kA, kB})
    w.sim.post(p, [&, p] {
      w.replicas[p]->submit(static_cast<std::int32_t>(p + 1),
                            [&, p](std::size_t s) { landed[p] = s; });
    });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return landed.size() == 2; },
                                        1800_s));
  EXPECT_TRUE(check_log_agreement(w.replica_views()));
  // Both U_f1 members converge on the same two-command prefix.
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        return w.replicas[kA]->committed_prefix() >= 2 &&
               w.replicas[kB]->committed_prefix() >= 2;
      },
      w.sim.now() + 1800_s));
  EXPECT_EQ(w.replicas[kA]->log()[0], w.replicas[kB]->log()[0]);
  EXPECT_EQ(w.replicas[kA]->log()[1], w.replicas[kB]->log()[1]);
}

TEST(ReplicatedLog, IsolatedReplicaLearnsNothing) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 6);
  std::optional<std::size_t> slot;
  w.sim.post(kA, [&] {
    w.replicas[kA]->submit(9, [&](std::size_t s) { slot = s; });
  });
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return slot.has_value(); }, 1800_s));
  w.sim.run_until(w.sim.now() + 60_s);
  EXPECT_EQ(w.replicas[kC]->committed_prefix(), 0u)
      << "c cannot hear any decision under f1";
  EXPECT_TRUE(check_log_agreement(w.replica_views()));
}

TEST(ReplicatedLog, DoubleSubmitRejected) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 7);
  bool threw = false;
  w.sim.post(kA, [&] {
    w.replicas[kA]->submit(1, [](std::size_t) {});
    try {
      w.replicas[kA]->submit(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  w.sim.run_until_condition([&] { return threw; }, 1_s);
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace gqs
