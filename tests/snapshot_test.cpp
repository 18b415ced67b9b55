#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/factories.hpp"
#include "sim/time.hpp"
#include "strategy/planner.hpp"
#include "strategy/selector.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

constexpr process_id kA = 0, kB = 1, kC = 2;

snapshot_world figure1_snapshot_world(int pattern, std::uint64_t seed) {
  const auto fig = make_figure1();
  return snapshot_world(
      fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0), seed);
}

TEST(Snapshot, InitialScanAllZero) {
  const auto fig = make_figure1();
  snapshot_world w(fig.gqs, fault_plan::none(4), 1);
  w.client.invoke_scan(kA);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 120_s));
  EXPECT_EQ(w.client.history()[0].observed,
            (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(Snapshot, UpdateThenScanSeesIt) {
  const auto fig = make_figure1();
  snapshot_world w(fig.gqs, fault_plan::none(4), 2);
  w.client.invoke_update(kA, 42);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 240_s));
  w.client.invoke_scan(kB);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(1); }, 240_s));
  EXPECT_EQ(w.client.history()[1].observed[kA], 42);
  const auto r =
      check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

TEST(Snapshot, SelectorReachesTheSegmentEngine) {
  // snapshot_node and lattice_agreement_node take the engine's own
  // options, whole: a selector handed to either must target the segments'
  // shared engine, not be dropped on the way.
  const auto fig = make_figure1();
  service_options opts;
  opts.selector = std::make_shared<const quorum_selector>(
      plan_optimal(fig.gqs).strategy, 5);
  world<snapshot_node<std::int64_t>> w(4, fault_plan::none(4), 3,
                                       network_options{}, 4,
                                       quorum_config::of(fig.gqs), opts);
  snapshot_client client{w.sim, w.nodes};
  client.invoke_update(kA, 7);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return client.complete(0); }, 240_s));
  client.invoke_scan(kB);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return client.complete(1); }, 240_s));
  EXPECT_EQ(client.history()[1].observed[kA], 7);
  std::uint64_t targeted = 0;
  for (const auto* node : w.nodes)
    targeted += node->service().counters().targeted_probes;
  EXPECT_GT(targeted, 0u);

  world<lattice_agreement_node> l(4, fault_plan::none(4), 4,
                                  network_options{}, 4,
                                  quorum_config::of(fig.gqs), opts);
  bool decided = false;
  l.nodes[kA]->propose(1, [&](lattice_value) { decided = true; });
  ASSERT_TRUE(l.sim.run_until_condition([&] { return decided; }, 240_s));
  EXPECT_GT(l.nodes[kA]->service().counters().targeted_probes, 0u);
}

TEST(Snapshot, WorksUnderFigure1F1) {
  // Theorem 1 for snapshots: update/scan at U_f1 members completes and
  // linearizes despite the channel failures.
  auto w = figure1_snapshot_world(0, 3);
  w.client.invoke_update(kA, 10);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 600_s));
  w.client.invoke_update(kB, 20);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(1); }, 600_s));
  w.client.invoke_scan(kA);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(2); }, 600_s));
  const auto& scan = w.client.history()[2];
  EXPECT_EQ(scan.observed[kA], 10);
  EXPECT_EQ(scan.observed[kB], 20);
  const auto r = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

TEST(Snapshot, IsolatedProcessScanHangs) {
  auto w = figure1_snapshot_world(0, 4);
  w.client.invoke_scan(kC);  // c is outside U_f1
  w.sim.run_until(60_s);
  EXPECT_FALSE(w.client.complete(0));
}

TEST(Snapshot, ConcurrentUpdatesLinearizable) {
  auto w = figure1_snapshot_world(0, 5);
  // Concurrent updates at a and b, then scans at both.
  w.client.invoke_update(kA, 1);
  w.client.invoke_update(kB, 2);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_complete(); }, 900_s));
  w.client.invoke_scan(kA);
  w.client.invoke_scan(kB);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_complete(); }, 900_s));
  const auto r = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
  // Both completed updates must be visible in both scans (they finished
  // before the scans started).
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(w.client.history()[i].observed[kA], 1);
    EXPECT_EQ(w.client.history()[i].observed[kB], 2);
  }
}

TEST(Snapshot, WriterOverwritesOwnSegment) {
  auto w = figure1_snapshot_world(0, 6);
  w.client.invoke_update(kA, 1);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(0); }, 600_s));
  w.client.invoke_update(kA, 2);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(1); }, 600_s));
  w.client.invoke_scan(kB);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.client.complete(2); }, 600_s));
  EXPECT_EQ(w.client.history()[2].observed[kA], 2);
  const auto r = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

TEST(Snapshot, ScanConcurrentWithBurstOfUpdates) {
  // A scan racing a rapid sequence of updates by the same writer must
  // still return an atomic snapshot — this exercises the borrowed-scan
  // path (the writer moves twice inside the scanner's interval, so the
  // scanner adopts the writer's embedded scan).
  auto w = figure1_snapshot_world(0, 11);
  constexpr process_id a = 0, b = 1;
  // b starts a scan; a immediately chains three updates.
  const auto scan_idx = w.client.invoke_scan(b);
  int updates_done = 0;
  std::function<void(int)> chain = [&](int i) {
    if (i == 3) return;
    w.nodes[a]->update(100 + i, [&, i] {
      ++updates_done;
      chain(i + 1);
    });
  };
  w.sim.post(a, [&] { chain(0); });
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return updates_done == 3 && w.client.complete(scan_idx); },
      1800_s));
  // The scan's view of segment a must be one of the atomic states: the
  // initial 0 or some prefix value of the chain.
  const std::int64_t seen = w.client.history()[scan_idx].observed[a];
  EXPECT_TRUE(seen == 0 || seen == 100 || seen == 101 || seen == 102)
      << seen;
  const auto r = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

TEST(Snapshot, ScannerConcurrentWithUpdaterLinearizes) {
  // A scan at b racing an update at a (different sequential clients),
  // followed by a second scan at a: all three linearize together.
  auto w = figure1_snapshot_world(0, 12);
  constexpr process_id a = 0, b = 1;
  const auto u = w.client.invoke_update(a, 5);
  const auto s1 = w.client.invoke_scan(b);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.complete(u) && w.client.complete(s1); },
      1800_s));
  const auto s2 = w.client.invoke_scan(a);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.complete(s2); }, w.sim.now() + 1800_s));
  // The second scan follows the completed update: it must see it.
  EXPECT_EQ(w.client.history()[s2].observed[a], 5);
  const auto r = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

// Scan/update interleavings across patterns and seeds, checked for
// snapshot linearizability.
class SnapshotSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(SnapshotSweep, InterleavedOpsLinearizable) {
  const auto [pattern, seed] = GetParam();
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  auto w = snapshot_world(
      fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0), seed);
  std::vector<process_id> members(u_f.begin(), u_f.end());
  // Round 1: everyone in U_f updates concurrently.
  int value = 1;
  for (process_id p : members) w.client.invoke_update(p, value++);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_complete(); }, 900_s));
  // Round 2: everyone scans concurrently.
  for (process_id p : members) w.client.invoke_scan(p);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_complete(); }, 900_s));
  const auto r = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(Patterns, SnapshotSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0u, 1u)));

}  // namespace
}  // namespace gqs
