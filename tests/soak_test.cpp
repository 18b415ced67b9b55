// soak_test — longer randomized end-to-end runs mixing all the objects.
//
// Each soak iteration drives the register, snapshot and consensus stacks
// through multi-phase workloads under randomized schedules and mid-run
// failure strikes, with every safety checker on. These runs are larger
// than the per-feature tests and exist to shake out interactions the
// focused tests cannot (e.g. gossip interleaving with view timers across
// a strike).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "history_mutations.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "register/keyed_register.hpp"
#include "sim/flooding.hpp"
#include "sim/transport.hpp"
#include "workload/clients.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

constexpr sim_time kBudget = 1800L * 1000 * 1000;

/// Total out-of-order dedup backlog across all flooding endpoints — the
/// only flooding dedup state not covered by a high-water mark. The soak
/// rounds below assert it stays flat instead of growing with traffic.
std::size_t total_dedup_backlog(simulation& sim) {
  std::size_t total = 0;
  for (process_id p = 0; p < sim.size(); ++p)
    if (const auto* f = dynamic_cast<const flooding_node*>(&sim.node_at(p)))
      total += f->dedup_backlog();
  return total;
}

class SoakSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SoakSweep, RegisterManyRoundsAcrossStrike) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(seed);
  const auto fig = make_figure1();
  const int pattern = static_cast<int>(seed % 4);
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  const sim_time strike = 200'000 + (seed % 3) * 150'000;

  register_world<gqs_register_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[pattern], strike), seed,
      network_options{}, quorum_config::of(fig.gqs), reg_state{},
      push_qaf_options{});

  std::bernoulli_distribution is_write(0.6);
  std::uniform_int_distribution<int> val(1, 500);

  // 10 rounds of one-op-per-U_f-member; rounds may straddle the strike.
  // The flooding dedup backlog is sampled mid-run and at the end: it must
  // stay flat (bounded by in-flight reordering), not grow with traffic.
  std::size_t backlog_mid = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::size_t> batch;
    for (process_id p : u_f) {
      if (is_write(rng))
        batch.push_back(w.client.invoke_write(p, val(rng)));
      else
        batch.push_back(w.client.invoke_read(p));
    }
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] {
          for (std::size_t idx : batch)
            if (!w.client.complete(idx)) return false;
          return true;
        },
        w.sim.now() + kBudget))
        << "round " << round << " seed " << seed;
    if (round == 4) backlog_mid = total_dedup_backlog(w.sim);
  }
  const std::size_t backlog_end = total_dedup_backlog(w.sim);
  EXPECT_LE(backlog_end, backlog_mid + 64)
      << "dedup state must not grow with traffic (seed " << seed << ")";
  ASSERT_LE(w.client.history().size(), 64u);
  const auto bb = check_linearizable(w.client.history());
  EXPECT_TRUE(bb.linearizable) << bb.reason;
  const auto wb = check_history(w.client.history());
  EXPECT_TRUE(wb.linearizable) << wb.reason;
}

TEST_P(SoakSweep, SnapshotScanUpdateMix) {
  const unsigned seed = GetParam();
  const auto fig = make_figure1();
  const int pattern = static_cast<int>((seed + 1) % 4);
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  snapshot_world w(fig.gqs,
                   fault_plan::from_pattern(fig.gqs.fps[pattern], 0), seed);
  std::mt19937_64 rng(seed * 7);
  std::bernoulli_distribution is_scan(0.4);
  for (int round = 0; round < 4; ++round) {
    for (process_id p : u_f) {
      if (is_scan(rng))
        w.client.invoke_scan(p);
      else
        w.client.invoke_update(p, round * 10 + static_cast<int>(p));
    }
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.all_complete(); }, w.sim.now() + kBudget))
        << "round " << round;
  }
  const auto check = check_snapshot_linearizable(w.client.history(), 4);
  EXPECT_TRUE(check.linearizable) << check.reason;
}

TEST_P(SoakSweep, ConsensusFleetUnderLateGst) {
  const unsigned seed = GetParam();
  const auto fig = make_figure1();
  const int pattern = static_cast<int>(seed % 4);
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  // Asynchronous prefix of up to 1 s; failures strike mid-prefix.
  const sim_time gst = 300'000 + (seed % 4) * 200'000;
  consensus_world w(fig.gqs,
                    fault_plan::from_pattern(fig.gqs.fps[pattern], gst / 2),
                    seed, consensus_world::partial_sync(gst));
  std::int64_t v = 100;
  for (process_id p : u_f) w.client.invoke_propose(p, v++);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.client.all_decided(u_f); }, 3600L * 1000 * 1000))
      << "seed " << seed << " pattern " << pattern << " gst " << gst;
  const auto safety = check_consensus(w.client.outcomes(), u_f);
  EXPECT_TRUE(safety.linearizable) << safety.reason;
}

// ---- streaming checker live inside a multi-key service soak ----

/// Staged channel churn that never unseats quorum access: at `s1` the
/// a↔b channels drop, at `s2` c↔d follow. Every process keeps a full
/// figure-1 read quorum ({a,c} or {b,d}) and write quorum reachable
/// throughout, so the run terminates while the gossip and quorum paths
/// reroute mid-flight.
fault_plan churn_plan(sim_time s1, sim_time s2) {
  fault_plan plan(4);
  plan.disconnect(0, 1, s1);
  plan.disconnect(1, 0, s1);
  plan.disconnect(2, 3, s2);
  plan.disconnect(3, 2, s2);
  return plan;
}

TEST_P(SoakSweep, KeyedServiceStreamingCheckerAcrossChurn) {
  const unsigned seed = GetParam();
  constexpr process_id kN = 4;
  constexpr service_key kKeys = 16;
  const auto fig = make_figure1();
  const sim_time s1 = 150'000 + (seed % 3) * 100'000;
  world<keyed_register_node> w(kN, churn_plan(s1, 2 * s1), seed,
                               network_options{}, kKeys,
                               quorum_config::of(fig.gqs), service_options{});
  simulation& sim = w.sim;

  client_workload_options opts;
  opts.keys = kKeys;
  opts.zipf_theta = 0.9;
  opts.read_ratio = 0.5;
  opts.ops_per_process = 120;
  opts.inflight_window = 2;
  opts.partition_writes = true;
  opts.seed = 1000 + seed;
  keyed_node_adapter<keyed_register_node> adapter{w.nodes};
  workload_driver<keyed_node_adapter<keyed_register_node>> driver(
      sim, std::move(adapter), opts);

  // The checker runs live off the driver hooks; the retirement hook and
  // active_ops() sampling verify the window stays O(concurrency), not
  // O(history).
  streaming_checker checker(kKeys);
  std::uint64_t hook_retired = 0;
  checker.set_retire_hook(
      [&](service_key, std::uint64_t n) { hook_retired += n; });
  std::size_t peak_window = 0;
  driver.on_issue = [&](const keyed_register_op& rec, std::size_t) {
    checker.on_invoke(rec);
  };
  driver.on_complete_op = [&](const keyed_register_op& rec,
                              std::size_t idx) {
    checker.on_complete(rec, idx);
    peak_window = std::max(peak_window, checker.active_ops());
  };

  driver.launch();
  ASSERT_TRUE(sim.run_until_condition([&] { return driver.done(); },
                                      sim.now() + kBudget))
      << "service stalled across churn, seed " << seed;
  const auto& live = checker.finish();
  EXPECT_TRUE(live.linearizable) << live.reason;
  EXPECT_EQ(checker.checked_ops(), driver.completed());
  // Window memory: everything retired once the run drains, and the live
  // graph never held more than a small multiple of the in-flight ops
  // (4 processes × window 2), far below the full history.
  EXPECT_EQ(checker.active_ops(), 0u);
  EXPECT_EQ(checker.retired_ops(), driver.completed());
  EXPECT_EQ(hook_retired, checker.retired_ops());
  EXPECT_LE(peak_window, 64u);
  EXPECT_LT(peak_window, driver.completed() / 2);

  // Batch cross-check of the same run.
  const auto batch = check_keyed_history(driver.history(), kKeys);
  EXPECT_TRUE(batch.linearizable) << batch.reason;
  EXPECT_EQ(batch.checked_ops, driver.completed());

  // Inject a stale read into one key's projection and replay: a fresh
  // streaming checker must flag it in the window where it happens — not
  // at the end of the run.
  for (service_key k = 0; k < kKeys; ++k) {
    register_history proj = driver.history_of(k);
    const auto touched = mutate_stale_read(proj, seed);
    if (touched.empty()) continue;
    streaming_checker dirty(kKeys);
    const auto& verdict = replay_streaming(dirty, proj, k);
    ASSERT_FALSE(verdict.linearizable) << "key " << k;
    // The violation latches exactly when the stale read completes — its
    // position in completion order — not at the end of the replay.
    std::uint64_t victim_pos = 0;
    for (const register_op& op : proj)
      if (op.complete() &&
          op.returned_stamp <= proj[touched.front()].returned_stamp)
        ++victim_pos;
    EXPECT_EQ(dirty.violation_at(), victim_pos);
    EXPECT_TRUE(verdict.cycle_contains(touched.front())) << verdict.reason;
    return;  // one injection per soak iteration is enough
  }
  ADD_FAILURE() << "no key admitted a stale-read injection, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakSweep, ::testing::Range(0u, 8u));

}  // namespace
}  // namespace gqs
