// Tests for the sharded, pipelined SMR service (smr/smr_service.hpp):
// commit and convergence over Figure-1 and threshold systems, command
// forwarding, batching, sharding, lease-driven leader re-election after a
// crash, retry-based exactly-once application, and strategy-targeted
// phase quorums (fewer messages, identical outcomes, escalation as the
// liveness fallback).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/factories.hpp"
#include "strategy/planner.hpp"
#include "strategy/shard_plan.hpp"
#include "workload/smr_workload.hpp"

namespace gqs {
namespace {

constexpr sim_time kLong = 600L * 1000 * 1000;  // 600 s

/// Submits `count` writes from `proc` (keys round-robin) and counts
/// completions at the submitting replica.
struct submit_batch {
  std::uint64_t completed = 0;

  void fire(simulation& sim, smr_service* node, process_id proc,
            service_key keys, std::uint64_t count, sim_time at = 0) {
    sim.post_after(proc, at, [this, node, proc, keys, count] {
      for (std::uint64_t i = 0; i < count; ++i)
        node->submit_write(static_cast<service_key>(i % keys),
                           pack_client_value(proc, i),
                           [this](reg_version) { ++completed; });
    });
  }
};

TEST(SmrService, CommitsAndConvergesOnFigure1) {
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::none(4), /*seed=*/1, /*keys=*/8);
  submit_batch a, b;
  a.fire(w.sim, w.nodes[0], 0, 8, 16);
  b.fire(w.sim, w.nodes[2], 2, 8, 16);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return a.completed == 16 && b.completed == 16; }, kLong));
  // Let commits propagate to every passive learner.
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 32); }, kLong));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  // All replicas applied the identical log, so per-key states agree.
  for (service_key k = 0; k < 8; ++k)
    for (const smr_service* r : w.nodes)
      EXPECT_EQ(r->state_of(k), w.nodes[0]->state_of(k)) << "key " << k;
}

TEST(SmrService, ShardsPartitionTheKeyspace) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.shards = 4;
  smr_world w(gqs, fault_plan::none(4), 2, /*keys=*/8, opts);
  EXPECT_EQ(w.nodes[0]->shard_of(5), 5u % 4u);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[1], 1, 8, 24);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 24; },
                                        kLong));
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 24); }, kLong));
  // Every shard carried some of the keys (24 writes over 8 keys, keys
  // round-robin over 4 shards).
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GT(w.nodes[0]->applied_prefix(s), 0u) << "shard " << s;
  // Default leader placement round-robins shards over processes.
  EXPECT_EQ(w.nodes[0]->leader_of(0, 1), 0);
  EXPECT_EQ(w.nodes[0]->leader_of(1, 1), 1);
  EXPECT_EQ(w.nodes[0]->leader_of(3, 1), 3);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, SameInstantCommandsShareOneEntry) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), 3, /*keys=*/4);
  submit_batch batch;
  // 32 commands submitted at the leader in one instant: the flush
  // coalesces them into one batched entry — one Phase-2 round, not 32.
  batch.fire(w.sim, w.nodes[0], 0, 4, 32);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 32; },
                                        kLong));
  EXPECT_EQ(w.nodes[0]->counters().entries_proposed, 1u);
  EXPECT_EQ(w.nodes[0]->counters().commands_applied, 32u);
}

TEST(SmrService, PipelineCapsInflightNotThroughput) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.pipeline_window = 2;
  opts.max_batch = 4;
  smr_world w(gqs, fault_plan::none(4), 4, /*keys=*/4, opts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[0], 0, 4, 32);  // 8 entries through a window of 2
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 32; },
                                        kLong));
  EXPECT_EQ(w.nodes[0]->counters().entries_proposed, 8u);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, NonLeaderSubmissionsForwardToLeader) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), 5, /*keys=*/4);
  // Shard 0's initial leader is process 0; submit at process 3.
  submit_batch batch;
  batch.fire(w.sim, w.nodes[3], 3, 4, 8);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 8; },
                                        kLong));
  EXPECT_EQ(w.nodes[3]->counters().commands_forwarded, 8u);
  EXPECT_GE(w.nodes[0]->counters().entries_proposed, 1u);
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, LeaderCrashReElectsAndRecovers) {
  const auto gqs = threshold_quorum_system(4, 1);
  // Process 0 leads shard 0 in view 1 and crashes mid-run.
  auto faults = fault_plan::none(4);
  faults.crash(0, 500000);
  smr_world w(gqs, std::move(faults), 6, /*keys=*/4);
  submit_batch before, after;
  before.fire(w.sim, w.nodes[1], 1, 4, 4);
  after.fire(w.sim, w.nodes[2], 2, 4, 4, /*at=*/1000000);  // post-crash
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return before.completed == 4 && after.completed == 4; }, kLong));
  // Survivors advanced past view 1 on lease expiry and re-elected.
  EXPECT_GT(w.nodes[1]->view_of(0), 1u);
  EXPECT_GT(w.nodes[1]->counters().view_changes +
                w.nodes[2]->counters().view_changes +
                w.nodes[3]->counters().view_changes,
            0u);
  std::vector<const smr_service*> survivors = {w.nodes[1], w.nodes[2],
                                               w.nodes[3]};
  EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
}

TEST(SmrService, RetriesApplyExactlyOnce) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  // Resubmit far faster than the network settles: commands get forwarded
  // multiple times and may land in several entries; the per-submitter
  // sequence filters keep application exactly-once at every replica.
  opts.resubmit_timeout = 15000;  // 15 ms, under the max network delay
  smr_world w(gqs, fault_plan::none(4), 7, /*keys=*/4, opts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[3], 3, 4, 12);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 12; },
                                        kLong));
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 12); }, kLong));
  std::uint64_t retries = 0;
  for (const smr_service* r : w.nodes) retries += r->counters().retries;
  EXPECT_GT(retries, 0u);
  for (const smr_service* r : w.nodes)
    EXPECT_EQ(r->counters().commands_applied, 12u)
        << "replica applied a duplicate or lost a command";
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, TargetedPhasesMatchBroadcastWithFewerMessages) {
  const auto gqs = threshold_quorum_system(8, 2);
  const auto plan = plan_optimal(gqs);
  auto run = [&](selector_ptr selector) {
    smr_options opts;
    opts.shard_selectors = {std::move(selector)};
    smr_world w(gqs, fault_plan::none(8), 11, /*keys=*/8, opts);
    submit_batch batch;
    batch.fire(w.sim, w.nodes[2], 2, 8, 40);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return batch.completed == 40; }, kLong));
    EXPECT_TRUE(
        w.sim.run_until_condition([&] { return converged(w, 40); }, kLong));
    std::map<service_key, reg_state> finals;
    for (service_key k = 0; k < 8; ++k) finals[k] = w.nodes[0]->state_of(k);
    EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
    return std::pair(finals, w.sim.metrics().messages_sent);
  };
  const auto [broadcast_finals, broadcast_msgs] = run(nullptr);
  const auto sel =
      std::make_shared<const quorum_selector>(plan.strategy, 0x5742);
  const auto [targeted_finals, targeted_msgs] = run(sel);
  EXPECT_EQ(broadcast_finals, targeted_finals);
  EXPECT_LT(targeted_msgs, broadcast_msgs);
}

TEST(SmrService, EscalationRestoresLivenessUnderCrash) {
  const auto gqs = threshold_quorum_system(4, 1);
  // Process 3 is crashed from the start. Leader 0's Phase 1 targets the
  // live read quorum {0, 1, 2}, but every Phase-2 round targets the write
  // quorum {0, 3}: only the leader itself ever acks, so each round stalls
  // until the escalation broadcast brings in 1 and 2. The leader stays
  // alive and keeps renewing its lease, so no view change rescues a round.
  read_write_strategy strategy;
  strategy.reads = quorum_strategy::pure(process_set{0, 1, 2});
  strategy.writes = quorum_strategy::pure(process_set{0, 3});
  // Returns whether all 20 commands completed, and the escalation count.
  auto run = [&](sim_time escalation_timeout) {
    smr_options opts;
    opts.shard_selectors = {
        std::make_shared<const quorum_selector>(strategy, 7)};
    opts.escalation_timeout = escalation_timeout;
    auto faults = fault_plan::none(4);
    faults.crash(3, 0);
    smr_world w(gqs, std::move(faults), 12, /*keys=*/4, opts);
    submit_batch batch;
    batch.fire(w.sim, w.nodes[0], 0, 4, 20);
    const bool done = w.sim.run_until_condition(
        [&] { return batch.completed == 20; }, kLong);
    std::uint64_t escalations = 0;
    for (const smr_service* r : w.nodes)
      escalations += r->counters().escalations;
    const std::vector<const smr_service*> survivors = {
        w.nodes[0], w.nodes[1], w.nodes[2]};
    EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
    return std::pair(done, escalations);
  };
  const auto [done, escalations] = run(40000);
  EXPECT_TRUE(done);
  EXPECT_GT(escalations, 0u);
  // Mutation: no escalation — the first Phase-2 round never completes,
  // and the in-order log stalls behind it.
  const auto [mutant_done, mutant_escalations] = run(0);
  EXPECT_FALSE(mutant_done) << "without escalation the log must stall";
  EXPECT_EQ(mutant_escalations, 0u);
}

TEST(SmrService, PerShardPlansDecorrelateLeadersAndSelectors) {
  const auto gqs = threshold_quorum_system(8, 2);
  shard_plan_options opts;
  opts.shards = 4;
  const auto plan = plan_shards(gqs, opts);
  ASSERT_EQ(plan.leaders.size(), 4u);
  ASSERT_EQ(plan.selectors.size(), 4u);
  // Leader duty spreads: no process leads more than ceil(shards / n)=1.
  for (const std::uint64_t c : plan.leader_counts(8)) EXPECT_LE(c, 1u);
  // Different shards draw decorrelated quorum streams.
  bool differ = false;
  for (std::uint64_t i = 0; i < 16 && !differ; ++i)
    differ = !(plan.selectors[0]->sample_write(0, i) ==
               plan.selectors[1]->sample_write(0, i));
  EXPECT_TRUE(differ);

  smr_options sopts;
  sopts.shards = 4;
  sopts.shard_selectors = plan.selectors;
  sopts.leaders = plan.leaders;
  smr_world w(gqs, fault_plan::none(8), 13, /*keys=*/8, sopts);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[0], 0, 8, 32);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return batch.completed == 32; },
                                        kLong));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
}

TEST(SmrService, OptionValidationRejectsBadConfigs) {
  const auto gqs = threshold_quorum_system(4, 1);
  const auto config = quorum_config::of(gqs);
  smr_options bad;
  bad.shards = 0;
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.pipeline_window = 0;
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.heartbeat_period = bad.lease_duration;  // must undercut the lease
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.leaders = {0, 1};  // two leaders for one shard
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.escalation_timeout = -1;
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  EXPECT_THROW(smr_service(0, config, {}), std::invalid_argument);
  // A selector whose write strategy fits but whose read strategy draws a
  // set covering no read quorum: Phase 1 could never gather promises.
  read_write_strategy mismatched;
  mismatched.writes = quorum_strategy::uniform(gqs.writes);
  mismatched.reads = quorum_strategy::pure(process_set{0});
  bad = {};
  bad.shard_selectors = {
      std::make_shared<const quorum_selector>(std::move(mismatched), 1)};
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad.shard_selectors = {std::make_shared<const quorum_selector>(
      plan_optimal(gqs).strategy, 1)};
  EXPECT_NO_THROW(smr_service(4, config, bad));
}

TEST(SmrService, CommitsAndConvergesOnCongestedLinks) {
  // Bandwidth-limited links under the partial-synchrony timing: Phase-2
  // and commit traffic serializes FIFO per link, so batches pay wire time
  // proportional to their entry count. Unbounded queues keep the protocol
  // lossless; leases are long enough to ride out the queueing delay.
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), /*seed=*/6, /*keys=*/8, {}, net);
  submit_batch a, b;
  a.fire(w.sim, w.nodes[0], 0, 8, 24);
  b.fire(w.sim, w.nodes[3], 3, 8, 24);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return a.completed == 24 && b.completed == 24; }, kLong));
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 48); }, kLong));
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  EXPECT_GT(w.sim.metrics().bytes_sent, 0u);
  EXPECT_EQ(w.sim.metrics().dropped_queue_full, 0u);
}

}  // namespace
}  // namespace gqs
