// Tests for the sharded, pipelined SMR service (smr/smr_service.hpp):
// commit and convergence over Figure-1 and threshold systems, command
// forwarding, batching, sharding, schedule-driven leader re-election
// after a crash, the two recoveries of a stepped-down leader's undecided
// entries (Phase 1 and retries), the trace of a slot an older view decides,
// retry-based exactly-once application, and strategy-targeted phase
// quorums (fewer messages, identical outcomes, escalation as the liveness
// fallback), and Theorem 1's liveness under Figure 1's failure patterns,
// at time 0 and mid-run. Also the log entry itself: one shared block per
// batch behind an 8-byte handle, compared by content, and simulations
// that use it running side by side on runner threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "core/parse.hpp"
#include "core/quorum_system.hpp"
#include "sim/runner.hpp"
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
  // Survivors advanced past view 1 on the view schedule and re-elected.
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
  // until the escalation broadcast brings in 1 and 2. View 1 outlasts the
  // run, so no rotation to a new leader rescues a round.
  read_write_strategy strategy;
  strategy.reads = quorum_strategy::pure(process_set{0, 1, 2});
  strategy.writes = quorum_strategy::pure(process_set{0, 3});
  // Returns whether all 20 commands completed, and the escalation count.
  auto run = [&](sim_time escalation_timeout) {
    smr_options opts;
    opts.shard_selectors = {
        std::make_shared<const quorum_selector>(strategy, 7)};
    opts.escalation_timeout = escalation_timeout;
    opts.view_duration_unit = kLong;
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
  bad.view_duration_unit = 0;
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.leaders = {0, 1};  // two leaders for one shard
  EXPECT_THROW(smr_service(4, config, bad), std::invalid_argument);
  bad = {};
  bad.leaders = {7};  // no process 7 at n = 4: must not wrap to process 3
  EXPECT_THROW(smr_world(gqs, fault_plan::none(4), 1, 4, bad),
               std::invalid_argument);
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
  // proportional to their entry count. Links never drop, and growing views
  // ride out the queueing delay.
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
}

void expect_safe(const smr_world& w) {
  EXPECT_TRUE(check_smr_agreement(w.replicas()).linearizable);
  for (const smr_service* r : w.nodes)
    EXPECT_FALSE(r->safety_violation().has_value())
        << *r->safety_violation();
}

TEST(SmrService, UfWritesCommitUnderEveryFigure1Pattern) {
  // Theorem 1 for the SMR: under each f ∈ F every U_f member's writes
  // commit, in broadcast mode over one shard and with per-shard targeted
  // quorums over four.
  const auto fig = make_figure1();
  shard_plan_options spo;
  spo.shards = 4;
  const shard_plan plan = plan_shards(fig.gqs, spo);
  for (const bool targeted : {false, true}) {
    for (std::size_t i = 0; i < fig.gqs.fps.size(); ++i) {
      SCOPED_TRACE((targeted ? "targeted, f" : "broadcast, f") +
                   std::to_string(i + 1));
      smr_options opts;
      if (targeted) {
        opts.shards = 4;
        opts.shard_selectors = plan.selectors;
        opts.leaders = plan.leaders;
      }
      const auto& f = fig.gqs.fps[i];
      smr_world w(fig.gqs, fault_plan::from_pattern(f, 0), 31 + i,
                  /*keys=*/4, opts);
      const process_set u_f = compute_u_f(fig.gqs, f);
      std::vector<submit_batch> batches(4);
      for (const process_id p : u_f)
        batches[p].fire(w.sim, w.nodes[p], p, 4, 3);
      EXPECT_TRUE(w.sim.run_until_condition(
          [&] {
            for (const process_id p : u_f)
              if (batches[p].completed < 3) return false;
            return true;
          },
          kLong));
      expect_safe(w);
    }
  }
}

TEST(SmrService, UfWritesCommitAfterMidRunFailure) {
  // f3 strikes at 200 ms and cuts a, the view-1 leader, off: nothing
  // reaches it, while it still reaches c and d. Its view ends on the
  // schedule, so a, which never hears a later view, cannot hold c and d.
  const auto fig = make_figure1();
  const auto& f3 = fig.gqs.fps[2];
  smr_world w(fig.gqs, fault_plan::from_pattern(f3, 200000), 100,
              /*keys=*/4);
  std::vector<submit_batch> early(4), late(4);
  for (process_id p = 0; p < 4; ++p)
    early[p].fire(w.sim, w.nodes[p], p, 4, 4);
  const process_set u_f = compute_u_f(fig.gqs, f3);
  for (const process_id p : u_f)
    late[p].fire(w.sim, w.nodes[p], p, 4, 3, /*at=*/2000000);
  EXPECT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const process_id p : u_f)
          if (early[p].completed < 4 || late[p].completed < 3) return false;
        return true;
      },
      kLong));
  expect_safe(w);

  // Every read quorum of this system's witness contains 0, and under
  // pattern 4 nothing reaches 0 while 0 still reaches 1. Process 0 wins
  // view 1 before the strike; a 0 that held its view for as long as its
  // write quorum {0} answered would never learn of a later view, so no
  // later Phase 1 would gather its 1B.
  const fail_prone_system fps = parse_fail_prone_system(
      "system 4\n"
      "pattern crash={3} fail={(0,2),(1,2),(2,1)}\n"
      "pattern crash={1} fail={(0,2),(0,3),(3,0)}\n"
      "pattern crash={2} fail={(0,3),(1,3),(3,0)}\n"
      "pattern crash={} fail={(0,2),(0,3),(1,0),(1,2),(2,0),(2,1),(2,3),"
      "(3,0)}\n");
  const std::optional<gqs_witness> witness = find_gqs(fps);
  ASSERT_TRUE(witness.has_value());
  const failure_pattern& f4 = fps[3];
  ASSERT_EQ(compute_u_f(witness->system, f4), (process_set{1, 3}));
  for (const sim_time strike : {50000, 100000, 200000, 400000}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("pattern 4 at " + std::to_string(strike / 1000) +
                   " ms, seed " + std::to_string(seed));
      smr_world rw(witness->system, fault_plan::from_pattern(f4, strike),
                   seed, /*keys=*/4);
      std::vector<submit_batch> writes(4);
      for (const process_id p : {1, 3})
        writes[p].fire(rw.sim, rw.nodes[p], p, 4, 1, /*at=*/2000000);
      EXPECT_TRUE(rw.sim.run_until_condition(
          [&] { return writes[1].completed == 1 && writes[3].completed == 1; },
          kLong));
      expect_safe(rw);
    }
  }
}

/// Every member of `racers` submits one write in the same instant; returns
/// once each has applied its own.
void race_round(smr_world& w, const process_set& racers, std::uint64_t round) {
  std::size_t done = 0;
  for (const process_id p : racers)
    w.sim.post(p, [&w, &done, p, round] {
      w.nodes[p]->submit_write(p, pack_client_value(p, round),
                               [&done](reg_version) { ++done; });
    });
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return done == static_cast<std::size_t>(racers.size()); },
      w.sim.now() + kLong));
}

TEST(SmrService, RepeatedRoundsKeepPrefixExactlyOnce) {
  // Two back-to-back contention rounds, without faults (all four race) and
  // under each Figure 1 pattern (the U_f members race): at every racer the
  // applied log holds each command exactly once, the second round's after
  // the first round's.
  const auto fig = make_figure1();
  for (std::size_t i = 0; i <= fig.gqs.fps.size(); ++i) {
    SCOPED_TRACE(i == 0 ? "no faults" : "f" + std::to_string(i));
    const failure_pattern* f = i == 0 ? nullptr : &fig.gqs.fps[i - 1];
    smr_world w(fig.gqs, f ? fault_plan::from_pattern(*f, 0)
                           : fault_plan::none(4),
                41 + i, /*keys=*/4);
    const process_set racers =
        f ? compute_u_f(fig.gqs, *f) : process_set::full(4);
    race_round(w, racers, 0);
    race_round(w, racers, 1);
    const std::size_t total = 2 * static_cast<std::size_t>(racers.size());
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] {
          for (const process_id r : racers)
            if (w.nodes[r]->counters().commands_applied < total) return false;
          return true;
        },
        w.sim.now() + kLong));
    for (const process_id r : racers) {
      EXPECT_EQ(w.nodes[r]->counters().commands_applied, total);
      // First position of each (submitter, seq) in the applied log.
      std::map<std::pair<process_id, std::uint32_t>, std::size_t> first;
      std::size_t pos = 0;
      const auto& log = w.nodes[r]->log(0);
      for (std::uint64_t s = 0; s < w.nodes[r]->applied_prefix(0); ++s)
        for (const smr_command& c : *log[s])
          first.try_emplace({c.submitter, c.submit_seq}, pos++);
      ASSERT_EQ(first.size(), total) << "a command is missing";
      for (const process_id p : racers)
        for (const process_id q : racers)
          EXPECT_LT(first.at({p, 0u}), first.at({q, 1u}));
    }
    expect_safe(w);
  }
}

TEST(SmrService, IsolatedReplicaLearnsNothing) {
  // Under f1 nothing reaches c: it enters views, pushes 1Bs and campaigns
  // on its own schedule, but learns no decision.
  const auto fig = make_figure1();
  smr_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 6,
              /*keys=*/4);
  submit_batch a;
  a.fire(w.sim, w.nodes[0], 0, 4, 1);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return a.completed == 1; }, kLong));
  w.sim.run_until(w.sim.now() + 60L * 1000 * 1000);
  EXPECT_GT(w.nodes[2]->view_of(0), 1u);
  EXPECT_EQ(w.nodes[2]->applied_prefix(0), 0u)
      << "c cannot hear any decision under f1";
  expect_safe(w);
}

/// A replica deaf to Phase-2 and commit traffic while `deaf` is set.
struct deaf_replica : smr_service {
  using smr_service::smr_service;
  bool deaf = false;
  void deliver(process_id origin, const message_ptr& payload) override {
    if (deaf && (message_cast<p2a_msg>(payload) ||
                 message_cast<commit_msg>(payload)))
      return;
    smr_service::deliver(origin, payload);
  }
};

TEST(SmrService, LaggingLeaderRecoversEntriesFromPushedReports) {
  // Process 1, view 2's leader, misses every accept and commit of view 1.
  // When leader 0 crashes, 1 must learn the committed entries from the
  // 1B reports 2 and 3 push on entering view 2, or its log would fork.
  // View 1 lasts 500 ms, past the crash; view 2 lasts until 1.5 s.
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.view_duration_unit = 500000;
  auto faults = fault_plan::none(4);
  faults.crash(0, 300000);
  world<deaf_replica> w(4, std::move(faults), 8,
                        consensus_world::partial_sync(), [&](process_id p) {
                          auto r = std::make_unique<deaf_replica>(
                              4, quorum_config::of(gqs), opts);
                          r->deaf = p == 1;
                          return r;
                        });
  std::vector<submit_batch> before(3);
  for (int i = 0; i < 3; ++i)  // three entries, one per instant
    before[i].fire(w.sim, w.nodes[0], 0, 4, 2, /*at=*/20000 * i);
  w.sim.run_until(290000);
  for (const submit_batch& b : before) ASSERT_EQ(b.completed, 2u);
  ASSERT_EQ(w.nodes[2]->applied_prefix(0), 3u);
  ASSERT_EQ(w.nodes[1]->applied_prefix(0), 0u);

  submit_batch after;
  after.fire(w.sim, w.nodes[2], 2, 4, 2, /*at=*/1000000 - w.sim.now());
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return after.completed == 2; }, kLong));
  EXPECT_EQ(w.nodes[1]->view_of(0), 2u);
  EXPECT_GT(w.nodes[1]->counters().entries_proposed, 0u);
  ASSERT_GE(w.nodes[1]->applied_prefix(0), 4u);
  for (std::uint64_t s = 0; s < 3; ++s)
    EXPECT_EQ(*w.nodes[1]->log(0)[s], *w.nodes[2]->log(0)[s]) << "slot " << s;
  EXPECT_EQ(w.nodes[1]->counters().commands_applied, 8u);
  const std::vector<const smr_service*> survivors = {w.nodes[1], w.nodes[2],
                                                     w.nodes[3]};
  EXPECT_TRUE(check_smr_agreement(survivors).linearizable);
  for (const smr_service* r : survivors)
    EXPECT_FALSE(r->safety_violation().has_value());
}

// ---------------------------------------------------------------------------
// log entries: one immutable block per batch behind an 8-byte handle

static_assert(sizeof(smr_entry_ptr) == sizeof(void*));

/// `count` distinct commands; `base` shifts every written value.
std::vector<smr_command> commands(std::uint32_t count, reg_value base = 0) {
  std::vector<smr_command> out(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out[i].key = i;
    out[i].value = base + i;
    out[i].submitter = i % 4;
    out[i].submit_seq = i;
  }
  return out;
}

smr_entry_ptr entry_of(const std::vector<smr_command>& cmds) {
  return smr_entry::make(cmds.begin(), cmds.size());
}

TEST(SmrEntry, HandlesShareOneBlockAndTheLastReleaseFreesIt) {
  const std::vector<smr_command> cmds = commands(3);
  smr_entry_ptr a = entry_of(cmds);
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->size(), 3u);
  EXPECT_FALSE(a->empty());
  EXPECT_TRUE(std::equal(a->begin(), a->end(), cmds.begin(), cmds.end()));
  EXPECT_EQ((*a)[2], cmds[2]);
  const smr_entry* block = a.get();
  {
    smr_entry_ptr b = a;
    EXPECT_EQ(b.get(), block);
    EXPECT_EQ(a.use_count(), 2u);
    smr_entry_ptr c = std::move(b);  // a move adds no reference
    EXPECT_FALSE(b);
    EXPECT_EQ(b.use_count(), 0u);
    EXPECT_EQ(c.get(), block);
    EXPECT_EQ(a.use_count(), 2u);
    const smr_entry_ptr& alias = c;
    c = alias;  // self-assignment keeps the reference
    EXPECT_EQ(a.use_count(), 2u);
    b = a;  // copy-assignment into a moved-from handle
    EXPECT_EQ(a.use_count(), 3u);
    c = nullptr;
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(b, a);
  }
  EXPECT_EQ(a.use_count(), 1u);
  // The last release frees the block exactly once: ASan reports a double
  // free or a use after free, LeakSanitizer a block never freed.
  a = smr_entry_ptr();
  EXPECT_FALSE(a);
  EXPECT_EQ(a.use_count(), 0u);
}

TEST(SmrEntry, BatchesCompareByContent) {
  const smr_entry_ptr a = entry_of(commands(4));
  const smr_entry_ptr b = entry_of(commands(4));
  EXPECT_NE(a, b) << "handles compare by identity";
  EXPECT_TRUE(*a == *b);
  EXPECT_TRUE(*a == *a);
  EXPECT_FALSE(*a == *entry_of(commands(4, 100)));
  EXPECT_FALSE(*a == *entry_of(commands(3))) << "a prefix is another batch";
  EXPECT_FALSE(*a == *entry_of(commands(5)));
  std::vector<smr_command> swapped = commands(4);
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(*a == *entry_of(swapped)) << "order is part of the batch";
  EXPECT_TRUE(*smr_entry::make_empty() == *smr_entry::make_empty());
  EXPECT_FALSE(*a == *smr_entry::make_empty());
  EXPECT_EQ(smr_service::entry_wire_size(a), 4 * sizeof(smr_command));
  EXPECT_EQ(smr_service::entry_wire_size(nullptr), 0u);
}

/// Converged logs: every replica's slot holds the very block the others
/// hold (entries are built once, at the proposing leader, and shared).
void expect_one_block_per_slot(const smr_world& w) {
  const smr_service& first = *w.nodes.front();
  std::size_t slots = 0;
  for (std::size_t s = 0; s < first.shard_count(); ++s) {
    for (std::uint64_t i = 0; i < first.applied_prefix(s); ++i) {
      const smr_entry* block = first.log(s)[i].get();
      ASSERT_NE(block, nullptr) << "shard " << s << " slot " << i;
      for (const smr_service* r : w.nodes) {
        ASSERT_EQ(r->applied_prefix(s), first.applied_prefix(s));
        EXPECT_EQ(r->log(s)[i].get(), block)
            << "shard " << s << " slot " << i;
      }
      ++slots;
    }
  }
  EXPECT_GT(slots, 0u);
}

TEST(SmrService, ReplicasShareOneBlockPerSlot) {
  const auto gqs = threshold_quorum_system(8, 2);
  shard_plan_options spo;
  spo.shards = 4;
  const shard_plan plan = plan_shards(gqs, spo);
  smr_options opts;
  opts.shards = 4;
  opts.shard_selectors = plan.selectors;
  opts.leaders = plan.leaders;
  smr_world w(gqs, fault_plan::none(8), 21, /*keys=*/16, opts);
  std::vector<submit_batch> batches(8);
  for (process_id p = 0; p < 8; ++p)
    batches[p].fire(w.sim, w.nodes[p], p, 16, 40, /*at=*/1000 * p);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 320); }, kLong));
  expect_one_block_per_slot(w);
  expect_safe(w);
}

TEST(SmrService, ConflictingCommitLatchesSafetyViolation) {
  const auto gqs = threshold_quorum_system(4, 1);
  smr_world w(gqs, fault_plan::none(4), 22, /*keys=*/4);
  submit_batch batch;
  batch.fire(w.sim, w.nodes[0], 0, 4, 4);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 4); }, kLong));
  expect_safe(w);
  smr_service& r = *w.nodes[2];
  const smr_entry_ptr chosen = r.log(0)[0];
  ASSERT_TRUE(chosen);
  ASSERT_FALSE(chosen->empty());
  const auto commit = [&](smr_entry_ptr entry) {
    w.sim.post(2, [&r, entry] {
      r.deliver(0, make_message<smr_service::commit_msg>(0, r.view_of(0), 0,
                                                         entry));
    });
    w.sim.run_until(w.sim.now() + 1000);
  };
  // The same decision in another block is a redelivery, not a conflict.
  commit(smr_entry::make(chosen->begin(), chosen->size()));
  EXPECT_FALSE(r.safety_violation().has_value());
  // A batch of the same size with one value changed is a second decision.
  std::vector<smr_command> forged(chosen->begin(), chosen->end());
  forged[0].value += 1;
  commit(entry_of(forged));
  ASSERT_TRUE(r.safety_violation().has_value());
  EXPECT_NE(r.safety_violation()->find("slot 0"), std::string::npos)
      << *r.safety_violation();
  EXPECT_EQ(r.log(0)[0], chosen) << "the first decision stays in the log";
  EXPECT_FALSE(check_smr_agreement(w.replicas()).linearizable);
}

/// A replica deaf to every view-1 accept of one slot.
struct slot_deaf_replica : smr_service {
  using smr_service::smr_service;
  std::uint64_t deaf_slot = UINT64_MAX;
  void deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* m = message_cast<p2a_msg>(payload))
      if (m->view == 1 && m->slot == deaf_slot) return;
    smr_service::deliver(origin, payload);
  }
};

TEST(SmrEntry, GapFillersAreNonNullAndEmpty) {
  const smr_entry_ptr filler = smr_entry::make_empty();
  ASSERT_TRUE(filler);
  EXPECT_TRUE(filler->empty());
  EXPECT_EQ(filler->size(), 0u);
  EXPECT_EQ(filler->begin(), filler->end());
  EXPECT_EQ(smr_service::entry_wire_size(filler), 0u);

  // Leader 0 proposes slot 0, which nobody else accepts, and slot 1, which
  // everyone does, then crashes inside view 1. View 2's leader finds no
  // accepted value for slot 0 in any report: it closes the gap with a
  // no-op entry and re-proposes slot 1's batch above it.
  const auto gqs = threshold_quorum_system(4, 1);
  auto faults = fault_plan::none(4);
  faults.crash(0, 30000);
  world<slot_deaf_replica> w(4, std::move(faults), 23,
                             consensus_world::partial_sync(), [&](process_id) {
                               auto r = std::make_unique<slot_deaf_replica>(
                                   4, quorum_config::of(gqs), smr_options{});
                               r->deaf_slot = 0;
                               return r;
                             });
  submit_batch first, second;
  first.fire(w.sim, w.nodes[0], 0, 4, 2);
  second.fire(w.sim, w.nodes[0], 0, 4, 2, /*at=*/5000);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (process_id p = 1; p < 4; ++p)
          if (w.nodes[p]->applied_prefix(0) < 2) return false;
        return true;
      },
      kLong));
  for (process_id p = 1; p < 4; ++p) {
    const auto& log = w.nodes[p]->log(0);
    ASSERT_TRUE(log[0]) << "replica " << p;
    EXPECT_TRUE(log[0]->empty()) << "replica " << p;
    ASSERT_TRUE(log[1]);
    EXPECT_EQ(log[1]->size(), 2u);
    EXPECT_EQ(log[0].get(), w.nodes[1]->log(0)[0].get());
    EXPECT_FALSE(w.nodes[p]->safety_violation().has_value());
  }
}

TEST(SmrService, DedupedCommandsStayWithinRetries) {
  // Congested links, short views and a resubmit timeout under the queueing
  // delay: submitters re-route commands whose entries are still in flight,
  // and some of those entries are chosen anyway. A leader that leaves its
  // view re-routes nothing it proposed, so every duplicate a replica skips
  // was put into the log a second time by a retry somewhere.
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.view_duration_unit = 5000;  // 5 ms
  opts.resubmit_timeout = 15000;   // 15 ms
  smr_world w(gqs, fault_plan::none(4), 24, /*keys=*/8, opts, net);
  std::vector<submit_batch> batches(4 * 8);
  for (process_id p = 0; p < 4; ++p)
    for (int round = 0; round < 8; ++round)
      batches[p * 8 + round].fire(w.sim, w.nodes[p], p, 8, 16,
                                  /*at=*/20000 * round + 1000 * p);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return converged(w, 512); }, kLong));
  expect_safe(w);
  std::uint64_t retries = 0, view_changes = 0, deduped = 0;
  for (const smr_service* r : w.nodes) {
    retries += r->counters().retries;
    view_changes += r->counters().view_changes;
    deduped = std::max(deduped, r->counters().commands_deduped);
  }
  EXPECT_GT(view_changes, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(deduped, 0u) << "the scenario never committed a retry twice";
  for (const smr_service* r : w.nodes) {
    EXPECT_EQ(r->counters().commands_applied, 512u);
    EXPECT_LE(r->counters().commands_deduped, retries);
  }
  expect_one_block_per_slot(w);
}

/// View 1's leader 0 steps down with two undecided entries. Slot 0 is
/// accepted by every replica, but 0 never hears the acks. Slot 1 reaches
/// no acceptor but 0 itself, and view 2's leader 1 does not hear 0's
/// reports, so its Phase 1 cannot see that acceptance.
struct two_inflight_replica : smr_service {
  using smr_service::smr_service;
  void deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* m = message_cast<p2b_msg>(payload))
      if (id() == 0 && m->view == 1 && m->slot == 0) return;
    if (const auto* m = message_cast<p2a_msg>(payload))
      if (id() != 0 && m->view == 1 && m->slot == 1) return;
    if (message_cast<p1b_msg>(payload) && id() == 1 && origin == 0) return;
    smr_service::deliver(origin, payload);
  }
};

TEST(SmrService, SteppedDownEntriesCommitOnceThroughPhase1OrRetry) {
  // View 1 lasts 300 ms, view 2 until 900 ms. Leader 0 proposes slot 0 at
  // 20 ms and slot 1 at 25 ms, and neither is decided when it steps down.
  // Slot 0, which a write quorum accepted, must come back through view
  // 2's Phase 1 with no retry. Slot 1's commands must come back through
  // their submitter's retry_tick, after resubmit_timeout. Each command
  // commits once: nothing is deduplicated anywhere.
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.view_duration_unit = 300000;
  world<two_inflight_replica> w(
      4, fault_plan::none(4), 25, consensus_world::partial_sync(),
      [&](process_id) {
        return std::make_unique<two_inflight_replica>(
            4, quorum_config::of(gqs), opts);
      });
  std::vector<sim_time> done_at;
  const auto fire = [&](sim_time at) {
    w.sim.post_after(0, at, [&, at] {
      for (service_key k = 0; k < 2; ++k)
        w.nodes[0]->submit_write(k, pack_client_value(0, at + k),
                                 [&](reg_version) {
                                   done_at.push_back(w.sim.now());
                                 });
    });
  };
  fire(20000);
  fire(25000);
  w.sim.run_until(299000);
  ASSERT_EQ(w.nodes[0]->view_of(0), 1u);
  ASSERT_TRUE(done_at.empty()) << "an entry was decided inside view 1";
  ASSERT_EQ(w.nodes[0]->counters().entries_proposed, 2u);

  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const smr_service* r : w.nodes)
          if (r->counters().commands_applied < 4) return false;
        return true;
      },
      800000));
  ASSERT_EQ(done_at.size(), 4u);
  EXPECT_LT(done_at[1], 20000 + opts.resubmit_timeout)
      << "slot 0 waited for a retry";
  EXPECT_GE(done_at[2], 25000 + opts.resubmit_timeout)
      << "slot 1 committed before any retry";
  EXPECT_EQ(w.nodes[0]->counters().retries, 2u);
  for (process_id p = 0; p < 4; ++p) {
    const smr_service& r = *w.nodes[p];
    EXPECT_EQ(r.view_of(0), 2u);
    EXPECT_EQ(r.counters().commands_applied, 4u) << "replica " << p;
    EXPECT_EQ(r.counters().commands_deduped, 0u) << "replica " << p;
    if (p != 0) {
      EXPECT_EQ(r.counters().retries, 0u) << "replica " << p;
    }
    // Every command sits in the applied log once: seqs 0 and 1 in slot 0,
    // where Phase 1 recovered them, 2 and 3 in the slot after.
    std::map<std::uint32_t, int> count;
    for (std::uint64_t s = 0; s < r.applied_prefix(0); ++s)
      for (const smr_command& c : *r.log(0)[s]) {
        ++count[c.submit_seq];
        if (c.submit_seq < 2) {
          EXPECT_EQ(s, 0u) << "replica " << p;
        }
      }
    EXPECT_EQ(count, (std::map<std::uint32_t, int>{{0, 1}, {1, 1}, {2, 1},
                                                   {3, 1}}))
        << "replica " << p;
  }
  const std::vector<const smr_service*> replicas(w.nodes.begin(),
                                                 w.nodes.end());
  EXPECT_TRUE(check_smr_agreement(replicas).linearizable);
  for (const smr_service* r : replicas)
    EXPECT_FALSE(r->safety_violation().has_value());
}

/// Process 0 leads view 1 and holds its view-1 acks for slot 0 until
/// release(); it hears nothing else from 1, so nothing of view 2, which 1
/// leads. Process 1 never hears its own view-2 acks for slot 0.
struct late_win_replica : smr_service {
  using smr_service::smr_service;
  std::vector<std::pair<process_id, message_ptr>> held;
  void deliver(process_id origin, const message_ptr& payload) override {
    const auto* ack = message_cast<p2b_msg>(payload);
    if (id() == 0 && ack && ack->view == 1 && ack->slot == 0) {
      held.emplace_back(origin, payload);
      return;
    }
    if (id() == 0 && origin == 1) return;
    if (id() == 1 && ack && ack->view == 2 && ack->slot == 0) return;
    smr_service::deliver(origin, payload);
  }
  void release() {
    for (const auto& [origin, m] : held) smr_service::deliver(origin, m);
    held.clear();
  }
};

TEST(SmrService, SlotDecidedByAnOlderViewEndsItsPhase2Span) {
  // Leader 0 proposes slot 0 in view 1 and every replica accepts it. At
  // 50 ms a campaign announcement moves 1 into view 2, whose Phase 1
  // re-proposes slot 0. At 100 ms 0 finally hears its view-1 acks, wins
  // slot 0 and commits it, so 1 learns the decision from an older view
  // while its own round for the slot is still open. That commit must end
  // the round: with a pipeline window of one, 1's write at 150 ms gets
  // slot 1 only once slot 0's round is gone. 1's commit announcement for
  // slot 0 must not start before that round's span ends.
  const auto gqs = threshold_quorum_system(4, 1);
  smr_options opts;
  opts.view_duration_unit = kLong;
  opts.pipeline_window = 1;
  network_options net = consensus_world::partial_sync();
  net.record_spans = true;
  world<late_win_replica> w(4, fault_plan::none(4), 26, net,
                            [&](process_id) {
                              return std::make_unique<late_win_replica>(
                                  4, quorum_config::of(gqs), opts);
                            });
  std::size_t done = 0;
  const auto write = [&](process_id p, sim_time at) {
    w.sim.post_after(p, at, [&, p] {
      w.nodes[p]->submit_write(p, pack_client_value(p, 0),
                               [&](reg_version) { ++done; });
    });
  };
  write(0, 20000);
  w.sim.post_after(1, 50000, [&] {
    w.nodes[1]->deliver(2, make_message<smr_service::p1a_msg>(0, 2, 0));
  });
  w.sim.post_after(0, 100000, [&] { w.nodes[0]->release(); });
  write(1, 150000);
  ASSERT_TRUE(w.sim.run_until_condition([&] { return done == 2; }, kLong));
  ASSERT_EQ(w.nodes[1]->view_of(0), 2u);
  ASSERT_EQ(w.nodes[0]->view_of(0), 1u);
  ASSERT_EQ(w.nodes[1]->counters().entries_proposed, 2u);  // slots 0, 1
  ASSERT_EQ(w.nodes[1]->applied_prefix(0), 2u);
  w.sim.run_until(w.sim.now() + 50000);  // an open span ends past the commits

  trace_recorder& tracer = w.sim.obs().tracer;
  tracer.finalize(w.sim.now());
  const std::vector<span_rec>& spans = tracer.spans();
  std::map<std::uint32_t, sim_time> phase2_end, commit_start;
  for (const span_rec& sp : spans) {
    if (sp.name == "smr.phase2") phase2_end[sp.parent] = sp.end;
    if (sp.name == "smr.commit") commit_start[sp.parent] = sp.start;
  }
  std::size_t at_1 = 0;
  for (const auto& [root, end] : phase2_end) {
    const auto c = commit_start.find(root);
    if (c == commit_start.end()) continue;
    EXPECT_GE(c->second, end) << "commit before phase-2 completion at "
                              << spans[root - 1].process;
    at_1 += spans[root - 1].process == 1;
  }
  EXPECT_EQ(at_1, 2u) << "1 announced slots 0 and 1 under their own roots";
  const std::vector<const smr_service*> replicas(w.nodes.begin(),
                                                 w.nodes.end());
  EXPECT_TRUE(check_smr_agreement(replicas).linearizable);
}

/// One SMR cell for the runner: 4 shards over threshold(8, 2) with
/// targeted selectors on congested links, every process submitting.
run_result smr_cell(std::uint64_t seed) {
  const auto gqs = threshold_quorum_system(8, 2);
  shard_plan_options spo;
  spo.shards = 4;
  spo.selector_seed = seed;
  const shard_plan plan = plan_shards(gqs, spo);
  smr_options opts;
  opts.shards = 4;
  opts.shard_selectors = plan.selectors;
  opts.leaders = plan.leaders;
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;
  smr_world w(gqs, fault_plan::none(8), seed, /*keys=*/16, opts, net);
  std::vector<submit_batch> batches(8);
  for (process_id p = 0; p < 8; ++p)
    batches[p].fire(w.sim, w.nodes[p], p, 16, 24, /*at=*/500 * p);
  run_result out;
  out.ok = w.sim.run_until_condition([&] { return converged(w, 192); }, kLong);
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  // The logs themselves, FNV-1a over every command of every applied slot
  // (52 bits, which a double holds exactly).
  std::uint64_t digest = 14695981039346656037ull;
  for (std::size_t s = 0; s < 4; ++s)
    for (std::uint64_t i = 0; i < w.nodes[0]->applied_prefix(s); ++i)
      for (const smr_command& c : *w.nodes[0]->log(s)[i])
        for (const std::uint64_t x :
             {std::uint64_t{c.key}, static_cast<std::uint64_t>(c.value),
              std::uint64_t{c.submitter}, std::uint64_t{c.submit_seq}}) {
          digest ^= x;
          digest *= 1099511628211ull;
        }
  out.stats["log_digest"] = static_cast<double>(digest >> 12);
  out.stats["agreement"] =
      check_smr_agreement(w.replicas()).linearizable ? 1 : 0;
  for (const smr_service* r : w.nodes) {
    out.stats["applied"] += static_cast<double>(r->counters().commands_applied);
    out.stats["entries"] += static_cast<double>(r->counters().entries_proposed);
  }
  return out;
}

TEST(SmrService, RunnerThreadsLeaveSmrCellsUnchanged) {
  // Batches count their handles without atomics, so each simulation must
  // keep its batches to its own thread: four cells on a 2-thread runner
  // come back equal to the 1-thread run (under TSAN, without a report).
  std::vector<run_spec> specs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    specs.push_back(
        {"smr seed " + std::to_string(seed), [seed] { return smr_cell(seed); }});
  const determinism_report report = check_determinism(specs, {1, 2});
  EXPECT_TRUE(report.ok()) << report.error;
  ASSERT_EQ(report.results.size(), 4u);
  for (const run_result& r : report.results) {
    EXPECT_EQ(stat_or(r, "agreement"), 1);
    EXPECT_EQ(stat_or(r, "applied"), 8 * 192);
  }
}

}  // namespace
}  // namespace gqs
