// strategy_runtime_test — targeted (non-broadcast) quorum access: the
// selector-driven fast path of quorum_service must preserve
// client-visible results while spending far fewer messages, and the
// timeout escalation must restore the broadcast path's liveness when the
// sampled quorum is disconnected mid-operation (with a mutation check
// that *disabling* escalation hangs the operation).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/factories.hpp"
#include "lincheck/history_checker.hpp"
#include "register/keyed_register.hpp"
#include "strategy/planner.hpp"
#include "strategy/selector.hpp"
#include "workload/clients.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

constexpr process_id kA = 0, kC = 2, kD = 3;

selector_ptr optimal_selector(const generalized_quorum_system& gqs,
                              std::uint64_t seed) {
  return std::make_shared<const quorum_selector>(
      plan_optimal(gqs).strategy, seed);
}

/// All probability mass on one (write) quorum — makes the runtime's
/// sampling fully predictable for the escalation tests.
selector_ptr pure_selector(const generalized_quorum_system& gqs,
                           process_set write_quorum) {
  read_write_strategy s;
  s.reads = quorum_strategy::uniform(gqs.reads);
  s.writes = quorum_strategy::pure(write_quorum);
  return std::make_shared<const quorum_selector>(std::move(s), 1);
}

struct service_run {
  std::uint64_t messages_sent = 0;
  /// Physical messages of the quorum rounds (probes, SET batches and their
  /// acks): everything but gossip. On a healthy complete graph a gossip
  /// broadcast costs exactly n−1 messages (see flooding_test).
  std::uint64_t round_messages = 0;
  std::uint64_t completed = 0;
  std::uint64_t escalations = 0;
  std::uint64_t targeted_groups = 0;
  std::vector<std::uint64_t> quorum_hits;       // summed over processes
  std::vector<std::pair<reg_value, reg_version>> finals;
  bool all_linearizable = true;
  std::string lin_reason;
};

service_run run_service_workload(const generalized_quorum_system& gqs,
                                 selector_ptr selector, std::uint64_t seed) {
  constexpr service_key kKeys = 32;
  service_options options;
  options.selector = std::move(selector);
  component_world<keyed_register_node> world(
      gqs.system_size(), fault_plan::none(gqs.system_size()), seed,
      network_options{}, kKeys, quorum_config::of(gqs), options);

  client_workload_options load;
  load.keys = kKeys;
  load.zipf_theta = 0.9;
  load.read_ratio = 0.5;
  load.ops_per_process = 24;
  load.inflight_window = 2;
  load.seed = 99;
  keyed_node_adapter<keyed_register_node> adapter{world.nodes};
  workload_driver<keyed_node_adapter<keyed_register_node>> driver(
      world.sim, std::move(adapter), load);
  driver.launch();
  const bool done = world.sim.run_until_condition(
      [&] { return driver.done(); }, 120'000'000);
  EXPECT_TRUE(done);
  world.sim.run_until(world.sim.now() + 200000);  // let gossip settle

  service_run r;
  r.messages_sent = world.sim.metrics().messages_sent;
  r.completed = driver.completed();
  r.round_messages = r.messages_sent;
  r.quorum_hits.assign(gqs.system_size(), 0);
  for (const keyed_register_node* node : world.nodes) {
    const service_counters& c = node->counters();
    r.round_messages -= c.gossip_batches_sent * (gqs.system_size() - 1);
    r.escalations += c.escalations;
    r.targeted_groups += c.targeted_probes + c.targeted_set_batches;
    const auto& hits = node->per_process_quorum_hits();
    for (process_id p = 0; p < hits.size(); ++p) r.quorum_hits[p] += hits[p];
  }
  for (service_key k = 0; k < kKeys; ++k) {
    // The client-visible final state of a key is its freshest replica
    // copy: a targeted SET installs only at the sampled write quorum's
    // members, so (unlike broadcast mode) untargeted replicas may hold
    // stale versions — reads stay correct through quorum intersection.
    basic_reg_state<reg_value> freshest;
    for (process_id p = 0; p < gqs.system_size(); ++p) {
      const auto& sp = world.nodes[p]->local_state(k);
      if (sp.version >= freshest.version) freshest = sp;
    }
    r.finals.emplace_back(freshest.value, freshest.version);
    const register_history h = driver.history_of(k);
    if (h.empty()) continue;
    const auto lin = check_history(h);
    if (!lin.linearizable) {
      r.all_linearizable = false;
      r.lin_reason = "key " + std::to_string(k) + ": " + lin.reason;
    }
  }
  return r;
}

TEST(TargetedService, MatchesBroadcastResultsWithFewerMessages) {
  const auto fig = make_figure1();
  const service_run broadcast = run_service_workload(fig.gqs, nullptr, 5);
  const service_run targeted =
      run_service_workload(fig.gqs, optimal_selector(fig.gqs, 11), 5);

  EXPECT_EQ(broadcast.completed, targeted.completed);
  ASSERT_EQ(broadcast.finals.size(), targeted.finals.size());
  for (std::size_t k = 0; k < broadcast.finals.size(); ++k)
    EXPECT_EQ(broadcast.finals[k], targeted.finals[k]) << "key " << k;
  EXPECT_TRUE(broadcast.all_linearizable) << broadcast.lin_reason;
  EXPECT_TRUE(targeted.all_linearizable) << targeted.lin_reason;

  // The targeted engine must spend strictly fewer physical messages on its
  // quorum rounds, with no escalations on a healthy network. (Totals are
  // not compared: gossip dominates both modes, and on Figure 1 a sampled
  // write quorum is nearly all of n, so run-length noise in the gossip
  // count can swamp the fan-out saving.)
  EXPECT_GT(targeted.round_messages, 0u);
  EXPECT_LT(targeted.round_messages, broadcast.round_messages);
  EXPECT_EQ(targeted.escalations, 0u);
  EXPECT_GT(targeted.targeted_groups, 0u);
  EXPECT_EQ(broadcast.targeted_groups, 0u);
  for (std::uint64_t h : broadcast.quorum_hits) EXPECT_EQ(h, 0u);
}

TEST(TargetedService, RejectsSelectorThatCoversNoWriteQuorum) {
  // A selector planned over a different system would make every operation
  // ride the escalation timeout (or hang with escalation disabled) — the
  // service must reject the mismatch at construction.
  const auto fig = make_figure1();
  const selector_ptr mismatched =
      pure_selector(fig.gqs, process_set{0});  // {a} contains no W
  service_options svc;
  svc.selector = mismatched;
  EXPECT_THROW(
      keyed_register_node(4, quorum_config::of(fig.gqs), svc),
      std::invalid_argument);
}

TEST(TargetedService, RealizedLoadTracksPlannerPrediction) {
  const auto fig = make_figure1();
  const plan_result plan = plan_optimal(fig.gqs);
  const auto selector =
      std::make_shared<const quorum_selector>(plan.strategy, 17);
  const service_run run = run_service_workload(fig.gqs, selector, 3);

  std::uint64_t total = 0;
  for (std::uint64_t h : run.quorum_hits) total += h;
  ASSERT_GT(total, 0u);
  // Both GET probes and SET batches sample write quorums, so each
  // process's share of quorum slots should track the write strategy's
  // member probability.
  const double groups =
      static_cast<double>(total) /
      plan.strategy.writes.expected_quorum_size();
  for (process_id p = 0; p < 4; ++p) {
    const double predicted = plan.strategy.writes.member_probability(p);
    const double realized = static_cast<double>(run.quorum_hits[p]) / groups;
    EXPECT_NEAR(realized, predicted, 0.15)
        << "process " << p << " realized " << realized << " predicted "
        << predicted;
  }
}

// ---- escalation: sampled quorum disconnected mid-operation ----

/// A world whose fault plan realizes Figure 1's f1 (d crashes; only the
/// channels (c,a), (a,b), (b,a) stay reliable) from `at` on, with every
/// operation targeting W3 = {c, d} — a quorum f1 makes unreachable from a.
struct escalation_world {
  figure1_system fig = make_figure1();
  component_world<keyed_register_node> world;
  register_history history;

  explicit escalation_world(sim_time fault_at, sim_time escalation_timeout)
      : world(4,
              fault_plan::from_pattern(make_figure1().gqs.fps[0], fault_at),
              7, network_options{}, service_key{4},
              quorum_config::of(make_figure1().gqs),
              make_options(escalation_timeout)) {}

  static service_options make_options(sim_time escalation_timeout) {
    service_options options;
    options.selector =
        pure_selector(make_figure1().gqs, process_set{kC, kD});
    options.escalation_timeout = escalation_timeout;
    return options;
  }

  /// Writes then reads key 0 from process a, recording a history.
  void launch_ops() {
    world.sim.post(kA, [this] {
      record_invoke(reg_op_kind::write, 7);
      world.nodes[kA]->write(0, 7, [this](reg_version installed) {
        record_return(0, 7, installed);
        record_invoke(reg_op_kind::read, 0);
        world.nodes[kA]->read(0, [this](reg_value v, reg_version observed) {
          record_return(1, v, observed);
        });
      });
    });
  }

  bool ops_done() const {
    return history.size() == 2 && history[0].complete() &&
           history[1].complete();
  }

 private:
  void record_invoke(reg_op_kind kind, reg_value value) {
    register_op op;
    op.kind = kind;
    op.proc = kA;
    op.value = value;
    op.invoked_at = world.sim.now();
    op.invoked_stamp = world.sim.take_stamp();
    history.push_back(op);
  }

  void record_return(std::size_t index, reg_value value,
                     reg_version version) {
    register_op& op = history[index];
    op.value = value;
    op.version = version;
    op.returned_at = world.sim.now();
    op.returned_stamp = world.sim.take_stamp();
  }
};

TEST(Escalation, BroadcastFallbackCompletesUnderF1) {
  // f1 strikes at time 0: every targeted message to {c, d} is lost (d is
  // crashed, c unreachable from a), so only the escalation rebroadcast —
  // which covers W1 = {a, b} — can finish the operations.
  escalation_world w(/*fault_at=*/0, /*escalation_timeout=*/40000);
  w.launch_ops();
  const bool done = w.world.sim.run_until_condition(
      [&] { return w.ops_done(); }, 10'000'000);
  ASSERT_TRUE(done) << "operations must survive via broadcast fallback";

  std::uint64_t escalations = 0;
  for (const keyed_register_node* node : w.world.nodes)
    escalations += node->counters().escalations;
  EXPECT_GE(escalations, 1u);

  // The read must observe the write, and the recorded history must be
  // linearizable under the Appendix-B checker.
  EXPECT_EQ(w.history[1].value, 7);
  const auto lin = check_history(w.history);
  EXPECT_TRUE(lin.linearizable) << lin.reason;
}

TEST(Escalation, MutationDisablingEscalationHangs) {
  // Same world, escalation off: the probe to the dead quorum is the only
  // attempt ever made, so the operation must still be pending when the
  // run_until_condition budget expires.
  escalation_world w(/*fault_at=*/0, /*escalation_timeout=*/0);
  w.launch_ops();
  const bool done = w.world.sim.run_until_condition(
      [&] { return w.ops_done(); }, 10'000'000);
  EXPECT_FALSE(done) << "without escalation the op must hang";
  EXPECT_FALSE(w.history.empty());
  EXPECT_FALSE(w.history[0].complete());
}

}  // namespace
}  // namespace gqs
