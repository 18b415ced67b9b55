// targeted_round_test — the targeted quorum round (quorum/targeted_round.hpp)
// in isolation, over a transport that records instead of simulating: what
// a round sends, when it arms its escalation timer, and what the
// escalation rebroadcasts. The engines' end-to-end escalation behaviour
// (liveness under a disconnected quorum, and the hang when escalation is
// disabled) is covered in strategy_runtime_test and smr_service_test.
#include "quorum/targeted_round.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace gqs {
namespace {

struct note : message {};

/// Records every send and timer. Process 2 of a 5-process system.
class recording_transport final : public transport {
 public:
  static constexpr process_id kAll = flooding_node::to_all;
  static constexpr int kFirstTimer = 100;

  struct sent {
    process_id dest;  ///< kAll for a broadcast
    message_ptr payload;
  };
  std::vector<sent> sends;
  std::vector<sim_time> timers;  ///< delays, in arming order
  mutable obs_bundle bundle;

  void unicast(process_id dest, const message_ptr& m) override {
    sends.push_back({dest, m});
  }
  void broadcast(const message_ptr& m) override { sends.push_back({kAll, m}); }
  int set_timer(sim_time delay) override {
    timers.push_back(delay);
    return kFirstTimer + static_cast<int>(timers.size()) - 1;
  }
  process_id self() const override { return 2; }
  process_id size() const override { return 5; }
  sim_time now() const override { return 7; }
  obs_bundle* obs() const override { return &bundle; }
};

/// The component a round belongs to; the helper only needs its transport.
struct owner_component final : component {
  void deliver(process_id, const message_ptr&) override {}
};

struct rig {
  recording_transport net;
  owner_component owner;
  std::uint64_t escalations = 0;
  targeted_round rounds;

  explicit rig(sim_time timeout = 40000, const char* layer = nullptr,
               bool self_answers = false)
      : rounds(owner, timeout, escalations, layer, self_answers) {
    owner.bind(net);
  }
};

TEST(TargetedRound, NoQuorumBroadcastsOnceAndArmsNothing) {
  rig r;
  const message_ptr wire = make_message<note>();
  EXPECT_EQ(r.rounds.open(std::nullopt, wire), targeted_round::none);
  ASSERT_EQ(r.net.sends.size(), 1u);
  EXPECT_EQ(r.net.sends[0].dest, recording_transport::kAll);
  EXPECT_EQ(r.net.sends[0].payload, wire);
  EXPECT_TRUE(r.net.timers.empty());
  EXPECT_TRUE(r.rounds.hits().empty());  // no targeted round yet
}

TEST(TargetedRound, QuorumUnicastsEachMemberInAscendingOrder) {
  rig r;
  const message_ptr wire = make_message<note>();
  const targeted_round::handle h =
      r.rounds.open(process_set{4, 0, 2}, wire);
  EXPECT_EQ(h, recording_transport::kFirstTimer);
  ASSERT_EQ(r.net.sends.size(), 3u);
  const process_id expected[] = {0, 2, 4};  // the owner (2) included
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.net.sends[i].dest, expected[i]);
    EXPECT_EQ(r.net.sends[i].payload, wire);
  }
  EXPECT_EQ(r.net.timers, std::vector<sim_time>{40000});
  r.rounds.open(process_set{0, 1}, make_message<note>());
  EXPECT_EQ(r.rounds.hits(), (std::vector<std::uint64_t>{2, 1, 1, 0, 1}));
  EXPECT_EQ(r.escalations, 0u);
}

TEST(TargetedRound, SelfAnsweringOwnerSkipsItsOwnCopyButCountsTheHit) {
  rig r(40000, nullptr, /*self_answers=*/true);
  r.rounds.open(process_set{1, 2, 3}, make_message<note>());
  ASSERT_EQ(r.net.sends.size(), 2u);
  EXPECT_EQ(r.net.sends[0].dest, 1u);
  EXPECT_EQ(r.net.sends[1].dest, 3u);
  EXPECT_EQ(r.rounds.hits(), (std::vector<std::uint64_t>{0, 1, 1, 1, 0}));
}

TEST(TargetedRound, TimeoutOnOpenRoundRebroadcastsTheOriginalOnce) {
  rig r;
  const message_ptr wire = make_message<note>();
  const targeted_round::handle h = r.rounds.open(process_set{0, 1}, wire);
  r.net.sends.clear();
  r.rounds.on_timeout(h);
  ASSERT_EQ(r.net.sends.size(), 1u);
  EXPECT_EQ(r.net.sends[0].dest, recording_transport::kAll);
  EXPECT_EQ(r.net.sends[0].payload, wire);  // the very same message
  EXPECT_EQ(r.escalations, 1u);
  // The timer is spent: a repeat, or an unrelated timer, does nothing.
  r.rounds.on_timeout(h);
  r.rounds.on_timeout(h + 1);
  EXPECT_EQ(r.net.sends.size(), 1u);
  EXPECT_EQ(r.escalations, 1u);
}

TEST(TargetedRound, TimeoutAfterCloseDoesNothing) {
  rig r;
  const targeted_round::handle h =
      r.rounds.open(process_set{0, 1}, make_message<note>());
  r.rounds.close(h);
  r.rounds.close(targeted_round::none);  // a broadcast round's handle
  r.net.sends.clear();
  r.rounds.on_timeout(h);
  EXPECT_TRUE(r.net.sends.empty());
  EXPECT_EQ(r.escalations, 0u);
}

TEST(TargetedRound, ZeroTimeoutArmsNoTimer) {
  rig r(/*timeout=*/0);
  EXPECT_EQ(r.rounds.open(process_set{0, 1}, make_message<note>()),
            targeted_round::none);
  EXPECT_EQ(r.net.sends.size(), 2u);  // the targeted copies still go out
  EXPECT_TRUE(r.net.timers.empty());
  EXPECT_EQ(r.escalations, 0u);
}

TEST(TargetedRound, NegativeTimeoutIsRejected) {
  owner_component owner;
  std::uint64_t escalations = 0;
  EXPECT_THROW(targeted_round(owner, -1, escalations), std::invalid_argument);
}

TEST(TargetedRound, EscalationLeafHangsOffTheRoundSpan) {
  rig r(40000, "svc");
  trace_recorder& tracer = r.net.bundle.tracer;
  tracer.start_recording();
  const span_ref round_span = tracer.begin_span("svc.get", "svc", 2, {}, 0);
  const targeted_round::handle h =
      r.rounds.open(process_set{0, 1}, make_message<note>(), round_span);
  r.rounds.on_timeout(h);
  ASSERT_EQ(tracer.spans().size(), 2u);
  const span_rec& leaf = tracer.spans().back();
  EXPECT_EQ(leaf.name, "svc.escalate");
  EXPECT_EQ(leaf.category, "svc");
  EXPECT_EQ(leaf.parent, round_span.id);
  EXPECT_EQ(leaf.start, 7);
}

}  // namespace
}  // namespace gqs
