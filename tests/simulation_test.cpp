#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/factories.hpp"
#include "sim/time.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct ping : message {
  int payload;
  explicit ping(int p) : payload(p) {}
};

/// Records everything it receives; can be scripted to send.
class recorder_node : public node {
 public:
  struct receipt {
    process_id from;
    int payload;
    sim_time at;
  };
  std::vector<receipt> received;
  std::vector<std::pair<int, sim_time>> timers;

  void on_message(process_id from, const message_ptr& m) override {
    if (const auto* p = message_cast<ping>(m))
      received.push_back({from, p->payload, now()});
  }
  void on_timer(int id) override { timers.emplace_back(id, now()); }

  using node::broadcast_physical;
  using node::send;
  using node::set_timer;
};

simulation make_sim(process_id n, network_options net = {},
                    std::uint64_t seed = 1) {
  return simulation(n, net, fault_plan::none(n), seed);
}

std::vector<recorder_node*> install_recorders(simulation& sim) {
  std::vector<recorder_node*> nodes;
  for (process_id p = 0; p < sim.size(); ++p) {
    auto n = std::make_unique<recorder_node>();
    nodes.push_back(n.get());
    sim.set_node(p, std::move(n));
  }
  return nodes;
}

TEST(Simulation, ConstructionValidation) {
  EXPECT_THROW(make_sim(0), std::invalid_argument);
  network_options bad;
  bad.min_delay = 0;
  EXPECT_THROW(simulation(2, bad, fault_plan::none(2), 1),
               std::invalid_argument);
  EXPECT_THROW(simulation(2, network_options{}, fault_plan::none(3), 1),
               std::invalid_argument);
}

TEST(Simulation, StartRequiresAllNodes) {
  simulation sim = make_sim(2);
  sim.set_node(0, std::make_unique<recorder_node>());
  EXPECT_THROW(sim.start(), std::logic_error);
}

TEST(Simulation, DoubleStartRejected) {
  simulation sim = make_sim(1);
  sim.set_node(0, std::make_unique<recorder_node>());
  sim.start();
  EXPECT_THROW(sim.start(), std::logic_error);
}

TEST(Simulation, MessageDeliveredWithinDelayBounds) {
  network_options net;
  net.min_delay = 2_ms;
  net.max_delay = 5_ms;
  net.delta = 5_ms;
  simulation sim(2, net, fault_plan::none(2), 7);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->send(1, make_message<ping>(42));
  sim.run_until(1_s);
  ASSERT_EQ(nodes[1]->received.size(), 1u);
  EXPECT_EQ(nodes[1]->received[0].from, 0u);
  EXPECT_EQ(nodes[1]->received[0].payload, 42);
  EXPECT_GE(nodes[1]->received[0].at, 2_ms);
  EXPECT_LE(nodes[1]->received[0].at, 5_ms);
  EXPECT_EQ(sim.metrics().messages_sent, 1u);
  EXPECT_EQ(sim.metrics().messages_delivered, 1u);
}

TEST(Simulation, SelfSendRejected) {
  simulation sim = make_sim(2);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  EXPECT_THROW(nodes[0]->send(0, make_message<ping>(1)),
               std::invalid_argument);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    simulation sim = make_sim(3, {}, seed);
    auto nodes = install_recorders(sim);
    sim.start();
    sim.run_until(0);
    for (int i = 0; i < 10; ++i) nodes[0]->broadcast_physical(
        make_message<ping>(i));
    sim.run_until(1_s);
    std::vector<sim_time> times;
    for (auto* n : nodes)
      for (const auto& r : n->received) times.push_back(r.at);
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // different seed, different schedule
}

TEST(Simulation, CrashedReceiverDropsDelivery) {
  fault_plan faults = fault_plan::none(2);
  faults.crash(1, 0);  // crashed from the start
  simulation sim(2, network_options{}, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->send(1, make_message<ping>(1));
  sim.run_until(1_s);
  EXPECT_TRUE(nodes[1]->received.empty());
  EXPECT_EQ(sim.metrics().dropped_receiver_crashed, 1u);
}

TEST(Simulation, CrashMidFlight) {
  // Message sent before the receiver crashes but delivered after: dropped.
  network_options net;
  net.min_delay = 10_ms;
  net.max_delay = 10_ms;
  net.delta = 10_ms;
  fault_plan faults = fault_plan::none(2);
  faults.crash(1, 5_ms);
  simulation sim(2, net, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->send(1, make_message<ping>(1));
  sim.run_until(1_s);
  EXPECT_TRUE(nodes[1]->received.empty());
}

TEST(Simulation, CrashedProcessTimersSuppressed) {
  fault_plan faults = fault_plan::none(1);
  faults.crash(0, 5_ms);
  simulation sim(1, network_options{}, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->set_timer(2_ms);
  nodes[0]->set_timer(10_ms);  // after crash
  sim.run_until(1_s);
  ASSERT_EQ(nodes[0]->timers.size(), 1u);
  EXPECT_EQ(nodes[0]->timers[0].second, 2_ms);
}

TEST(Simulation, DisconnectedChannelDropsNewSends) {
  fault_plan faults = fault_plan::none(2);
  faults.disconnect(0, 1, 5_ms);
  network_options net;
  net.min_delay = 1_ms;
  net.max_delay = 2_ms;
  net.delta = 2_ms;
  simulation sim(2, net, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->send(1, make_message<ping>(1));  // sent at 0: delivered
  sim.run_until(10_ms);
  nodes[0]->send(1, make_message<ping>(2));  // sent at 10ms >= 5ms: dropped
  sim.run_until(1_s);
  ASSERT_EQ(nodes[1]->received.size(), 1u);
  EXPECT_EQ(nodes[1]->received[0].payload, 1);
  EXPECT_EQ(sim.metrics().dropped_disconnected, 1u);
  // Reverse direction unaffected.
  nodes[1]->send(0, make_message<ping>(3));
  sim.run_until(2_s);
  ASSERT_EQ(nodes[0]->received.size(), 1u);
}

TEST(Simulation, InFlightMessageSurvivesDisconnect) {
  // Disconnection drops messages *sent* from that point on; a message sent
  // before stays in flight and is delivered (paper §2 semantics).
  network_options net;
  net.min_delay = 10_ms;
  net.max_delay = 10_ms;
  net.delta = 10_ms;
  fault_plan faults = fault_plan::none(2);
  faults.disconnect(0, 1, 5_ms);
  simulation sim(2, net, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->send(1, make_message<ping>(9));  // at t=0 < 5ms
  sim.run_until(1_s);
  ASSERT_EQ(nodes[1]->received.size(), 1u);
  EXPECT_EQ(nodes[1]->received[0].at, 10_ms);
}

TEST(Simulation, PartialSynchronyBoundsDelaysAfterGst) {
  network_options net;
  net.min_delay = 1_ms;
  net.max_delay = 500_ms;  // asynchronous period can be very slow
  net.delta = 5_ms;
  net.gst = 100_ms;
  simulation sim(2, net, fault_plan::none(2), 11);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(150_ms);  // past GST
  const sim_time sent_at = sim.now();
  for (int i = 0; i < 50; ++i) nodes[0]->send(1, make_message<ping>(i));
  sim.run_until(10_s);
  ASSERT_EQ(nodes[1]->received.size(), 50u);
  for (const auto& r : nodes[1]->received) {
    EXPECT_GE(r.at - sent_at, 1_ms);
    EXPECT_LE(r.at - sent_at, 5_ms);
  }
}

TEST(Simulation, FaultPlanFromPatternDisconnectsImplicitChannels) {
  // Channels incident to crashable processes are faulty by default.
  const auto fig = make_figure1();
  const fault_plan plan = fault_plan::from_pattern(fig.gqs.fps[0], 0);
  // d = 3 may crash under f1: channels to/from d disconnect.
  EXPECT_FALSE(plan.channel_up_at(3, 0, 0));
  EXPECT_FALSE(plan.channel_up_at(0, 3, 0));
  // (c,a) = (2,0) is reliable.
  EXPECT_TRUE(plan.channel_up_at(2, 0, 1_s));
  // (a,c) = (0,2) may disconnect.
  EXPECT_FALSE(plan.channel_up_at(0, 2, 0));
  EXPECT_FALSE(plan.alive_at(3, 0));
  EXPECT_TRUE(plan.alive_at(0, 1_s));
}

TEST(Simulation, PostRunsAtCurrentInstant) {
  simulation sim = make_sim(1);
  install_recorders(sim);
  sim.start();
  sim.run_until(5_ms);
  bool ran = false;
  sim_time ran_at = -1;
  sim.post(0, [&] {
    ran = true;
    ran_at = sim.now();
  });
  EXPECT_FALSE(ran);  // not synchronous
  sim.run_until(5_ms);
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_at, 5_ms);
}

TEST(Simulation, PostSuppressedForCrashed) {
  fault_plan faults = fault_plan::none(1);
  faults.crash(0, 0);
  simulation sim(1, network_options{}, faults, 1);
  install_recorders(sim);
  sim.start();
  bool ran = false;
  sim.post(0, [&] { ran = true; });
  sim.run_until(1_s);
  EXPECT_FALSE(ran);
}

TEST(Simulation, RunUntilConditionStopsEarly) {
  simulation sim = make_sim(2);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  nodes[0]->send(1, make_message<ping>(1));
  nodes[0]->send(1, make_message<ping>(2));
  const bool met = sim.run_until_condition(
      [&] { return !nodes[1]->received.empty(); }, 1_s);
  EXPECT_TRUE(met);
  EXPECT_LT(sim.now(), 1_s);
}

TEST(Simulation, RunUntilConditionTimesOut) {
  simulation sim = make_sim(2);
  install_recorders(sim);
  sim.start();
  const bool met = sim.run_until_condition([] { return false; }, 50_ms);
  EXPECT_FALSE(met);
  EXPECT_EQ(sim.now(), 50_ms);
}

TEST(Simulation, TimeAdvancesToHorizonWhenIdle) {
  simulation sim = make_sim(1);
  install_recorders(sim);
  sim.start();
  sim.run_until(123_ms);
  EXPECT_EQ(sim.now(), 123_ms);
  EXPECT_TRUE(sim.idle_before(1_s));
}

TEST(Simulation, CrashedSenderSendsNothing) {
  fault_plan faults = fault_plan::none(2);
  faults.crash(0, 5_ms);
  simulation sim(2, network_options{}, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(10_ms);
  nodes[0]->send(1, make_message<ping>(1));  // sender crashed: no-op
  sim.run_until(1_s);
  EXPECT_TRUE(nodes[1]->received.empty());
  EXPECT_EQ(sim.metrics().messages_sent, 0u);
}

TEST(Simulation, NodeAtAccessors) {
  simulation sim = make_sim(2);
  auto nodes = install_recorders(sim);
  EXPECT_EQ(&sim.node_at(0), nodes[0]);
  EXPECT_THROW(sim.node_at(2), std::out_of_range);
}

TEST(Simulation, NullMessageRejected) {
  simulation sim = make_sim(2);
  install_recorders(sim);
  sim.start();
  sim.run_until(0);
  EXPECT_THROW(sim.send(0, 1, nullptr), std::invalid_argument);
}

TEST(Simulation, StampsStrictlyIncrease) {
  simulation sim = make_sim(1);
  install_recorders(sim);
  const auto s1 = sim.take_stamp();
  const auto s2 = sim.take_stamp();
  EXPECT_LT(s1, s2);
}

TEST(Simulation, MetricsCountEvents) {
  simulation sim = make_sim(2, {}, 9);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);  // 2 on_start events
  const auto base = sim.metrics().events_processed;
  nodes[0]->send(1, make_message<ping>(1));
  sim.run_until(1_s);
  EXPECT_EQ(sim.metrics().events_processed, base + 1);  // one delivery
  EXPECT_EQ(sim.metrics().messages_delivered, 1u);
}

}  // namespace
}  // namespace gqs
