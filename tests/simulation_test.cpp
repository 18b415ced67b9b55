#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <queue>
#include <random>
#include <thread>
#include <tuple>
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

TEST(Simulation, PostLocalRunsBehindSameInstantEvents) {
  simulation sim = make_sim(1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(5_ms);
  std::vector<std::size_t> seen;  // receipts at each closure's turn
  sim.post(0, [&] { seen.push_back(nodes[0]->received.size()); });
  sim.post_local(0, make_message<ping>(7));
  sim.post(0, [&] { seen.push_back(nodes[0]->received.size()); });
  EXPECT_TRUE(nodes[0]->received.empty());  // not synchronous
  sim.run_until(5_ms);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(nodes[0]->received.size(), 1u);
  EXPECT_EQ(nodes[0]->received[0].from, 0u);
  EXPECT_EQ(nodes[0]->received[0].payload, 7);
  EXPECT_EQ(nodes[0]->received[0].at, 5_ms);
  EXPECT_THROW(sim.post_local(1, make_message<ping>(1)), std::out_of_range);
  EXPECT_THROW(sim.post_local(0, nullptr), std::invalid_argument);
}

TEST(Simulation, PostLocalDroppedAtCrashedProcess) {
  fault_plan faults = fault_plan::none(2);
  faults.crash(0, 5_ms);
  simulation sim(2, network_options{}, faults, 1);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(5_ms);
  sim.post_local(0, make_message<ping>(1));
  sim.post_local(1, make_message<ping>(2));
  sim.run_until(1_s);
  EXPECT_TRUE(nodes[0]->received.empty());
  ASSERT_EQ(nodes[1]->received.size(), 1u);
  EXPECT_EQ(sim.metrics().dropped_receiver_crashed, 0u);
}

TEST(Simulation, PostLocalMovesNoNetworkCounter) {
  network_options net;
  net.channel.bytes_per_us = 1.0;  // the channel layer would charge bytes
  net.record_spans = true;
  simulation sim = make_sim(2, net);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  const sim_metrics before = sim.metrics();
  const std::size_t spans = sim.obs().tracer.spans().size();
  sim.post_local(1, make_message<ping>(3));
  sim.run_until(1_s);
  ASSERT_EQ(nodes[1]->received.size(), 1u);
  sim_metrics want = before;
  ++want.events_processed;  // it is an event, like a post
  EXPECT_EQ(sim.metrics(), want);
  EXPECT_EQ(sim.obs().tracer.spans().size(), spans);
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


// ---- message handles (sim/message.hpp) ----

/// Counts its destructions, so a test sees exactly when the last handle
/// released it.
struct counted : message {
  static inline int destroyed = 0;
  int value;
  explicit counted(int v) : value(v) {}
  ~counted() override { ++destroyed; }
};

/// Larger than any pooled size class: takes the global-heap path.
struct bulky : message {
  char bytes[1024] = {};
};

TEST(MessageHandle, CopySharesItsMessage) {
  const message_ptr a = make_message<counted>(3);
  EXPECT_EQ(a.use_count(), 1u);
  {
    const message_ptr b = a;
    EXPECT_EQ(b.get(), a.get());
    EXPECT_TRUE(b == a);
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(message_cast<counted>(b)->value, 3);
  }
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(message_cast<ping>(a), nullptr);  // exact type only
}

TEST(MessageHandle, LastReleaseFreesExactlyOnce) {
  counted::destroyed = 0;
  message_ptr a = make_message<counted>(1);
  message_ptr b = a;
  message_ptr c;
  c = b;                        // copy-assign
  message_ptr d = std::move(c);  // move: no new reference
  EXPECT_FALSE(c);
  EXPECT_EQ(a.use_count(), 3u);
  a = nullptr;
  b = message_ptr{};
  EXPECT_EQ(counted::destroyed, 0);
  EXPECT_EQ(message_cast<counted>(d)->value, 1);
  d = make_message<counted>(2);  // assignment releases the old message
  EXPECT_EQ(counted::destroyed, 1);
  d = nullptr;
  EXPECT_EQ(counted::destroyed, 2);
  EXPECT_EQ(d.use_count(), 0u);
}

TEST(MessageHandle, ReleasedBlockIsReusedBySameSizeClass) {
  message_ptr a = make_message<counted>(1);
  const message* block = a.get();
  a = nullptr;
  const message_ptr b = make_message<counted>(2);
  EXPECT_EQ(b.get(), block);  // the pool's free list, not a fresh block
  EXPECT_EQ(message_cast<counted>(b)->value, 2);
}

TEST(MessageHandle, BuiltOutsideAnySimulation) {
  // On a thread that never runs a simulation: build, share, cast and
  // release, including a message too large to pool. The thread's pool is
  // returned to the heap when it exits (the ASan job checks for leaks).
  counted::destroyed = 0;
  message_ptr survivor;
  std::thread t([&] {
    std::vector<message_ptr> held;
    for (int i = 0; i < 100; ++i) held.push_back(make_message<counted>(i));
    for (int i = 0; i < 100; i += 2) held[i] = nullptr;
    const message_ptr big = make_message<bulky>();
    EXPECT_EQ(big->wire_size(), 64u);
    EXPECT_NE(message_cast<bulky>(big), nullptr);
    survivor = held[1];  // leaves the thread with its message
  });
  t.join();
  EXPECT_EQ(counted::destroyed, 99);
  EXPECT_EQ(message_cast<counted>(survivor)->value, 1);
  survivor = nullptr;  // released on this thread: goes to its free list
  EXPECT_EQ(counted::destroyed, 100);
}

TEST(MessageHandle, DeliveryKeepsMessageAliveAfterSenderDrops) {
  counted::destroyed = 0;
  simulation sim = make_sim(3);
  auto nodes = install_recorders(sim);
  sim.start();
  sim.run_until(0);
  {
    const message_ptr m = make_message<counted>(5);
    nodes[0]->send(1, m);
    nodes[0]->send(2, m);
  }
  EXPECT_EQ(counted::destroyed, 0);  // two delivery records hold it
  sim.run_until(1_s);
  EXPECT_EQ(sim.metrics().messages_delivered, 2u);
  EXPECT_EQ(counted::destroyed, 1);  // once, after the last receiver
}

// ---- event wheel: pop order against a reference priority queue ----

/// Drives the engine's queue through posts only (no nodes, no start) and
/// checks each dispatch against std::priority_queue over the same keys.
/// Pushes mix same-instant posts, bursts into one bucket, ordinary delays
/// up to the delay bound and timers far beyond the wheel's window (its
/// overflow heap), and are made both before the run and from inside
/// dispatched events, as protocol handlers do.
void check_wheel_order(const network_options& net, sim_time bound,
                       std::uint64_t seed) {
  simulation sim(1, net, fault_plan::none(1), seed);
  using key = std::tuple<sim_time, std::uint64_t>;  // (at, push order)
  std::priority_queue<key, std::vector<key>, std::greater<>> reference;
  std::mt19937_64 rng(seed);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  constexpr std::uint64_t kBudget = 20000;
  std::function<void()> push_some;

  // A bucket is at most bound/32 wide and the window at least 4 bounds
  // (simulation.hpp), so a burst within 8 µs mostly shares one bucket and
  // a delay past 8 bounds always lands in the overflow heap.
  auto draw_delay = [&](bool burst) -> sim_time {
    if (burst) return bound / 2 + sim_time(rng() % 8);
    switch (rng() % 5) {
      case 0: return 0;                                   // same instant
      case 1: return sim_time(rng() % (bound / 64 + 1));  // active bucket
      case 2: return 8 * bound + 1 + sim_time(rng() % (32 * bound));
      default: return sim_time(rng() % (bound + 1));
    }
  };
  auto push_one = [&](bool burst) {
    const sim_time at = sim.now() + draw_delay(burst);
    const std::uint64_t order = pushed++;
    reference.emplace(at, order);
    sim.post_after(0, at - sim.now(), [&, at, order] {
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(reference.top(), key(at, order))
          << "pop " << popped << " at " << sim.now();
      EXPECT_EQ(sim.now(), at);
      reference.pop();
      ++popped;
      if (pushed < kBudget) push_some();
    });
  };
  push_some = [&] {
    const bool burst = rng() % 16 == 0;
    const int count = burst ? 40 : static_cast<int>(rng() % 3);
    for (int i = 0; i < count && pushed < kBudget; ++i) push_one(burst);
  };
  for (int i = 0; i < 500; ++i) push_one(i % 50 < 10);
  sim.run_until(std::numeric_limits<sim_time>::max() / 4);
  EXPECT_EQ(popped, pushed);
  EXPECT_TRUE(reference.empty());
}

TEST(EventWheel, PopOrderMatchesReferenceWithGstZero) {
  network_options net;  // every delay is at most delta
  net.max_delay = 200_ms;
  net.delta = 10_ms;
  for (std::uint64_t seed : {1, 2, 3}) check_wheel_order(net, net.delta, seed);
}

TEST(EventWheel, PopOrderMatchesReferenceWithGstPositive) {
  network_options net;  // delays up to max_delay before GST
  net.max_delay = 200_ms;
  net.delta = 10_ms;
  net.gst = 1_s;
  for (std::uint64_t seed : {1, 2, 3}) {
    check_wheel_order(net, net.max_delay, seed);
    check_wheel_order(net, net.delta, seed);  // bursts far below the bound
  }
}

TEST(EventWheel, PopOrderMatchesReferenceWithTinyBound) {
  network_options net;  // 1 µs delays: the narrowest buckets
  net.min_delay = 1;
  net.max_delay = 1;
  net.delta = 1;
  for (std::uint64_t seed : {1, 2}) check_wheel_order(net, 64, seed);
}

}  // namespace
}  // namespace gqs
