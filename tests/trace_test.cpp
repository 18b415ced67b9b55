// Tests for the simulator's network-event leaves: with span recording on,
// every send, delivery, drop and timer lands as a "net"-category leaf span
// (net.send / net.deliver / net.drop_* / net.timer) at the acting process.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct probe_msg : message {};

/// One delivery as its receiver saw it.
struct delivery {
  sim_time at = 0;
  process_id from = 0;
  process_id to = 0;
};

class silent_node : public node {
 public:
  explicit silent_node(std::vector<delivery>& log) : log_(&log) {}
  void on_message(process_id from, const message_ptr&) override {
    log_->push_back({now(), from, id()});
  }
  using node::send;
  using node::set_timer;

 private:
  std::vector<delivery>* log_;
};

/// Base-from-member: the shared log outlives the nodes that write to it.
struct delivery_log { std::vector<delivery> delivers; };

struct traced_world : delivery_log, world<silent_node> {
  explicit traced_world(fault_plan faults, std::uint64_t seed = 1,
                        network_options net = spans_on())
      : world(faults.system_size(), faults, seed, net, delivers) {}

  static network_options spans_on() {
    network_options net;
    net.record_spans = true;
    return net;
  }

  /// The "net" leaves, in recording order.
  std::vector<span_rec> leaves() const {
    std::vector<span_rec> out;
    for (const span_rec& s : sim.obs().tracer.spans())
      if (s.category == "net") out.push_back(s);
    return out;
  }

  std::size_t count(const std::string& name) const {
    std::size_t n = 0;
    for (const span_rec& s : leaves()) n += s.name == name;
    return n;
  }
};

TEST(Trace, SendAndDeliverRecorded) {
  traced_world w(fault_plan::none(2));
  w.nodes[0]->send(1, make_message<probe_msg>());
  w.sim.run_until(1_s);
  const auto l = w.leaves();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l[0].name, "net.send");
  EXPECT_EQ(l[0].process, 0u);  // sends at the sender
  EXPECT_EQ(l[1].name, "net.deliver");
  EXPECT_EQ(l[1].process, 1u);  // deliveries at the receiver
  EXPECT_LE(l[0].start, l[1].start);  // send before deliver
  EXPECT_EQ(l[0].start, l[0].end);    // leaves are zero-length
  EXPECT_EQ(w.sim.metrics().messages_sent, 1u);
  EXPECT_EQ(w.sim.metrics().messages_delivered, 1u);
}

TEST(Trace, ChannelDropRecorded) {
  fault_plan faults = fault_plan::none(2);
  faults.disconnect(0, 1, 0);
  traced_world w(std::move(faults));
  w.nodes[0]->send(1, make_message<probe_msg>());
  w.sim.run_until(1_s);
  EXPECT_EQ(w.count("net.send"), 1u);
  EXPECT_EQ(w.count("net.drop_channel"), 1u);
  EXPECT_EQ(w.count("net.deliver"), 0u);
  EXPECT_EQ(w.sim.metrics().dropped_disconnected, 1u);
}

TEST(Trace, CrashDropRecorded) {
  fault_plan faults = fault_plan::none(2);
  faults.crash(1, 0);
  traced_world w(std::move(faults));
  w.nodes[0]->send(1, make_message<probe_msg>());
  w.sim.run_until(1_s);
  EXPECT_EQ(w.count("net.drop_crashed"), 1u);
  for (const span_rec& s : w.leaves())
    if (s.name == "net.drop_crashed") {
      EXPECT_EQ(s.process, 0u);  // attributed to the sender
    }
  EXPECT_EQ(w.sim.metrics().dropped_receiver_crashed, 1u);
}

TEST(Trace, TimerRecorded) {
  traced_world w(fault_plan::none(1));
  w.nodes[0]->set_timer(3_ms);
  w.sim.run_until(1_s);
  ASSERT_EQ(w.count("net.timer"), 1u);
  for (const span_rec& s : w.leaves())
    if (s.name == "net.timer") {
      EXPECT_EQ(s.start, 3_ms);
      EXPECT_EQ(s.process, 0u);
      EXPECT_EQ(s.parent, 0u);  // timers carry no message span
    }
  EXPECT_EQ(w.sim.metrics().timers_fired, 1u);
}

// A run is a pure function of (protocol, options, fault plan, seed,
// script): the same seed must reproduce the exact leaf sequence, byte for
// byte, across repeated runs.
TEST(Trace, SameSeedByteIdenticalTrace) {
  auto run = [](std::uint64_t seed) {
    fault_plan faults = fault_plan::none(3);
    faults.disconnect(0, 2, 5_ms);
    faults.crash(2, 40_ms);
    traced_world w(std::move(faults), seed);
    for (int i = 0; i < 20; ++i) {
      w.nodes[0]->send(1, make_message<probe_msg>());
      w.nodes[1]->send(2, make_message<probe_msg>());
      w.nodes[0]->set_timer(3_ms * (i + 1));
      w.sim.run_until(w.sim.now() + 4_ms);
    }
    w.sim.run_until(1_s);
    return w.leaves();
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "leaf " << i;
  EXPECT_NE(run(42), run(43));  // different seed, different schedule
}

// The leaves must interleave sends, drops and deliveries in timestamp
// order even when failures strike mid-run (exercises the epoch tables at
// the boundaries).
TEST(Trace, TimestampsMonotoneAcrossEpochBoundaries) {
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 1, 7_ms);
  faults.crash(1, 15_ms);
  traced_world w(std::move(faults), 7);
  for (int i = 0; i < 30; ++i) {
    w.nodes[0]->send(1, make_message<probe_msg>());
    w.sim.run_until(w.sim.now() + 1_ms);
  }
  w.sim.run_until(1_s);
  const auto l = w.leaves();
  ASSERT_FALSE(l.empty());
  for (std::size_t i = 1; i < l.size(); ++i)
    EXPECT_LE(l[i - 1].start, l[i].start) << "leaf " << i;
  // Sends from 0 to 1 at t >= 7 ms are channel drops.
  EXPECT_GT(w.count("net.drop_channel"), 0u);
  for (const span_rec& s : l)
    if (s.name == "net.drop_channel") {
      EXPECT_GE(s.start, 7_ms);
    }
}

// The leaves account for every network event the simulator counted, and
// each net.deliver leaf matches, in order, the delivery its receiver
// observed: same instant, attributed to the receiving process.
TEST(Trace, NetLeavesMatchObservedEvents) {
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 5_ms);
  faults.crash(2, 40_ms);
  traced_world w(std::move(faults), 9);
  for (int i = 0; i < 10; ++i) {
    w.nodes[0]->send(1, make_message<probe_msg>());
    w.nodes[0]->send(2, make_message<probe_msg>());  // downed after 5 ms
    w.nodes[1]->send(2, make_message<probe_msg>());
    w.nodes[0]->set_timer(3_ms);
    w.sim.run_until(w.sim.now() + 4_ms);
  }
  w.sim.run_until(1_s);
  w.sim.obs().tracer.finalize(w.sim.now());

  const sim_metrics& m = w.sim.metrics();
  EXPECT_EQ(w.count("net.send"), m.messages_sent);
  EXPECT_EQ(w.count("net.deliver"), m.messages_delivered);
  EXPECT_EQ(w.count("net.drop_channel"), m.dropped_disconnected);
  EXPECT_EQ(w.count("net.drop_crashed"), m.dropped_receiver_crashed);
  EXPECT_EQ(w.count("net.timer"), m.timers_fired);
  // Both drop kinds and deliveries occurred.
  EXPECT_GT(m.dropped_disconnected, 0u);
  EXPECT_GT(m.dropped_receiver_crashed, 0u);

  std::vector<span_rec> deliver_leaves;
  for (const span_rec& s : w.leaves()) {
    EXPECT_EQ(s.name.rfind("net.", 0), 0u) << s.name;
    if (s.name == "net.deliver") deliver_leaves.push_back(s);
  }
  ASSERT_EQ(deliver_leaves.size(), w.delivers.size());
  ASSERT_GT(w.delivers.size(), 0u);
  for (std::size_t i = 0; i < w.delivers.size(); ++i) {
    EXPECT_EQ(deliver_leaves[i].start, w.delivers[i].at) << "delivery " << i;
    EXPECT_EQ(deliver_leaves[i].process, w.delivers[i].to) << "delivery " << i;
  }
}

// Without record_spans the simulator records nothing.
TEST(Trace, NothingRecordedWhenSpansOff) {
  traced_world w(fault_plan::none(2), 1, network_options{});
  w.nodes[0]->send(1, make_message<probe_msg>());
  w.nodes[0]->set_timer(3_ms);
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.sim.obs().tracer.spans().empty());
  EXPECT_EQ(w.delivers.size(), 1u);
}

}  // namespace
}  // namespace gqs
