// Tests for the per-link bandwidth/queueing channel layer: serialization
// arithmetic, per-link FIFO ordering, queue occupancy, the
// zero-capacity ≡ legacy-model bit-identity contract (including a pin of
// the legacy RNG stream), and runner determinism under congestion.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sim/network.hpp"
#include "sim/runner.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct probe_msg : message {
  int id = 0;
  std::size_t bytes = 64;
  probe_msg() = default;
  probe_msg(int i, std::size_t b) : id(i), bytes(b) {}
  std::size_t wire_size() const override { return bytes; }
};

/// One delivered probe as its receiver saw it.
struct delivery {
  sim_time at = 0;
  process_id from = 0;
  process_id to = 0;
  int probe = 0;

  bool operator==(const delivery&) const = default;
};

/// Records every delivery (now, sender, self, probe id) into a log shared
/// by the whole world, in the simulator's dispatch order.
class silent_node : public node {
 public:
  explicit silent_node(std::vector<delivery>& log) : log_(&log) {}
  void on_message(process_id from, const message_ptr& m) override {
    const auto* probe = message_cast<probe_msg>(m);
    log_->push_back({now(), from, id(), probe ? probe->id : -1});
  }
  using node::send;

 private:
  std::vector<delivery>* log_;
};

/// Base-from-member: the shared log outlives the nodes that write to it.
struct delivery_log { std::vector<delivery> delivers; };

struct channel_world : delivery_log, world<silent_node> {
  channel_world(process_id n, network_options net, std::uint64_t seed = 1)
      : world(n, fault_plan::none(n), seed, net, delivers) {}
};

network_options pinned_delay(sim_time d) {
  network_options net;
  net.min_delay = d;
  net.max_delay = d;
  net.delta = d;
  return net;
}

// ---------- serialization arithmetic ----------

// With a pinned propagation delay the arrival instant is pure arithmetic:
// serialization start = max(now, link busy), departure = start +
// ceil(bytes/rate), arrival = departure + propagation.
TEST(Network, SerializationDelayExact) {
  network_options net = pinned_delay(1000);
  net.channel.bytes_per_us = 1.0;  // 1 byte/µs
  channel_world w(2, net);
  w.nodes[0]->send(1, make_message<probe_msg>(0, std::size_t{64}));
  w.nodes[0]->send(1, make_message<probe_msg>(1, std::size_t{36}));
  w.sim.run_until(1_s);
  const auto& d = w.delivers;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].at, 64 + 1000);       // 64 µs on the wire + propagation
  EXPECT_EQ(d[1].at, 64 + 36 + 1000);  // queued behind the first
}

// Distinct links do not share a serializer: the same traffic on two links
// transmits concurrently.
TEST(Network, LinksSerializeIndependently) {
  network_options net = pinned_delay(1000);
  net.channel.bytes_per_us = 1.0;
  channel_world w(3, net);
  w.nodes[0]->send(1, make_message<probe_msg>(0, std::size_t{64}));
  w.nodes[0]->send(2, make_message<probe_msg>(1, std::size_t{64}));
  w.sim.run_until(1_s);
  const auto& d = w.delivers;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].at, 64 + 1000);
  EXPECT_EQ(d[1].at, 64 + 1000);  // not queued behind the 0→1 message
}

// Per-process ingress overrides replace the uniform rate on links into
// that process — the heterogeneity the latency planner exploits.
TEST(Network, IngressRateOverridePerDestination) {
  network_options net = pinned_delay(1000);
  net.channel.bytes_per_us = 1.0;
  net.channel.ingress_bytes_per_us = {0, 0, 0.5};  // process 2 at half rate
  channel_world w(3, net);
  w.nodes[0]->send(1, make_message<probe_msg>(0, std::size_t{64}));
  w.nodes[0]->send(2, make_message<probe_msg>(1, std::size_t{64}));
  w.sim.run_until(1_s);
  const auto& d = w.delivers;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].at, 64 + 1000);
  EXPECT_EQ(d[1].at, 128 + 1000);  // 64 bytes at 0.5 byte/µs
}

// ---------- FIFO ordering ----------

// Random propagation draws would reorder back-to-back messages; the link
// clamps arrivals monotone so every channel is FIFO end to end.
TEST(Network, PerLinkFifoUnderRandomPropagation) {
  network_options net;  // random 1–10 ms propagation
  net.channel.bytes_per_us = 64.0;  // 1 µs serialization per probe
  channel_world w(2, net, /*seed=*/7);
  constexpr int kMessages = 30;
  for (int i = 0; i < kMessages; ++i)
    w.nodes[0]->send(1, make_message<probe_msg>(i, std::size_t{64}));
  w.sim.run_until(1_s);
  const auto& d = w.delivers;
  ASSERT_EQ(d.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i)
    EXPECT_EQ(d[i].probe, i) << "position " << i;
  for (std::size_t i = 1; i < d.size(); ++i)
    EXPECT_LE(d[i - 1].at, d[i].at);
}

// ---------- queue occupancy ----------

TEST(Network, CreditsRecoverAsTheQueueDrains) {
  network_options net = pinned_delay(1000);
  net.channel.bytes_per_us = 1.0;  // 64 µs per probe
  channel_world w(2, net);
  for (int i = 0; i < 4; ++i)
    w.nodes[0]->send(1, make_message<probe_msg>(i, std::size_t{64}));
  EXPECT_EQ(w.sim.channels().queue_depth(0, 1, w.sim.now()), 4u);
  // After the first departure (64 µs) one message has left the queue.
  EXPECT_EQ(w.sim.channels().queue_depth(0, 1, 64), 3u);
  // After all four serialized, the queue is empty again.
  EXPECT_EQ(w.sim.channels().queue_depth(0, 1, 4 * 64), 0u);
  w.sim.run_until(1_s);
  EXPECT_EQ(w.delivers.size(), 4u);
}

TEST(Network, ByteCountersTrackWireSizes) {
  network_options net = pinned_delay(1000);
  net.channel.bytes_per_us = 1.0;
  channel_world w(2, net);
  for (int i = 0; i < 3; ++i)
    w.nodes[0]->send(1, make_message<probe_msg>(i, std::size_t{100}));
  w.sim.run_until(1_s);
  EXPECT_EQ(w.sim.metrics().bytes_sent, 300u);
  EXPECT_EQ(w.sim.metrics().bytes_delivered, 300u);
  EXPECT_EQ(w.sim.channels().metrics_of(0, 1).bytes, 300u);
  const auto per_link = w.sim.channels().per_link_bytes();
  ASSERT_EQ(per_link.size(), 1u);  // only one loaded link
  EXPECT_EQ(per_link[0], 300.0);
}

// ---------- zero-capacity ≡ legacy model ----------

std::vector<delivery> scripted_run(const network_options& net,
                                   std::uint64_t seed) {
  channel_world w(3, net, seed);
  for (int i = 0; i < 25; ++i) {
    w.nodes[0]->send(1, make_message<probe_msg>(i, std::size_t{64}));
    w.nodes[1]->send(2, make_message<probe_msg>(i, std::size_t{640}));
    w.nodes[2]->send(0, make_message<probe_msg>(i, std::size_t{6400}));
    w.sim.run_until(w.sim.now() + 2_ms);
  }
  w.sim.run_until(1_s);
  return w.delivers;
}

// A zero-capacity channel config must reproduce the legacy
// independent-delay model bit for bit: identical delivery sequences
// (instant, sender, receiver, probe), wire sizes notwithstanding.
TEST(Network, ZeroCapacityBitIdenticalToLegacyModel) {
  const network_options legacy;  // channel layer absent by default
  network_options zero;
  zero.channel.bytes_per_us = 0;  // explicit zero-capacity config
  const auto a = scripted_run(legacy, 42);
  const auto b = scripted_run(zero, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "delivery " << i;
}

// Pins the legacy RNG stream itself: delays come from one
// uniform_int_distribution(min_delay, hi) draw per accepted send, on the
// shared mt19937_64, in send order. An independent replica of that stream
// must predict every delivery instant. (If this test breaks, the
// zero-capacity ≡ legacy contract breaks for every existing seed.)
TEST(Network, LegacyDelayStreamPinned) {
  const std::uint64_t seed = 9001;
  network_options net;  // defaults: min 1000, max 10000, gst 0, delta 10000
  channel_world w(2, net, seed);
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i)
    w.nodes[0]->send(1, make_message<probe_msg>(i, std::size_t{64}));
  w.sim.run_until(1_s);

  std::mt19937_64 replica(seed);
  std::vector<sim_time> predicted;
  for (int i = 0; i < kMessages; ++i) {
    std::uniform_int_distribution<sim_time> d(net.min_delay, net.delta);
    predicted.push_back(0 + d(replica));  // all sends happen at t = 0
  }
  std::sort(predicted.begin(), predicted.end());

  std::vector<sim_time> observed;
  for (const delivery& d : w.delivers) observed.push_back(d.at);
  std::sort(observed.begin(), observed.end());
  ASSERT_EQ(observed.size(), predicted.size());
  EXPECT_EQ(observed, predicted);
}

// ---------- runner determinism under congestion ----------

run_result congested_cell(std::uint64_t seed) {
  network_options net;
  net.channel.bytes_per_us = 0.05;  // heavily congested
  channel_world w(4, net, seed);
  for (int round = 0; round < 40; ++round) {
    for (process_id p = 0; p < 4; ++p)
      for (process_id q = 0; q < 4; ++q)
        if (p != q)
          w.nodes[p]->send(
              q, make_message<probe_msg>(
                     round, static_cast<std::size_t>(64 * (1 + round % 5))));
    w.sim.run_until(w.sim.now() + 1_ms);
  }
  w.sim.run_until(1_s);

  run_result r;
  r.metrics = w.sim.metrics();
  r.sim_end = w.sim.now();
  r.link_bytes = w.sim.channels().per_link_bytes();
  double deliver_digest = 0;
  for (const delivery& d : w.delivers)
    deliver_digest += static_cast<double>(d.at);
  r.stats["deliver_digest"] = deliver_digest;
  return r;
}

// The queueing model is per-simulation state, so runner results must stay
// bit-identical for any worker count, congestion or not.
TEST(Network, RunnerDeterministicAcrossThreadCountsUnderCongestion) {
  std::vector<run_spec> specs;
  for (std::uint64_t s = 0; s < 6; ++s)
    specs.push_back({"congested-" + std::to_string(s),
                     [s] { return congested_cell(grid_seed(11, 0, 0, s)); }});

  const auto one = experiment_runner(1).run_all(specs);
  const auto two = experiment_runner(2).run_all(specs);
  const auto eight = experiment_runner(8).run_all(specs);
  ASSERT_EQ(one.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(one[i].ok);
    EXPECT_GT(one[i].metrics.max_link_queue_depth, 8u) << "not congested";
    for (const auto* other : {&two[i], &eight[i]}) {
      EXPECT_EQ(one[i].metrics, other->metrics) << specs[i].label;
      EXPECT_EQ(one[i].sim_end, other->sim_end) << specs[i].label;
      EXPECT_EQ(one[i].link_bytes, other->link_bytes) << specs[i].label;
      EXPECT_EQ(one[i].stats, other->stats) << specs[i].label;
    }
  }

  // And the aggregate view folds the link bytes deterministically too.
  const run_aggregate agg1 = aggregate(one);
  const run_aggregate agg8 = aggregate(eight);
  EXPECT_EQ(agg1.totals, agg8.totals);
  EXPECT_EQ(agg1.link_bytes.count, agg8.link_bytes.count);
  EXPECT_EQ(agg1.link_bytes.mean, agg8.link_bytes.mean);
  EXPECT_GT(agg1.totals.bytes_sent, 0u);
}

// ---------- configuration validation ----------

TEST(Network, BadChannelConfigsRejected) {
  network_options net;
  net.channel.bytes_per_us = -1;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.channel.bytes_per_us = 0;
  net.channel.ingress_bytes_per_us = {1.0};  // override without a base rate
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.channel.bytes_per_us = 2.0;
  EXPECT_NO_THROW(net.validate());
}

}  // namespace
}  // namespace gqs
