#include "sim/flooding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/factories.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct payload_msg : message {
  int value;
  explicit payload_msg(int v) : value(v) {}
};

/// A payload that counts its destructions.
struct counted_payload : payload_msg {
  static inline int destroyed = 0;
  using payload_msg::payload_msg;
  ~counted_payload() override { ++destroyed; }
};

class flood_recorder : public flooding_node {
 public:
  struct receipt {
    process_id origin;
    int value;
    sim_time at;
  };
  std::vector<receipt> delivered;

  void on_deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* p = message_cast<payload_msg>(payload))
      delivered.push_back({origin, p->value, now()});
    else if (const auto* c = message_cast<counted_payload>(payload))
      delivered.push_back({origin, c->value, now()});
  }

  void send_to(process_id dest, int value) {
    flood_send(dest, make_message<payload_msg>(value));
  }
  void broadcast_value(int value) {
    flood_broadcast(make_message<payload_msg>(value));
  }
  void flood_payload(process_id dest, const message_ptr& payload) {
    flood_send(dest, payload);
  }
};

struct flood_world : world<flood_recorder> {
  flood_world(process_id n, fault_plan faults, std::uint64_t seed = 1,
              network_options net = {})
      : world(n, std::move(faults), seed, net) {}
};

TEST(Flooding, BroadcastReachesEveryoneIncludingSelf) {
  flood_world w(4, fault_plan::none(4));
  w.nodes[0]->broadcast_value(7);
  w.sim.run_until(1_s);
  for (process_id p = 0; p < 4; ++p) {
    ASSERT_EQ(w.nodes[p]->delivered.size(), 1u) << "process " << p;
    EXPECT_EQ(w.nodes[p]->delivered[0].origin, 0u);
    EXPECT_EQ(w.nodes[p]->delivered[0].value, 7);
  }
}

TEST(Flooding, PointToPointDeliversOnlyAtDestination) {
  flood_world w(4, fault_plan::none(4));
  w.nodes[1]->send_to(3, 9);
  w.sim.run_until(1_s);
  for (process_id p = 0; p < 4; ++p) {
    if (p == 3) {
      ASSERT_EQ(w.nodes[p]->delivered.size(), 1u);
      EXPECT_EQ(w.nodes[p]->delivered[0].value, 9);
    } else {
      EXPECT_TRUE(w.nodes[p]->delivered.empty()) << "process " << p;
    }
  }
}

TEST(Flooding, SelfSendDeliversImmediately) {
  flood_world w(3, fault_plan::none(3));
  w.nodes[2]->send_to(2, 5);
  w.sim.run_until_condition([&] { return !w.nodes[2]->delivered.empty(); },
                            1_s);
  ASSERT_EQ(w.nodes[2]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[2]->delivered[0].at, 0);  // same instant
}

TEST(Flooding, DedupKeepsMessageCountFinite) {
  flood_world w(5, fault_plan::none(5));
  const auto before = w.sim.metrics().messages_sent;
  w.nodes[0]->broadcast_value(1);
  w.sim.run_until(1_s);
  const auto sent = w.sim.metrics().messages_sent - before;
  // Each of the 5 processes forwards the envelope at most once to at most
  // 4 neighbors: hard upper bound 20 transmissions for one broadcast.
  EXPECT_LE(sent, 20u);
  EXPECT_GE(sent, 4u);
  // And exactly one delivery per process.
  for (auto* n : w.nodes) EXPECT_EQ(n->delivered.size(), 1u);
}

TEST(Flooding, RoutesAroundFailedDirectChannel) {
  // Direct channel (0,1) down from the start; flooding must route 0's
  // payload to 1 via 2 (channels (0,2) and (2,1) are up).
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 1, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(1, 11);
  w.sim.run_until(1_s);
  ASSERT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[1]->delivered[0].value, 11);
}

TEST(Flooding, DirectUnicastChargesHeaderAndDeliversFromSender) {
  // Channel (1,3) up: the unicast is the payload itself,
  // with no wrapper message. The link still carries the 16-byte unicast
  // header on top of the payload's 64 bytes, and the receiver sees the
  // physical sender as the origin.
  network_options net;
  net.channel.bytes_per_us = 1.0;  // 1 byte/µs: 80 µs of serialization
  flood_world w(4, fault_plan::none(4), 1, net);
  w.nodes[1]->send_to(3, 21);
  w.sim.run_until(1_s);
  EXPECT_EQ(w.sim.metrics().messages_sent, 1u);
  EXPECT_EQ(w.sim.metrics().bytes_sent, 16u + 64u);
  EXPECT_EQ(w.sim.metrics().bytes_delivered, 16u + 64u);
  ASSERT_EQ(w.nodes[3]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[3]->delivered[0].origin, 1u);
  EXPECT_EQ(w.nodes[3]->delivered[0].value, 21);
  EXPECT_GE(w.nodes[3]->delivered[0].at, 80 + net.min_delay);
}

TEST(Flooding, EnvelopeKeepsPayloadAlive) {
  // Channel (0,1) is down, so the unicast travels in an envelope through
  // 2. The sender keeps no handle: the envelope alone holds the payload
  // until the last relay copy is delivered.
  counted_payload::destroyed = 0;
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 1, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->flood_payload(1, make_message<counted_payload>(13));
  EXPECT_EQ(counted_payload::destroyed, 0);
  w.sim.run_until(1_s);
  ASSERT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[1]->delivered[0].origin, 0u);
  EXPECT_EQ(w.nodes[1]->delivered[0].value, 13);
  EXPECT_EQ(counted_payload::destroyed, 1);
}

TEST(Flooding, MultiHopChainOnly) {
  // Keep only the chain 0→1→2→3; every other channel is down. A broadcast
  // from 0 must still reach 3 in three hops.
  fault_plan faults = fault_plan::none(4);
  for (process_id u = 0; u < 4; ++u)
    for (process_id v = 0; v < 4; ++v) {
      if (u == v) continue;
      const bool chain = (v == u + 1);
      if (!chain) faults.disconnect(u, v, 0);
    }
  flood_world w(4, std::move(faults));
  w.nodes[0]->broadcast_value(3);
  w.sim.run_until(1_s);
  for (process_id p = 0; p < 4; ++p)
    ASSERT_EQ(w.nodes[p]->delivered.size(), 1u) << "process " << p;
  // And nothing flows upstream: a broadcast from 3 reaches only 3.
  w.nodes[3]->broadcast_value(4);
  w.sim.run_until(2_s);
  EXPECT_EQ(w.nodes[3]->delivered.size(), 2u);
  for (process_id p = 0; p < 3; ++p)
    EXPECT_EQ(w.nodes[p]->delivered.size(), 1u) << "process " << p;
}

TEST(Flooding, IsolatedProcessReceivesNothing) {
  // All channels into 2 are down.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 0);
  faults.disconnect(1, 2, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->broadcast_value(8);
  w.sim.run_until(1_s);
  EXPECT_EQ(w.nodes[0]->delivered.size(), 1u);
  EXPECT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_TRUE(w.nodes[2]->delivered.empty());
  // But 2 can still push *out* (its outgoing channels are fine).
  w.nodes[2]->broadcast_value(9);
  w.sim.run_until(2_s);
  EXPECT_EQ(w.nodes[0]->delivered.size(), 2u);
  EXPECT_EQ(w.nodes[1]->delivered.size(), 2u);
}

TEST(Flooding, Figure1F1Connectivity) {
  // Under f1 of Figure 1 (d crashed; only (c,a), (a,b), (b,a) reliable):
  // a payload pushed by c reaches a and b; nothing reaches c; a and b
  // exchange bidirectionally.
  const auto fig = make_figure1();
  flood_world w(4, fault_plan::from_pattern(fig.gqs.fps[0], 0));
  constexpr process_id a = 0, b = 1, c = 2, d = 3;
  w.nodes[c]->broadcast_value(1);
  w.sim.run_until(1_s);
  auto count = [&](process_id p) { return w.nodes[p]->delivered.size(); };
  EXPECT_EQ(count(a), 1u);
  EXPECT_EQ(count(b), 1u);
  EXPECT_EQ(count(c), 1u);  // self-delivery
  EXPECT_EQ(count(d), 0u);  // crashed

  w.nodes[a]->broadcast_value(2);
  w.nodes[b]->broadcast_value(3);
  w.sim.run_until(2_s);
  EXPECT_EQ(count(a), 3u);
  EXPECT_EQ(count(b), 3u);
  EXPECT_EQ(count(c), 1u);  // all channels into c failed
}

TEST(Flooding, CrashedOriginStopsFlooding) {
  fault_plan faults = fault_plan::none(3);
  faults.crash(0, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->broadcast_value(1);  // invoked, but sends are suppressed
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.nodes[1]->delivered.empty());
  EXPECT_TRUE(w.nodes[2]->delivered.empty());
}

TEST(Flooding, ManyMessagesAllDeliveredOnce) {
  flood_world w(4, fault_plan::none(4), 42);
  for (int i = 0; i < 50; ++i)
    w.nodes[static_cast<process_id>(i % 4)]->broadcast_value(i);
  w.sim.run_until(10_s);
  for (auto* n : w.nodes) {
    ASSERT_EQ(n->delivered.size(), 50u);
    // Values 0..49 each exactly once.
    std::vector<bool> seen(50, false);
    for (const auto& r : n->delivered) {
      ASSERT_GE(r.value, 0);
      ASSERT_LT(r.value, 50);
      EXPECT_FALSE(seen[r.value]) << "duplicate delivery of " << r.value;
      seen[r.value] = true;
    }
  }
  // With nothing lost, every dedup stream is gap-free: the high-water
  // marks cover everything and no out-of-order seqs stay buffered.
  for (auto* n : w.nodes) EXPECT_EQ(n->dedup_backlog(), 0u);
}

TEST(SequenceFilter, MarksInOrder) {
  sequence_filter f;
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_TRUE(f.mark(s));
    EXPECT_FALSE(f.mark(s));  // duplicate
  }
  EXPECT_EQ(f.low(), 100u);
  EXPECT_EQ(f.backlog(), 0u);
}

TEST(SequenceFilter, OutOfOrderBuffersThenDrains) {
  sequence_filter f;
  EXPECT_TRUE(f.mark(3));
  EXPECT_TRUE(f.mark(1));
  EXPECT_FALSE(f.mark(3));
  EXPECT_EQ(f.low(), 0u);
  EXPECT_EQ(f.backlog(), 2u);
  EXPECT_TRUE(f.mark(0));  // fills the gap: 0,1 drain; 3 stays buffered
  EXPECT_EQ(f.low(), 2u);
  EXPECT_EQ(f.backlog(), 1u);
  EXPECT_TRUE(f.mark(2));  // drains the rest
  EXPECT_EQ(f.low(), 4u);
  EXPECT_EQ(f.backlog(), 0u);
  EXPECT_FALSE(f.mark(1));  // below the high-water mark
  EXPECT_TRUE(f.seen(3));
  EXPECT_FALSE(f.seen(4));
}

TEST(SequenceFilter, BacklogBoundedByReordering) {
  // Deliver 10k seqs in windows of 16 shuffled entries: the backlog never
  // exceeds the window size, regardless of stream length.
  sequence_filter f;
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> window;
  std::size_t max_backlog = 0;
  for (std::uint64_t base = 0; base < 10000; base += 16) {
    window.clear();
    for (std::uint64_t s = base; s < base + 16; ++s) window.push_back(s);
    std::shuffle(window.begin(), window.end(), rng);
    for (std::uint64_t s : window) {
      EXPECT_TRUE(f.mark(s));
      max_backlog = std::max(max_backlog, f.backlog());
    }
  }
  EXPECT_EQ(f.low(), 10000u);
  EXPECT_EQ(f.backlog(), 0u);
  EXPECT_LE(max_backlog, 16u);
}

TEST(Flooding, EarlyDropSkipsDownedChannels) {
  // With channel (0,1) down from the start, flooding no longer *attempts*
  // the doomed direct transmission: no drop_channel events appear and the
  // message count shrinks, while delivery (via 2) is unaffected.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 1, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(1, 11);
  w.sim.run_until(1_s);
  ASSERT_EQ(w.nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(w.sim.metrics().dropped_disconnected, 0u);
}

TEST(Flooding, EarlyDropUnreachableDestination) {
  // 2 is unreachable from 0 (all channels into 2 are down): a flood_send
  // to it dies at the source — nothing is ever transmitted.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 0);
  faults.disconnect(1, 2, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(2, 5);
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.nodes[2]->delivered.empty());
  EXPECT_EQ(w.sim.metrics().messages_sent, 0u);
}

TEST(Flooding, HealthyCompleteGraphCostsOneMessagePerReceiver) {
  // Pruned relays: on a healthy complete graph every receiver's relay set
  // is empty, so a broadcast costs n−1 messages (not (n−1)²); a unicast
  // is one direct message; a self-send sends nothing.
  for (const process_id n : {2u, 3u, 5u, 8u, 33u}) {
    flood_world w(n, fault_plan::none(n));
    w.nodes[1]->broadcast_value(1);
    w.sim.run_until(1_s);
    EXPECT_EQ(w.sim.metrics().messages_sent, n - 1) << "n=" << n;
    for (auto* nd : w.nodes) EXPECT_EQ(nd->delivered.size(), 1u);

    w.nodes[0]->send_to(n - 1, 2);
    w.sim.run_until(2_s);
    EXPECT_EQ(w.sim.metrics().messages_sent, n) << "n=" << n;
    EXPECT_EQ(w.nodes[n - 1]->delivered.size(), 2u);

    w.nodes[0]->send_to(0, 3);
    w.sim.run_until(3_s);
    EXPECT_EQ(w.sim.metrics().messages_sent, n) << "n=" << n;
    EXPECT_EQ(w.nodes[0]->delivered.size(), 2u);
  }
}

TEST(Flooding, RandomFaultPlansDeliverToFinalReachableSetExactlyOnce) {
  // Property: under any fault plan, with crashes and disconnects striking
  // mid-run, every process alive and reachable from the origin in the
  // final epoch's residual graph receives each broadcast (and each unicast
  // addressed to it) exactly once, and nobody receives anything twice.
  // Covers both channel configs (legacy delays and bandwidth-limited
  // links).
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<process_id>(3 + rng() % 6);
    fault_plan faults = fault_plan::none(n);
    for (process_id p = 0; p < n; ++p)
      if (rng() % 6 == 0)
        faults.crash(p, static_cast<sim_time>(rng() % 40'000));
    for (process_id u = 0; u < n; ++u)
      for (process_id v = 0; v < n; ++v)
        if (u != v && rng() % 3 == 0)
          faults.disconnect(u, v, static_cast<sim_time>(rng() % 40'000));
    network_options net;
    if (trial % 2) net.channel.bytes_per_us = 0.5;
    flood_world w(n, faults, 100 + trial, net);

    struct sent {
      process_id origin;
      process_id dest;  // flooding_node::to_all for a broadcast
    };
    std::vector<sent> issued;  // indexed by payload value
    for (int i = 0; i < 24; ++i) {
      const auto origin = static_cast<process_id>(rng() % n);
      const process_id dest = rng() % 2 ? flooding_node::to_all
                                        : static_cast<process_id>(rng() % n);
      const auto at = static_cast<sim_time>(rng() % 50'000);
      // A post to a process crashed by `at` is dropped: only operations
      // that actually ran are recorded.
      w.sim.post_after(origin, at, [&w, &issued, origin, dest] {
        const int value = static_cast<int>(issued.size());
        issued.push_back({origin, dest});
        if (dest == flooding_node::to_all)
          w.nodes[origin]->broadcast_value(value);
        else
          w.nodes[origin]->send_to(dest, value);
      });
    }
    w.sim.run_until(5_s);

    const connectivity_epochs& ep = w.sim.epochs();
    const std::size_t last = ep.epoch_count() - 1;
    for (process_id p = 0; p < n; ++p) {
      std::vector<int> count(issued.size(), 0);
      for (const auto& r : w.nodes[p]->delivered) {
        ASSERT_LT(static_cast<std::size_t>(r.value), issued.size());
        ++count[r.value];
      }
      for (std::size_t v = 0; v < issued.size(); ++v) {
        const sent& s = issued[v];
        const bool addressed = s.dest == flooding_node::to_all || s.dest == p;
        const bool promised = addressed && ep.alive(last, p) &&
                              ep.reachable(last, s.origin).contains(p);
        ASSERT_LE(count[v], addressed ? 1 : 0)
            << "trial " << trial << " process " << p << " payload " << v;
        if (promised) {
          ASSERT_EQ(count[v], 1)
              << "trial " << trial << " process " << p << " payload " << v
              << " from " << s.origin;
        }
      }
    }
  }
}

TEST(Flooding, Figure1SelfSendLeavesNoDedupGap) {
  // Regression: under f1 a self-send used to consume a sequence number
  // and flood a copy that a dropped as unreachable (c is reachable from
  // nobody), so b's filter for c had a permanent gap and buffered every
  // later c seq. A self-send now never leaves the process.
  const auto fig = make_figure1();
  flood_world w(4, fault_plan::from_pattern(fig.gqs.fps[0], 0));
  constexpr process_id b = 1, c = 2;
  w.nodes[c]->send_to(c, 1);
  for (int i = 0; i < 20; ++i) w.nodes[c]->broadcast_value(2 + i);
  w.sim.run_until(1_s);
  EXPECT_EQ(w.nodes[c]->delivered.size(), 21u);
  EXPECT_EQ(w.nodes[b]->delivered.size(), 20u);
  EXPECT_EQ(w.nodes[b]->dedup_backlog(), 0u);
}

TEST(Flooding, EarlyDropConsumesNoSequenceNumber) {
  // Regression: an early-dropped origination must not burn a seq — a seq
  // that is never flooded would be a permanent gap in every peer's dedup
  // stream, making all later envelopes from that origin buffer forever.
  fault_plan faults = fault_plan::none(3);
  faults.disconnect(0, 2, 0);
  faults.disconnect(1, 2, 0);
  flood_world w(3, std::move(faults));
  w.nodes[0]->send_to(2, 5);  // early-dropped at the source
  for (int i = 0; i < 40; ++i) w.nodes[0]->broadcast_value(i);
  w.sim.run_until(10_s);
  EXPECT_EQ(w.nodes[1]->delivered.size(), 40u);
  for (auto* n : w.nodes)
    EXPECT_EQ(n->dedup_backlog(), 0u) << "gap pinned the dedup buffer";
}

}  // namespace
}  // namespace gqs
