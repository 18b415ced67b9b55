// network.hpp — per-link bandwidth and queueing model of the network.
//
// The seed simulator delivers every message after an *independently
// sampled* delay: infinitely fast links, no queueing, no congestion —
// so "as fast as the hardware allows" is unmeasurable. This layer puts a
// router-style channel on every directed link (the architecture of
// hardware network simulators: per-link channels with FIFO queues):
//
//   * serialization — a link transmits `message::wire_size()` bytes at a
//     configurable rate; a message occupies the serializer for
//     ceil(bytes / bytes_per_us) microseconds, and messages queue FIFO
//     behind it;
//   * unbounded queues — a link never drops a message: a correct channel
//     delivers everything sent on it, as the paper's model assumes, so
//     congestion shows as queueing delay (`queue_depth()` reads a link's
//     occupancy);
//   * propagation — the seed's random delay still applies after
//     serialization (it models distance, not bandwidth), with per-link
//     arrival times clamped monotone so every link is FIFO end to end.
//
// Determinism: a transmit is pure arithmetic over (send order, sizes,
// options) — no RNG of its own, no events of its own. Departure times
// are tracked in per-link FIFO queues of *recycled* nodes (one shared
// pool with a free list, the slab pattern of the event engine), so the
// hot path allocates nothing once warm. The delivery event still enters
// the ordinary timing wheel with the ordinary (time, seq) key; seq
// follows send order, so the wheel's exact pop order is untouched.
//
// Switched off (`bytes_per_us == 0`, the default), simulation::send takes
// the exact legacy code path: the disabled configuration reproduces
// the independent-delay model bit for bit (tests/network_test.cpp pins
// the RNG stream of that path).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gqs {

using process_id = std::uint32_t;  // matches graph/process_set.hpp

/// Configuration of the per-link channel layer.
struct channel_options {
  /// Serialization rate of every directed link, in bytes per microsecond
  /// (1.0 ≈ 8 Mbit/s of simulated wire). 0 disables the channel layer —
  /// the legacy infinite-bandwidth, independent-delay model.
  double bytes_per_us = 0;
  /// Per-process ingress-rate overrides: entry p, if positive, replaces
  /// `bytes_per_us` on every link *into* p (a server's NIC). Empty means
  /// uniform rates. This is how heterogeneous process capacities are
  /// realized for the latency-aware planner benches.
  std::vector<double> ingress_bytes_per_us;

  bool enabled() const noexcept { return bytes_per_us > 0; }
  void validate() const;
};

/// Per-directed-link traffic counters.
struct link_metrics {
  std::uint64_t messages = 0;  ///< accepted onto the link
  std::uint64_t bytes = 0;     ///< accepted payload bytes
  std::uint32_t max_queue_depth = 0;  ///< peak simultaneous occupancy
};

/// All directed links of one simulation. Owned by gqs::simulation; every
/// accepted send flows through transmit().
class link_network {
 public:
  link_network() = default;
  link_network(process_id n, const channel_options& options);

  bool enabled() const noexcept { return options_.enabled(); }
  process_id system_size() const noexcept { return n_; }

  struct admit_result {
    sim_time arrival = 0;  ///< delivery instant
    // Serialization interval: the message waits in the link queue during
    // [send, serialize_start) and occupies the serializer during
    // [serialize_start, depart). Consumed by the trace layer for
    // queueing/serialization sub-spans.
    sim_time serialize_start = 0;
    sim_time depart = 0;
  };

  /// Offers `bytes` for transmission on link (from, to) at time `now`
  /// with propagation delay `propagation`. FIFO per link; never drops.
  admit_result transmit(process_id from, process_id to, std::size_t bytes,
                        sim_time now, sim_time propagation);

  /// Messages currently occupying (from, to) at `now`.
  std::uint32_t queue_depth(process_id from, process_id to, sim_time now);

  const link_metrics& metrics_of(process_id from, process_id to) const;

  /// Bytes accepted per loaded link (links that carried ≥ 1 message), for
  /// folding through sample_accumulator into runner records.
  std::vector<double> per_link_bytes() const;

  /// Peak queue depth over all links.
  std::uint32_t max_queue_depth() const noexcept { return max_depth_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;

  struct queue_node {
    sim_time depart = 0;     ///< serialization finishes at this instant
    std::uint32_t next = kNil;
  };

  struct link_state {
    sim_time busy_until = 0;    ///< serializer frees at this instant
    sim_time last_arrival = 0;  ///< FIFO floor for delivery times
    std::uint32_t head = kNil;  ///< oldest queued node
    std::uint32_t tail = kNil;
    std::uint32_t depth = 0;    ///< current occupancy
    link_metrics stats;
  };

  link_state& link(process_id from, process_id to) {
    return links_[static_cast<std::size_t>(from) * n_ + to];
  }
  const link_state& link(process_id from, process_id to) const {
    return links_[static_cast<std::size_t>(from) * n_ + to];
  }

  /// Pops every node whose serialization finished by `now`, returning its
  /// slot to the free list.
  void retire(link_state& l, sim_time now);

  std::uint32_t alloc_node();

  process_id n_ = 0;
  channel_options options_;
  std::vector<link_state> links_;      // n*n, row-major [from][to]
  std::vector<queue_node> pool_;       // recycled queue nodes
  std::uint32_t free_head_ = kNil;
  std::uint32_t max_depth_ = 0;
};

}  // namespace gqs
