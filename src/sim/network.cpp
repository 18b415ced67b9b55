#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gqs {

void channel_options::validate() const {
  if (bytes_per_us < 0) {
    throw std::invalid_argument("channel_options: bytes_per_us must be >= 0");
  }
  for (double rate : ingress_bytes_per_us) {
    if (rate < 0) {
      throw std::invalid_argument(
          "channel_options: ingress_bytes_per_us entries must be >= 0");
    }
  }
  if (!bytes_per_us && !ingress_bytes_per_us.empty()) {
    throw std::invalid_argument(
        "channel_options: ingress overrides require bytes_per_us > 0");
  }
}

link_network::link_network(process_id n, const channel_options& options)
    : n_(n), options_(options) {
  options_.validate();
  if (options_.enabled()) {
    links_.assign(static_cast<std::size_t>(n_) * n_, link_state{});
  }
}

std::uint32_t link_network::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  pool_.push_back(queue_node{});
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void link_network::retire(link_state& l, sim_time now) {
  while (l.head != kNil && pool_[l.head].depart <= now) {
    const std::uint32_t idx = l.head;
    l.head = pool_[idx].next;
    if (l.head == kNil) l.tail = kNil;
    pool_[idx].next = free_head_;
    free_head_ = idx;
    --l.depth;
  }
}

link_network::admit_result link_network::transmit(process_id from,
                                                  process_id to,
                                                  std::size_t bytes,
                                                  sim_time now,
                                                  sim_time propagation) {
  link_state& l = link(from, to);
  retire(l, now);

  double rate = options_.bytes_per_us;
  if (to < options_.ingress_bytes_per_us.size() &&
      options_.ingress_bytes_per_us[to] > 0) {
    rate = options_.ingress_bytes_per_us[to];
  }
  // Serialization occupies the link for at least 1us per message so a
  // zero-size or ultra-fast message still takes one slot of wire time.
  const sim_time serialization = std::max<sim_time>(
      1, static_cast<sim_time>(
             std::ceil(static_cast<double>(bytes) / rate)));

  const sim_time start = std::max(now, l.busy_until);
  const sim_time depart = start + serialization;
  l.busy_until = depart;

  const std::uint32_t idx = alloc_node();
  pool_[idx].depart = depart;
  pool_[idx].next = kNil;
  if (l.tail == kNil) {
    l.head = idx;
  } else {
    pool_[l.tail].next = idx;
  }
  l.tail = idx;
  ++l.depth;
  l.stats.max_queue_depth = std::max(l.stats.max_queue_depth, l.depth);
  max_depth_ = std::max(max_depth_, l.depth);

  // Propagation rides after serialization; clamping against the previous
  // arrival keeps the link FIFO even when the random propagation samples
  // would reorder back-to-back messages.
  sim_time arrival = depart + propagation;
  arrival = std::max(arrival, l.last_arrival);
  l.last_arrival = arrival;

  ++l.stats.messages;
  l.stats.bytes += bytes;
  return admit_result{arrival, start, depart};
}

std::uint32_t link_network::queue_depth(process_id from, process_id to,
                                        sim_time now) {
  if (!enabled()) return 0;
  link_state& l = link(from, to);
  retire(l, now);
  return l.depth;
}

const link_metrics& link_network::metrics_of(process_id from,
                                             process_id to) const {
  static const link_metrics kEmpty{};
  if (!enabled()) return kEmpty;
  return link(from, to).stats;
}

std::vector<double> link_network::per_link_bytes() const {
  std::vector<double> out;
  for (const link_state& l : links_) {
    if (l.stats.messages > 0) {
      out.push_back(static_cast<double>(l.stats.bytes));
    }
  }
  return out;
}

}  // namespace gqs
