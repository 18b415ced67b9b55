#include "quorum/quorum_service.hpp"

#include <stdexcept>

namespace gqs {

void service_options::validate() const {
  push_qaf_options::validate();
  if (nack_gap_ticks < 1)
    throw std::invalid_argument("quorum_service: bad nack gap");
}

bool gossip_stream::observe(std::uint64_t seq, std::uint64_t clock) {
  if (seq < next_) return false;  // stale duplicate
  if (seq == next_) {
    ++next_;
    if (fresh_clock_ < clock) fresh_clock_ = clock;
    drain();
    return true;
  }
  pending_.insert_or_assign(seq, clock);
  return false;
}

bool gossip_stream::repair(std::uint64_t upto_seq, std::uint64_t clock) {
  if (upto_seq < next_)
    return false;  // the gap already closed through regular gossip
  next_ = upto_seq + 1;
  if (fresh_clock_ < clock) fresh_clock_ = clock;
  pending_.erase(pending_.begin(), pending_.upper_bound(upto_seq));
  drain();
  gap_ticks = 0;
  return true;
}

void gossip_stream::drain() {
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == next_) {
    ++next_;
    if (fresh_clock_ < it->second) fresh_clock_ = it->second;
    it = pending_.erase(it);
  }
  if (pending_.empty()) gap_ticks = 0;
}

}  // namespace gqs
