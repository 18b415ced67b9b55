#include "quorum/quorum_service.hpp"

namespace gqs {

bool gossip_stream::observe(std::uint64_t seq, std::uint64_t clock) {
  if (seq < next_) return false;  // stale duplicate
  if (seq > next_) {
    pending_.insert_or_assign(seq, clock);
    return false;
  }
  ++next_;
  if (fresh_clock_ < clock) fresh_clock_ = clock;
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == next_) {
    ++next_;
    if (fresh_clock_ < it->second) fresh_clock_ = it->second;
    it = pending_.erase(it);
  }
  return true;
}

}  // namespace gqs
