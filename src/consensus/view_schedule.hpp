// view_schedule.hpp — Figure 6's view synchronizer (lines 27-31), shared by
// every Figure-6 instantiation.
//
// A process spends v·C time units in view v, measured on its own clock
// from the moment it entered v; no synchronization messages are needed.
// Proposition 2: because the durations grow, for any d there is a view
// from which on all correct processes overlap in every view for at least
// d, whatever skew their schedules started with.
//
// consensus_node runs one schedule; the sharded SMR (smr/smr_service.hpp)
// runs one per shard, and also enters a higher view it learns of from a
// message, which restarts that shard's clock. The schedule only keeps the
// state; its owner arms a timer for duration() on every entry and leaves
// the view when that timer fires.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace gqs {

class view_schedule {
 public:
  /// (view, entry time) — the data behind the Proposition 2 bench.
  using log_type = std::vector<std::pair<std::uint64_t, sim_time>>;

  /// `unit` is the constant C.
  explicit view_schedule(sim_time unit) : unit_(unit) {}

  /// The current view; 0 before the first entry.
  std::uint64_t view() const noexcept { return view_; }

  /// Enters view v at `now` iff v is above the current view; returns
  /// whether it did. Views never go back.
  bool enter(std::uint64_t v, sim_time now) {
    if (v <= view_) return false;
    view_ = v;
    log_.emplace_back(v, now);
    return true;
  }

  /// How long the current view lasts from its entry: v·C.
  sim_time duration() const noexcept {
    return static_cast<sim_time>(view_) * unit_;
  }

  const log_type& log() const noexcept { return log_; }

 private:
  sim_time unit_;
  std::uint64_t view_ = 0;
  log_type log_;
};

}  // namespace gqs
