// consensus.hpp — partially synchronous consensus over a generalized
// quorum system (paper §7, Figure 6).
//
// A Paxos-like single-decree protocol driven by a view synchronizer with
// growing timeouts:
//
//   * Views rotate round-robin: leader(v) = p_((v-1) mod n + 1).
//   * A process spends v·C time units in view v (no synchronization
//     messages!; consensus/view_schedule.hpp). Proposition 2: for any d there is a view from which on
//     all correct processes overlap in every view for at least d.
//   * On entering view v, send 1B(v, aview, val) to leader(v).
//   * The leader of v gathers 1B messages from all members of some *read*
//     quorum, picks the value accepted in the highest view (or its own
//     proposal, or skips), and broadcasts 2A(v, x).
//   * On 2A(v, x) in view v: accept (val ← x, aview ← v), broadcast
//     2B(v, x).
//   * On matching 2B(v, x) from all members of some *write* quorum:
//     decide x.
//
// Safety is Paxos' (via the Consistency property of the GQS); liveness is
// Theorem 5: wait-freedom within U_f. Unlike the register, consensus
// exploits the eventual timeliness of the network (after GST) instead of
// logical clocks to establish freshness.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "consensus/acceptor_core.hpp"
#include "consensus/view_schedule.hpp"
#include "quorum/quorum_config.hpp"
#include "register/register_state.hpp"
#include "sim/transport.hpp"

namespace gqs {

struct consensus_options {
  /// The constant C: a process stays in view v for v·C time units.
  sim_time view_duration_unit = 50000;  // 50 ms

  /// Delay before this process enters view 1. Models the clock skew the
  /// partially synchronous model allows before GST: processes start their
  /// view schedules at different real times, and Proposition 2 is exactly
  /// the statement that the growing view durations absorb any such skew.
  sim_time startup_delay = 0;

  void validate() const {
    if (view_duration_unit <= 0)
      throw std::invalid_argument("consensus: bad view duration");
    if (startup_delay < 0)
      throw std::invalid_argument("consensus: bad startup delay");
  }
};

/// The Figure 6 protocol at one process.
class consensus_node : public component {
 public:
  using value_type = std::int64_t;
  using propose_callback = std::function<void(value_type)>;

  consensus_node(quorum_config config, consensus_options options = {});

  /// propose(x): stores the proposal and returns (via callback) once this
  /// process learns the decision. May be invoked at most once.
  void propose(value_type x, propose_callback done);

  bool has_decided() const noexcept { return decision_.has_value(); }
  std::optional<value_type> decision() const { return decision_; }

  /// Registers a callback fired once, when this process first learns the
  /// decision — also at processes that never proposed (passive learners).
  /// Fired immediately if the decision is already known.
  void on_decision(std::function<void(value_type)> cb) {
    if (decision_) {
      cb(*decision_);
      return;
    }
    learners_.push_back(std::move(cb));
  }
  std::uint64_t current_view() const noexcept { return schedule_.view(); }

  /// (view, entry time) log — the data behind the Proposition 2 bench.
  const view_schedule::log_type& view_log() const { return schedule_.log(); }

  void start() override;
  void deliver(process_id origin, const message_ptr& payload) override;
  void on_timeout(int timer_id) override;

 private:
  enum class phase_t { enter, propose, accept, decide };

  struct msg_1b : message {
    std::uint64_t view;
    std::uint64_t aview;
    std::optional<value_type> val;  // nullopt = ⊥
    msg_1b(std::uint64_t v, std::uint64_t av, std::optional<value_type> x)
        : view(v), aview(av), val(x) {}
    std::size_t wire_size() const override {
      return 16 + (val ? sizeof(value_type) : 0);
    }
  };
  struct msg_2a : message {
    std::uint64_t view;
    value_type x;
    msg_2a(std::uint64_t v, value_type value) : view(v), x(value) {}
    std::size_t wire_size() const override {
      return 8 + sizeof(value_type);
    }
  };
  struct msg_2b : message {
    std::uint64_t view;
    value_type x;
    msg_2b(std::uint64_t v, value_type value) : view(v), x(value) {}
    std::size_t wire_size() const override {
      return 8 + sizeof(value_type);
    }
  };

  process_id leader_of(std::uint64_t view) const {
    return static_cast<process_id>((view - 1) % system_size());
  }

  void advance_view();   // startup / timer expiry (lines 27-31)
  void try_lead();       // lines 8-16
  void try_accept();     // lines 17-22
  void try_decide();     // lines 23-26
  void settle_waiters();

  quorum_config config_;
  consensus_options options_;

  view_schedule schedule_;
  /// The single-decree acceptor register (promised view + accepted pair);
  /// shared logic with the sharded SMR service — see acceptor_core.hpp.
  acceptor_core<value_type> acceptor_;
  std::optional<value_type> my_val_;
  phase_t phase_ = phase_t::enter;
  int view_timer_ = -1;
  int startup_timer_ = -1;
  /// Sticky decision. The paper's phase resets to `enter` on every view
  /// entry (line 31) and the process keeps participating so that others
  /// can assemble their own 2B write quorums; Agreement guarantees every
  /// later decision carries the same value.
  std::optional<value_type> decision_;

  // Buffers, keyed by view; future-view messages wait for view entry.
  std::map<std::uint64_t, std::map<process_id, accepted_rec<value_type>>>
      one_bs_;
  std::map<std::uint64_t, value_type> two_as_;
  std::map<std::uint64_t, std::map<process_id, value_type>> two_bs_;

  std::vector<propose_callback> waiters_;
  std::vector<std::function<void(value_type)>> learners_;
};

}  // namespace gqs
