// qaf_generalized.hpp — quorum access functions for a *generalized* quorum
// system (paper Figure 3), the paper's central algorithmic contribution.
//
// Differences from the classical protocol that make unidirectional
// read-quorum connectivity sufficient:
//
//   * Periodic state propagation: every process periodically advances a
//     logical clock and pushes GET_RESP(state, clock) to all, unprompted.
//     (We call the message `gossip`; it is the paper's unsolicited
//     GET_RESP of line 12-14.)
//   * Clock updates on state change: handling SET_REQ increments the clock
//     and returns it in SET_RESP — the logical time by which the update is
//     incorporated.
//   * Delayed quorum_set completion: after gathering SET_RESPs from a
//     write quorum, quorum_set computes c_set = max clock received and
//     waits until some read quorum has gossiped clocks ≥ c_set.
//   * Clock cutoff for quorum_get: quorum_get first asks a *write* quorum
//     for clocks (CLOCK_REQ/CLOCK_RESP), takes the max as c_get, then
//     waits for gossip with clocks ≥ c_get from all members of some read
//     quorum — an inversion of the traditional quorum roles.
//
// Real-time ordering follows from Lemma 1 / Theorem 3; liveness
// ((F, τ)-wait-freedom with τ(f) = U_f) from Theorem 4. The tests replay
// both arguments operationally.
//
// The protocol body lives in the shared engine core (qaf_core.hpp's
// push_qaf); this header pins its options to the published protocol. The
// multi-object quorum_service runs the same machinery batched over many
// keys.
#pragma once

#include <utility>

#include "quorum/qaf_core.hpp"

namespace gqs {

struct generalized_qaf_options {
  /// Period of the unsolicited state/clock propagation (Figure 3 line 12).
  sim_time gossip_period = 5000;  // 5 ms
  /// Strategy-driven targeted access (strategy/selector.hpp): CLOCK_REQ /
  /// SET_REQ go only to a sampled write quorum, with timeout escalation
  /// back to broadcast. Null = the published broadcast protocol.
  selector_ptr selector;
  sim_time escalation_timeout = 40000;  // 40 ms; see push_qaf_options

  void validate() const {
    if (gossip_period <= 0)
      throw std::invalid_argument("generalized_qaf: bad gossip period");
  }
};

template <class S>
class generalized_qaf : public push_qaf<S> {
 public:
  generalized_qaf(quorum_config config, S initial,
                  generalized_qaf_options options = {})
      : push_qaf<S>(std::move(config), std::move(initial),
                    to_core(options)) {}

 private:
  static push_qaf_options to_core(generalized_qaf_options o) {
    o.validate();
    push_qaf_options core;
    core.gossip_period = o.gossip_period;
    core.selector = std::move(o.selector);
    core.escalation_timeout = o.escalation_timeout;
    return core;  // both waits on, clock starts at 0: Figure 3 verbatim
  }
};

}  // namespace gqs
