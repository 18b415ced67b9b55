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
// push_qaf); generalized_qaf is that engine itself, and a default
// push_qaf_options (both waits on, clock starting at 0) is the published
// protocol, which sends every CLOCK_REQ and SET_REQ to all processes. The
// multi-object quorum_service runs the same machinery batched over many
// keys, and adds targeted access.
#pragma once

#include "quorum/qaf_core.hpp"

namespace gqs {

template <class S>
using generalized_qaf = push_qaf<S>;

}  // namespace gqs
