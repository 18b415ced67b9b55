// targeted_round.hpp — the targeted quorum round with escalation to
// broadcast, shared by quorum_service and smr_service.
//
// A round sends its wire message only to the members of one quorum drawn
// from the strategy selector: one unicast per member, in ascending id
// (over an up channel each is one direct message). If
// the owner has not closed the round within `escalation_timeout`, the
// helper rebroadcasts the round's original wire to all n processes, once.
// From then on the round is the broadcast protocol's round, which reaches
// every process flooding can, so liveness under F (Theorem 1) is exactly
// the broadcast engine's: targeting is a pure fast path. Receivers
// tolerate the duplicate: collectors ignore repeat acks, service SET
// entries merge by version, and SMR acceptors answer a repeated 1A/2A
// idempotently.
//
// SMR Phase 1 thus resends its original 1A although the leader's applied
// prefix may have advanced since. That is safe: acceptors keep the highest
// floor heard from the leader (an older one could only make them report
// more slots), finish_phase1 ignores slots below `applied`, and its
// catch-up commits use each acceptor's own floor.
//
// The engines keep only what differs: the wire message, the selector
// stream a round draws from, and when a round is covered (or abandoned),
// at which point they close() it. A round with no drawn quorum (no
// selector) is one broadcast and arms nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "quorum/quorum_config.hpp"
#include "sim/transport.hpp"
#include "strategy/selector.hpp"

namespace gqs {

/// A drawn quorum only progresses if acks from all its members cover some
/// configured quorum of its kind; a selector planned over another system
/// would ride the escalation timeout on every round. Reject it up front.
inline void check_selector_covers(const quorum_strategy& drawn,
                                  const quorum_family& configured,
                                  const char* kind) {
  for (const process_set& q : drawn.quorums)
    if (!covered_quorum(configured, q))
      throw std::invalid_argument("quorum selector: " + std::string(kind) +
                                  "-strategy quorum " + q.to_string() +
                                  " covers no configured " + kind + " quorum");
}

/// The targeted rounds of one component: sends, per-process hit counts,
/// and the escalation-timer table.
class targeted_round {
 public:
  /// An open round's escalation timer id; `none` if it armed no timer.
  using handle = int;
  static constexpr handle none = -1;

  /// `escalation_timeout` 0 disables escalation (mutation tests only).
  /// Each escalation increments `escalations` and, when spans are recorded
  /// and `layer` is set, emits a "<layer>.escalate" leaf on the round's
  /// span. With `self_answers` the owner handles its own share of a round
  /// locally: its member of a drawn quorum gets no copy but counts a hit.
  targeted_round(component& owner, sim_time escalation_timeout,
                 std::uint64_t& escalations, const char* layer = nullptr,
                 bool self_answers = false)
      : owner_(owner),
        timeout_(escalation_timeout),
        escalations_(escalations),
        layer_(layer),
        self_answers_(self_answers) {
    if (timeout_ < 0)
      throw std::invalid_argument("targeted_round: bad escalation timeout");
  }

  /// Starts a round over `wire` (which the caller stamped with `span`).
  /// With a drawn `quorum`: one unicast per member in ascending id, a hit
  /// per member, and an escalation timer whose handle is returned.
  /// Without one: one broadcast, no timer.
  handle open(const std::optional<process_set>& quorum,
              const message_ptr& wire, span_ref span = {}) {
    if (!quorum) {
      owner_.broadcast(wire);
      return none;
    }
    if (hits_.empty()) hits_.assign(owner_.system_size(), 0);
    for (const process_id p : *quorum) {
      ++hits_.at(p);  // a selector over a larger system must not overrun
      if (!self_answers_ || p != owner_.id()) owner_.unicast(p, wire);
    }
    if (timeout_ == 0) return none;
    const handle h = owner_.set_timer(timeout_);
    open_.push_back(round{h, wire, span});
    return h;
  }

  /// The round was covered or abandoned: it never escalates.
  void close(handle h) { take(h); }

  /// Forward the owner's timers here: a still-open round's timer
  /// rebroadcasts its original wire, once; any other timer is ignored.
  void on_timeout(int timer_id) {
    const round r = take(timer_id);
    if (!r.wire) return;
    ++escalations_;
    obs_bundle* o = owner_.obs();
    if (layer_ && o && o->tracer.recording())
      o->tracer.leaf(std::string(layer_) + ".escalate", layer_, owner_.id(),
                     r.span, owner_.now());
    owner_.broadcast(r.wire);
  }

  /// How many rounds drew each process into their quorum: the strategy's
  /// realized per-process load. Sized n at the first targeted round, so
  /// empty without a selector.
  const std::vector<std::uint64_t>& hits() const noexcept { return hits_; }

 private:
  struct round {
    handle timer = none;
    message_ptr wire;
    span_ref span;
  };

  /// Removes and returns the open round armed with timer `h`; a round
  /// with a null wire if there is none. Few rounds are open at once (one
  /// per pipelined batch), so a scan beats a tree.
  round take(handle h) {
    const auto it = std::find_if(open_.begin(), open_.end(),
                                 [h](const round& r) { return r.timer == h; });
    if (it == open_.end()) return {};
    round r = std::move(*it);
    *it = std::move(open_.back());
    open_.pop_back();
    return r;
  }

  component& owner_;
  sim_time timeout_;
  std::uint64_t& escalations_;
  const char* layer_;
  bool self_answers_;
  std::vector<std::uint64_t> hits_;
  std::vector<round> open_;  // unordered; timer ids are unique
};

}  // namespace gqs
