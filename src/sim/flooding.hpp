// flooding.hpp — transitive connectivity via message forwarding.
//
// The paper assumes WLOG that the connectivity relation of G \ f is
// transitive, "simulated by having all processes forward every received
// message" (§5, §7). flooding_node realizes exactly that: every protocol
// payload travels inside an envelope that each process forwards to all its
// physical neighbors once (deduplicated by origin + sequence number), so a
// payload reaches every process connected to its origin by a directed path
// of correct channels.
//
// Four engine-level optimizations, all sound because of three engine
// facts — failures are monotone (a downed channel never comes back), a
// message already in flight is delivered even if its channel fails behind
// it, and a send on an up channel is never lost (link queues are
// unbounded; sim/network.hpp):
//  * envelopes are forwarded only over channels that are up in the current
//    connectivity epoch — a send on a downed channel is guaranteed to be
//    dropped, so skipping it changes no delivery;
//  * a point-to-point envelope whose destination is outside the current
//    residual reachability of the forwarder is dropped early — it can
//    never be delivered in this epoch or any later one;
//  * pruned relays — process q, handling an envelope first received from
//    neighbor s, forwards it only to live up-neighbors outside
//    up_out_channels(s). Covered-set argument: when any process s handles
//    an envelope at time t, every live r with (s, r) up at t has or will
//    get a copy. By induction on handling time: the origin sends to all of
//    its up-neighbors; a relay s that got its first copy from p sends to
//    all of its up-neighbors except p (which has it) and those in
//    up_out_channels(p) — and a channel (p, r) up at t was up at p's
//    earlier handling time, so r is covered by p. On a healthy complete
//    graph every relay set is empty and a broadcast costs n−1 messages
//    instead of (n−1)²; every live process reachable from the origin in
//    the final epoch's residual graph still receives it exactly once;
//  * direct unicast — a unicast to a live destination over an up channel
//    sends the payload itself (no envelope, no sequence number), which is
//    all a targeted quorum round (quorum/targeted_round.hpp) sends per
//    member. Its origin is the sender, so the receiver delivers any
//    non-envelope it gets as a payload from the physical sender. The wire
//    still carries a 16-byte unicast header (origin + framing), which the
//    send charges as framing (simulation::send) instead of building a
//    wrapper message for it.
//
// Protocols built on flooding_node use flood_send / flood_broadcast and
// receive payloads through on_deliver(origin, payload); they never see the
// envelopes. Every handle on the path is passed by const reference: an
// envelope is built once per broadcast and shared by every relay copy.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "sim/simulation.hpp"

namespace gqs {

/// Duplicate filter over a dense sequence space with a high-water mark:
/// every seq < low() has been seen, and only the (transiently sparse)
/// out-of-order seqs >= low() are buffered. Memory is proportional to the
/// reordering backlog — the gaps still in flight — not to the total number
/// of sequences ever seen.
class sequence_filter {
 public:
  /// Marks seq as seen. Returns true iff it was not seen before.
  bool mark(std::uint64_t seq) {
    if (seq < low_) return false;
    if (seq == low_) {
      ++low_;
      auto it = pending_.begin();
      while (it != pending_.end() && *it == low_) {
        it = pending_.erase(it);
        ++low_;
      }
      return true;
    }
    return pending_.insert(seq).second;
  }

  bool seen(std::uint64_t seq) const {
    return seq < low_ || pending_.count(seq) != 0;
  }

  /// All seqs below this have been seen.
  std::uint64_t low() const noexcept { return low_; }

  /// Number of buffered out-of-order seqs (0 once the stream has no gaps).
  std::size_t backlog() const noexcept { return pending_.size(); }

 private:
  std::uint64_t low_ = 0;
  std::set<std::uint64_t> pending_;
};

class flooding_node : public node {
 public:
  /// Pseudo-destination meaning "deliver at every process".
  static constexpr process_id to_all = 0xffffffff;

  void on_message(process_id from, const message_ptr& m) final;

  /// Total buffered out-of-order envelope seqs across all origins — the
  /// dedup state that is *not* covered by a high-water mark. Stays flat
  /// over time unless envelopes are permanently lost mid-stream (soak
  /// tests assert this).
  std::size_t dedup_backlog() const {
    std::size_t total = 0;
    for (const sequence_filter& f : seen_) total += f.backlog();
    return total;
  }

  /// Registers the dedup backlog as an observed gauge and sampler probe
  /// (summed across nodes) when the run's telemetry is on.
  void on_attach() override;

 protected:
  /// Sends payload to a single destination: one direct message when the
  /// channel is up, otherwise routed around channel failures by flooding.
  /// Delivery to self is immediate (same instant, new event) and sends
  /// nothing.
  void flood_send(process_id dest, const message_ptr& payload);

  /// Sends payload to every process, including the sender itself (the
  /// paper's "send to all"; quorums may contain the sender).
  void flood_broadcast(const message_ptr& payload);

  /// Protocol-level receipt: payload originated at `origin` (which may be
  /// this process itself).
  virtual void on_deliver(process_id origin, const message_ptr& payload) = 0;

 private:
  /// Wire header of a direct unicast (origin + framing), charged by the
  /// send. A direct unicast is delivered where it lands, never forwarded,
  /// never deduplicated, so it takes no sequence number and leaves no gap
  /// in any peer's dedup filter.
  static constexpr std::size_t direct_framing = 16;

  struct envelope : message {
    process_id origin;
    std::uint64_t seq;
    process_id dest;  // a process id, or to_all
    message_ptr payload;

    envelope(process_id o, std::uint64_t s, process_id d, message_ptr p)
        : origin(o), seq(s), dest(d), payload(std::move(p)) {
      if (payload) trace_span = payload->trace_span;  // ride the span
    }
    std::size_t wire_size() const override {
      return 24 + payload->wire_size();  // origin + seq + dest + framing
    }
  };

  void originate(process_id dest, const message_ptr& payload);
  /// `wire` is an envelope (on_message checked its tag).
  void handle(process_id from, const message_ptr& wire);
  /// Forwards the envelope `wire` to every neighbor worth reaching (see
  /// file comment). `from` is the immediate sender, or this process on
  /// origination.
  void forward(const message_ptr& wire, process_id from);
  /// Marks (origin, seq) seen; true iff it is new.
  bool mark_seen(process_id origin, std::uint64_t seq);

  std::uint64_t next_seq_ = 0;
  std::vector<sequence_filter> seen_;  // indexed by origin
};

}  // namespace gqs
