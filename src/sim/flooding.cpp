#include "sim/flooding.hpp"

namespace gqs {

void flooding_node::on_attach() {
  obs_bundle& o = sim().obs();
  if (o.sampler.enabled()) {
    o.sampler.add_probe("flood.dedup_backlog", [this] {
      return static_cast<std::int64_t>(dedup_backlog());
    });
  }
}

void flooding_node::on_message(process_id from, const message_ptr& m) {
  // Envelopes are a private type built and tagged only here, so one
  // pointer compare identifies them; anything else is a direct unicast
  // (the payload itself, from its origin). Deliver it in place: no dedup
  // (a physical channel delivers at most once) and no forwarding (it was
  // addressed to this process alone).
  if (m->type_tag == message_tag_of<envelope>())
    handle(from, m);
  else
    on_deliver(from, m);
}

void flooding_node::flood_send(process_id dest, const message_ptr& payload) {
  if (dest != to_all && dest >= system_size())
    throw std::out_of_range("flood_send: destination out of range");
  originate(dest, payload);
}

void flooding_node::flood_broadcast(const message_ptr& payload) {
  originate(to_all, payload);
}

bool flooding_node::mark_seen(process_id origin, std::uint64_t seq) {
  if (seen_.size() <= origin) seen_.resize(system_size());
  return seen_[origin].mark(seq);
}

void flooding_node::originate(process_id dest, const message_ptr& payload) {
  // A self-send never leaves the process: no envelope, so no sequence
  // number that peers could see only partially.
  if (dest == id()) {
    sim().post_local(id(), payload);
    return;
  }
  // Resolve the unicast shortcuts BEFORE consuming a sequence number: a
  // seq that is never flooded would leave a permanent gap in every peer's
  // dedup filter, pinning their out-of-order buffers forever.
  if (dest != to_all) {
    const connectivity_epochs& ep = sim().epochs();
    const std::size_t e = sim().current_epoch();
    // Unreachable now means unreachable forever (monotone failures).
    if (!ep.reachable(e, id()).contains(dest)) return;
    // Reachable implies alive; over an up channel the one direct copy is
    // delivered, and no relay could improve on it.
    if (ep.channel_up(e, id(), dest)) {
      sim().send(id(), dest, payload, direct_framing);
      return;
    }
  }
  const std::uint64_t seq = next_seq_++;
  mark_seen(id(), seq);
  const message_ptr wire = make_message<envelope>(id(), seq, dest, payload);
  // Local delivery first (a process trivially "reaches" itself).
  if (dest == to_all) sim().post_local(id(), payload);
  forward(wire, id());
}

void flooding_node::handle(process_id from, const message_ptr& wire) {
  const auto& env = static_cast<const envelope&>(*wire);
  if (!mark_seen(env.origin, env.seq)) return;
  // Forward once, on the first copy only (see forward() for whom to).
  forward(wire, from);
  if (env.dest == to_all || env.dest == id())
    on_deliver(env.origin, env.payload);
}

void flooding_node::forward(const message_ptr& wire, process_id from) {
  const auto& env = static_cast<const envelope&>(*wire);
  const connectivity_epochs& ep = sim().epochs();
  const std::size_t e = sim().current_epoch();
  // Early drop: reachability only shrinks across epochs, so a destination
  // outside this process's current reachable set can never be reached by
  // any copy forwarded from here, now or later.
  if (env.dest != to_all && env.dest != id() &&
      !ep.reachable(e, id()).contains(env.dest))
    return;
  // Forward only over up channels to live processes: a send on a downed
  // channel is dropped at the channel, one to a crashed process is dropped
  // at delivery, and a crashed process forwards nothing — skipping both
  // changes no delivery.
  process_set targets = ep.up_out_channels(e, id()) & ep.alive(e);
  targets.erase(from);  // it has the envelope (or is this process)
  // Pruned relay: every channel out of `from` that is up now was up when
  // `from` relayed (monotone failures), so its far end already has a copy
  // in flight or covered (the covered-set argument in flooding.hpp).
  if (from != id()) targets -= ep.up_out_channels(e, from);
  for (process_id q : targets) send(q, wire);
}

}  // namespace gqs
