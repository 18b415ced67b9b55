// message.hpp — the unit of communication in the simulator.
//
// Messages are immutable C++ values shared between sender and receivers;
// protocols define subclasses and downcast on receipt (the simulator is an
// in-process model of a network, so no serialization layer is pretended;
// wire_size() prices the bytes — docs/ARCHITECTURE.md, "Network model").
//
// Dispatch: every message built through make_message carries a type tag (a
// per-type sentinel address), so message_cast is a pointer compare plus a
// static_cast on the hot delivery path — the per-delivery dynamic_cast
// chains of the protocol deliver() handlers resolve without RTTI. The cast
// matches the exact constructed type; casting a tagged message to
// anything else yields nullptr. Messages created without make_message
// (tag unset) fall back to dynamic_cast.
#pragma once

#include <cstddef>
#include <memory>

#include "obs/trace.hpp"

namespace gqs {

/// Identity of a concrete message type: the address of a per-type
/// sentinel. Stable for the lifetime of the program, unique per type.
using message_type_tag = const void*;

template <class M>
message_type_tag message_tag_of() noexcept {
  static constexpr char sentinel = 0;
  return &sentinel;
}

/// Base class of all protocol messages.
struct message {
  virtual ~message() = default;

  /// Serialized size hint in bytes, consumed by the per-link channel
  /// layer (sim/network.hpp) to compute serialization delay. The default
  /// models a small fixed-size frame; batch messages override it to report
  /// header + per-entry cost so coalescing pays realistic wire time.
  virtual std::size_t wire_size() const { return 64; }

  /// Type tag of the most-derived constructed type; set by make_message,
  /// nullptr for messages built by hand (which message_cast then resolves
  /// via dynamic_cast).
  message_type_tag type_tag = nullptr;

  /// Causal span this message belongs to (null by default). Stamped
  /// post-construction by the sender via stamp_trace_span; wrapper
  /// messages (flooding envelopes) copy it from their payload so the
  /// channel layer and the receiver see the originating span.
  span_ref trace_span;
};

using message_ptr = std::shared_ptr<const message>;

/// Convenience factory: make_message<MyMsg>(args...)
template <class M, class... Args>
message_ptr make_message(Args&&... args) {
  auto m = std::make_shared<M>(std::forward<Args>(args)...);
  m->type_tag = message_tag_of<M>();
  return m;
}

/// Attaches a causal span to an already-constructed (shared, logically
/// immutable) message — the same post-construction stamping pattern as
/// type_tag in make_message. No-op for null refs so senders can stamp
/// unconditionally.
inline void stamp_trace_span(const message_ptr& m, span_ref s) {
  if (m && s.valid()) const_cast<message*>(m.get())->trace_span = s;
}

/// Downcast helper; returns nullptr if the message is not an M. Tagged
/// messages (make_message) resolve by pointer compare; untagged ones by
/// dynamic_cast.
template <class M>
const M* message_cast(const message_ptr& m) {
  if (m->type_tag == message_tag_of<M>())
    return static_cast<const M*>(m.get());
  if (m->type_tag != nullptr) return nullptr;
  return dynamic_cast<const M*>(m.get());
}

}  // namespace gqs
