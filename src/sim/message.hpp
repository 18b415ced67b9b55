// message.hpp — the unit of communication in the simulator.
//
// Messages are immutable C++ values shared between sender and receivers;
// protocols define subclasses and downcast on receipt (the simulator is an
// in-process model of a network, so no serialization layer is pretended;
// wire_size() prices the bytes — docs/ARCHITECTURE.md, "Network model").
//
// Ownership: make_message is the only way to build a message that can be
// sent. It returns a message_ptr, an intrusive handle whose reference
// count lives in the message itself and is NOT atomic: a simulation and
// every message it carries live on one thread (the runner pool runs whole
// simulations per task), so copying a handle is a plain increment. A
// handle may still move to another thread with its message, as long as no
// two threads hold copies of one message at once. Message blocks come from
// per-thread size-class free lists (message.cpp), so steady-state
// messaging does not call malloc; the last release runs the destructor
// and returns the block to the releasing thread's list.
//
// Dispatch: make_message stamps every message with a type tag (a per-type
// sentinel address), so message_cast is a pointer compare plus a
// static_cast on the hot delivery path — the per-delivery dynamic_cast
// chains of the protocol deliver() handlers resolve without RTTI. The cast
// matches the exact constructed type; casting a message to anything else
// yields nullptr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

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

class message_ptr;

template <class M, class... Args>
message_ptr make_message(Args&&... args);

/// Base class of all protocol messages.
struct message {
  virtual ~message() = default;

  /// Serialized size hint in bytes, consumed by the per-link channel
  /// layer (sim/network.hpp) to compute serialization delay. The default
  /// models a small fixed-size frame; batch messages override it to report
  /// header + per-entry cost so coalescing pays realistic wire time.
  virtual std::size_t wire_size() const { return 64; }

  /// Type tag of the most-derived constructed type; set by make_message.
  message_type_tag type_tag = nullptr;

  /// Causal span this message belongs to (null by default). Stamped
  /// post-construction by the sender via stamp_trace_span; flooding
  /// envelopes copy it from their payload so the channel layer and the
  /// receiver see the originating span.
  span_ref trace_span;

 protected:
  /// Size-class pool of the calling thread (message.cpp). Only
  /// make_message allocates; the virtual destructor hands the most-derived
  /// size back on release.
  static void* operator new(std::size_t bytes);
  static void operator delete(void* block, std::size_t bytes) noexcept;

 private:
  friend class message_ptr;
  template <class M, class... Args>
  friend message_ptr make_message(Args&&... args);

  mutable std::uint32_t refs_ = 0;  ///< handles sharing this message
};

/// Shared handle to an immutable message (see the file comment). Null by
/// default; only make_message creates a non-null one.
class message_ptr {
 public:
  message_ptr() noexcept = default;
  message_ptr(std::nullptr_t) noexcept {}
  message_ptr(const message_ptr& other) noexcept : p_(other.p_) {
    if (p_) ++p_->refs_;
  }
  message_ptr(message_ptr&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  message_ptr& operator=(message_ptr other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~message_ptr() {
    if (p_ && --p_->refs_ == 0) destroy(p_);
  }

  const message* get() const noexcept { return p_; }
  const message& operator*() const noexcept { return *p_; }
  const message* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  /// Number of handles sharing the message (0 for a null handle).
  std::uint32_t use_count() const noexcept { return p_ ? p_->refs_ : 0; }

  friend bool operator==(const message_ptr& a, const message_ptr& b) noexcept {
    return a.p_ == b.p_;
  }

 private:
  template <class M, class... Args>
  friend message_ptr make_message(Args&&... args);

  /// Adopts the first reference of a freshly built message.
  explicit message_ptr(const message* p) noexcept : p_(p) {}

  /// Deletes a message whose last handle went (out of line, so inlined
  /// handle code never shows the compiler a delete it could misread as a
  /// later use-after-free).
  static void destroy(const message* m) noexcept;

  const message* p_ = nullptr;
};

/// The factory: make_message<MyMsg>(args...).
template <class M, class... Args>
message_ptr make_message(Args&&... args) {
  static_assert(std::is_base_of_v<message, M>,
                "make_message builds message subclasses only");
  M* m = new M(std::forward<Args>(args)...);
  m->type_tag = message_tag_of<M>();
  m->refs_ = 1;
  return message_ptr(m);
}

/// Attaches a causal span to an already-constructed (shared, logically
/// immutable) message — the same post-construction stamping pattern as
/// type_tag in make_message. No-op for null refs so senders can stamp
/// unconditionally.
inline void stamp_trace_span(const message_ptr& m, span_ref s) {
  if (m && s.valid()) const_cast<message*>(m.get())->trace_span = s;
}

/// Downcast helper; returns nullptr if the message is not exactly an M.
template <class M>
const M* message_cast(const message_ptr& m) {
  return m->type_tag == message_tag_of<M>() ? static_cast<const M*>(m.get())
                                            : nullptr;
}

}  // namespace gqs
