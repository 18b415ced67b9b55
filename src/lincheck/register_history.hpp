// register_history.hpp — recorded invocation/response histories of
// register operations, the input to the linearizability checkers.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "register/register_state.hpp"
#include "sim/time.hpp"

namespace gqs {

enum class reg_op_kind { read, write };

/// An optional sim_time in 8 bytes (std::optional<sim_time> takes 16):
/// INT64_MIN, which no run reaches, stands for "empty". Offers the subset
/// of std::optional's interface that histories use.
class maybe_time {
 public:
  constexpr maybe_time() noexcept = default;
  constexpr maybe_time(std::nullopt_t) noexcept {}
  constexpr maybe_time(sim_time t) noexcept : t_(t) {}

  constexpr bool has_value() const noexcept { return t_ != kEmpty; }
  constexpr explicit operator bool() const noexcept { return has_value(); }
  constexpr const sim_time& operator*() const noexcept { return t_; }
  constexpr sim_time& operator*() noexcept { return t_; }
  constexpr sim_time value_or(sim_time fallback) const noexcept {
    return has_value() ? t_ : fallback;
  }
  constexpr void reset() noexcept { t_ = kEmpty; }

  friend constexpr bool operator==(const maybe_time&,
                                   const maybe_time&) = default;

 private:
  static constexpr sim_time kEmpty = std::numeric_limits<sim_time>::min();
  sim_time t_ = kEmpty;
};

/// One operation in a history. `returned_at` empty means the operation was
/// pending when the execution ended (allowed: channel failures may prevent
/// termination outside U_f).
struct register_op {
  reg_op_kind kind = reg_op_kind::read;
  process_id proc = 0;
  reg_value value = 0;  ///< value written (write) or returned (read)
  sim_time invoked_at = 0;
  maybe_time returned_at;
  /// Causal event stamps (simulation::take_stamp). The virtual clock is
  /// too coarse for precedence: a response and a causally later invocation
  /// can share a timestamp. Zero means "not recorded" (hand-crafted
  /// histories); precedence then falls back to timestamps.
  std::uint64_t invoked_stamp = 0;
  std::uint64_t returned_stamp = 0;
  /// White-box tag: the version the operation installed (write) or
  /// observed (read) — the τ(op) of Appendix B. Meaningful only for
  /// completed operations.
  reg_version version{};

  bool complete() const noexcept { return returned_at.has_value(); }

  /// Real-time order: this operation returned before `later` was invoked.
  bool precedes(const register_op& later) const {
    if (!complete()) return false;
    if (returned_stamp != 0 && later.invoked_stamp != 0)
      return returned_stamp < later.invoked_stamp;
    return *returned_at < later.invoked_at;
  }

  std::string to_string() const;
};

using register_history = std::vector<register_op>;

/// One recorded keyed operation: a register_op plus its key.
struct keyed_register_op {
  service_key key = 0;
  register_op op;
};

// Every recorded history is an array of these: keep them packed.
static_assert(sizeof(register_op) == 64 && sizeof(keyed_register_op) == 72);

/// Edge types of the Appendix-B dependency graph: real-time precedence,
/// write→read of the same version (reads-from), write→write in version
/// order, and read→write anti-dependency (τ(r) < τ(w)).
enum class dep_edge : std::uint8_t { rt, wr, ww, rw };

const char* to_string(dep_edge kind);

/// One edge of a counterexample cycle. `from`/`to` are operation ids: the
/// index into the checked history for the batch checkers, the caller-chosen
/// completion id for the streaming checker.
struct cycle_edge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  dep_edge kind = dep_edge::rt;
};

/// Renders a cycle as "#i op —kind→ #j op …"; `op_of` maps an op id to the
/// operation (may return nullptr for ops no longer available).
std::string describe_cycle(
    const std::vector<cycle_edge>& cycle,
    const std::function<const register_op*(std::uint64_t)>& op_of);

/// Result of a history check.
struct lincheck_result {
  bool linearizable = true;
  std::string reason;
  /// Counterexample dependency cycle on failure. Empty for sanity
  /// violations (those name the offending operation in `reason`) and for
  /// checkers that do not extract cycles.
  std::vector<cycle_edge> cycle;
  /// Completed operations the checker examined.
  std::uint64_t checked_ops = 0;
  /// Keyed checkers: completed operations per key (empty otherwise).
  std::vector<std::uint64_t> per_key_ops;

  explicit operator bool() const noexcept { return linearizable; }

  /// True if operation id `id` appears on the counterexample cycle.
  bool cycle_contains(std::uint64_t id) const {
    for (const cycle_edge& e : cycle)
      if (e.from == id || e.to == id) return true;
    return false;
  }

  static lincheck_result good() { return {}; }
  static lincheck_result bad(std::string why) {
    lincheck_result r;
    r.linearizable = false;
    r.reason = std::move(why);
    return r;
  }
};

}  // namespace gqs
