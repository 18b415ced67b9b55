// history_checker.hpp — the scalable dependency-graph linearizability
// checker (Appendix B, Theorems 7–8 of the extended paper).
//
// check_dependency_graph materializes the dense rt ∪ wr ∪ ww ∪ rw relation
// (O(n²) edges) and is fine for the ≤64-op unit histories; it cannot touch
// the 10⁶-op service runs the benches produce. This module checks the SAME
// relation through a sparse, reachability-equivalent encoding:
//
//   * ww   — a chain along the version order (adjacent versions only);
//   * wr   — one edge per read, from the write of its version;
//   * rw   — one edge per read, to the next write above its version
//            (re-targeted when a write lands between existing versions);
//   * rt   — a timeline of response events per key: each distinct response
//            key gets a node, chained forward in time; an operation links
//            from the latest response strictly before its invocation and
//            into its own response node. Transitively this is exactly the
//            dense real-time relation.
//
// Edges stream into a Pearce–Kelly incremental topological order, so a
// cycle is detected the moment its closing edge arrives, and the offending
// cycle (op ids + edge types) is reported in lincheck_result::cycle.
//
// Three modes:
//   * check_history      — batch, one register (one key);
//   * check_keyed_history — batch, per-key projections fanned across the
//     experiment_runner pool; verdict and payload are identical for any
//     thread count (keys merge in key order, failing key re-checked
//     serially for the full counterexample);
//   * streaming_checker  — online: the workload drivers feed invocations
//     and completions during a soak; closed windows behind the per-key
//     real-time cut (the oldest in-flight invocation) retire to an O(1)
//     summary, so memory stays O(window) instead of O(history).
//
// Retirement soundness: every non-rt edge strictly increases the rank
// (τ(op), is_read), so a cycle must close through an rt edge that DROPS
// rank. A retired region is therefore fully represented by its maximum
// rank: a new operation that would create an edge back into the retired
// region is exactly one whose rank does not exceed the retired maximum
// (strictly, for writes), and the checker reports it against the retired
// frontier op. Reads resolve against the retired maximum write version for
// the value check; unresolved reads never retire.
//
// Divergence from check_dependency_graph (documented, matching Wing–Gong):
// an operation whose response precedes its own invocation is rejected
// outright rather than silently tolerated.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lincheck/register_history.hpp"

namespace gqs {

/// Options for the keyed batch checker.
struct keyed_check_options {
  reg_value initial = 0;
  /// Worker threads for the per-key fan-out: 1 checks keys serially in
  /// the calling thread, anything else goes through experiment_runner
  /// (0 = the runner's default). The result is bit-identical either way.
  unsigned threads = 1;
};

/// Scalable batch check of one register history. Verdict-equivalent to
/// check_dependency_graph (modulo the ret-before-inv rejection above) in
/// near-linear time, with the counterexample cycle on failure. Op ids in
/// the result are indices into `history`.
lincheck_result check_history(const register_history& history,
                              reg_value initial = 0);

/// Per-key batch check of a keyed history: every key's projection must
/// independently linearize. Fills per_key_ops (completed ops per key) and
/// remaps counterexample op ids to indices into `history`.
lincheck_result check_keyed_history(
    const std::vector<keyed_register_op>& history, service_key keys,
    const keyed_check_options& options = {});

/// Reads-from-closed contiguous sample: completed ops from `history`
/// starting at index `begin`, at most `max_ops` of them, plus the writes
/// any sampled read observes (wherever they sit in the history). Any such
/// closed subset of a linearizable history is linearizable, so samples
/// cross-check this module against Wing–Gong and the dense checker.
register_history closed_sample(const register_history& history,
                               std::size_t begin, std::size_t max_ops);

/// Online windowed checker over a keyed run. Feed on_invoke when an
/// operation is issued and on_complete when it returns (in completion
/// order — the workload drivers' hooks do exactly this); the verdict is
/// latched at the first violation. Requires stamped operations
/// (simulation::take_stamp) for real-time order; unstamped ops fall back
/// to virtual timestamps, which must then be used consistently.
struct streaming_options {
  reg_value initial = 0;
};

class streaming_checker {
 public:
  using options = streaming_options;

  explicit streaming_checker(service_key keys, options opts = {});
  ~streaming_checker();
  streaming_checker(streaming_checker&&) noexcept;
  streaming_checker& operator=(streaming_checker&&) noexcept;

  /// An operation on `key` was invoked at `invoked_stamp`. Every invoke
  /// must either complete eventually or stay pending forever; the per-key
  /// real-time cut is the oldest in-flight invocation.
  void on_invoke(service_key key, std::uint64_t invoked_stamp);
  void on_invoke(const keyed_register_op& rec) {
    on_invoke(rec.key, rec.op.invoked_stamp);
  }

  /// A previously invoked operation completed. `id` is the caller's op id
  /// (e.g. the driver history index), echoed in counterexamples.
  void on_complete(service_key key, const register_op& op, std::uint64_t id);
  void on_complete(const keyed_register_op& rec, std::uint64_t id) {
    on_complete(rec.key, rec.op, id);
  }

  /// Final verdict: flags reads left unresolved (observing a version no
  /// write ever installed) and returns the latched result.
  const lincheck_result& finish();

  /// The verdict so far (violations latch immediately).
  const lincheck_result& result() const;
  bool ok() const { return result().linearizable; }

  /// Live graph size (completed, unretired ops) — the window bound.
  std::size_t active_ops() const;
  /// Operations retired behind the real-time cut so far.
  std::uint64_t retired_ops() const;
  /// Completed operations fed so far.
  std::uint64_t checked_ops() const;
  /// 1-based feed position of the completion that latched a violation
  /// (0 while linearizable) — "the window where it happened".
  std::uint64_t violation_at() const;

  /// Called as (key, ops_retired_now) whenever a retirement batch closes
  /// a window on `key`.
  void set_retire_hook(std::function<void(service_key, std::uint64_t)> hook);

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// Replays a recorded history into a streaming checker as the live run
/// would have: invocations and completions interleaved in causal-stamp
/// order (virtual-time order for unstamped histories). Op ids are history
/// indices. Returns checker.finish().
const lincheck_result& replay_streaming(streaming_checker& checker,
                                        const register_history& history,
                                        service_key key = 0);

}  // namespace gqs
