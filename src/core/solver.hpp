// solver.hpp — the scalable GQS existence solver (paper §6, Theorem 2).
//
// existence.hpp reduces "does F admit a generalized quorum system?" to a
// finite constraint-satisfaction problem: choose an SCC S_f of G \ f for
// every f ∈ F such that reach_to(S_f) ∩ S_g ≠ ∅ for all f, g. The seed
// implementation solved it with plain backtracking whose inner loop
// re-tested set intersections against every assigned pattern; this
// subsystem precomputes everything the search needs once and turns the hot
// path into word-parallel bit operations:
//
//   * per-pattern candidate tables: each pattern's compiled G \ f
//     (failure_pattern::table(), core/pattern_table.hpp) — all SCCs, their
//     reach-to closures, per-vertex reachability/SCC sets — shared with the
//     witness's copy of F, whose U_f and Definition 2 check they answer;
//   * an |F| × |F| pairwise-compatibility bitmatrix: for pattern a,
//     candidate i, pattern b, a candidate-index set of the candidates j of
//     b that are mutually consistent with (a, i) — the search tests
//     compatibility with O(words) ANDs;
//   * conflict-driven pruning: most-constrained-pattern-first
//     (minimum-remaining-values) variable ordering, forward checking that
//     intersects the domains of all unassigned patterns after each
//     assignment and backtracks on the first wipe-out, and — on hard
//     instances — arc-consistency preprocessing that deletes candidates
//     with an empty support in some other pattern (iterated to fixpoint,
//     so many unsatisfiable instances die before any further search node);
//   * a parallel top-level fan-out: the branches of the first variable run
//     as independent sequential searches on the experiment_runner thread
//     pool (sim/runner.hpp). The reported witness is the one found by the
//     lowest branch index, so the result is bit-identical for any thread
//     count.
//
// The search is staged so easy instances never pay for machinery they
// don't need (the corpus median instance is decided in ~|F| nodes):
//
//   stage 1 — a budgeted sequential FC+MRV search computing compatibility
//     rows on the fly (no matrix allocation, no preprocessing). Almost
//     every instance is decided here.
//   stage 2 — when the node budget runs out, the full bitmatrix is built
//     once, arc consistency shrinks the domains to a fixpoint, and the
//     surviving top-level branches fan out across the thread pool with
//     O(1) matrix lookups on the hot path.
//
// Stage 1 is sequential regardless of the thread count and the stage-2
// winner is the lowest branch index, so the reported witness never
// depends on threading.
//
// Candidate counts are bounded by the SCC count of a residual graph, which
// is at most n ≤ process_set::max_processes — so candidate domains and
// compatibility rows reuse process_set itself as a fixed-width index set
// (bit i = candidate i), keeping the hot path allocation-free.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/existence.hpp"
#include "core/pattern_table.hpp"
#include "core/quorum_system.hpp"

namespace gqs {

/// Tuning knobs. The defaults are the fast path; the `false` settings
/// exist for the ablation tests (Solver.AblationConfigsAgreeOnCorpus) and
/// approximate a plain backtracker when every pruning feature is disabled.
struct solver_options {
  /// Worker threads for the stage-2 branch fan-out. 0 (the default)
  /// resolves to $GQS_SOLVER_THREADS if set and nonzero (parsed by
  /// env_count in sim/runner.hpp, so a malformed value throws), otherwise
  /// hardware concurrency. Stage 1 is sequential either way, so the many tiny
  /// instances the tests and protocol layers feed through find_gqs never
  /// touch the pool — only escalated searches fan out.
  unsigned threads = 0;

  /// Enables the stage-2 escalation (full bitmatrix + arc consistency +
  /// fan-out). When false the stage-1 search runs with an unlimited node
  /// budget instead — the configuration the ablation tests use.
  bool arc_consistency = true;

  bool forward_checking = true;  ///< domain propagation per assignment
  bool most_constrained_first = true;  ///< MRV variable ordering

  /// Stage-1 node budget before escalating. 0 picks the default
  /// (64 + 8·|F|); 1 effectively forces stage 2, which the determinism
  /// tests use to exercise the parallel fan-out. Ignored when
  /// arc_consistency is off.
  std::uint64_t stage1_node_budget = 0;
};

/// Search counters. With threads > 1 speculative stage-2 branches may run
/// past the winning one before they observe its success, so counts can
/// vary with the thread count — the witness is the deterministic output,
/// not the stats.
struct solver_stats {
  std::uint64_t nodes = 0;           ///< candidate assignments tried
  std::uint64_t forward_prunes = 0;  ///< domain wipe-outs during search
  std::uint64_t arc_prunes = 0;      ///< candidates deleted by preprocessing
  std::uint64_t branches = 0;        ///< stage-2 branches fanned out
  std::uint64_t escalations = 0;     ///< searches that reached stage 2
  bool unsat_by_preprocessing = false;  ///< decided with no search at all
};

/// The existence solver. Construction reads each pattern's compiled table
/// (failure_pattern::table()) and seeds the candidate domains; exists() and
/// solve() run the search, building the compatibility bitmatrix only on
/// escalation, and may each be called any number of times (stats accumulate).
class existence_solver {
 public:
  /// Keeps a reference to `fps` — the system must outlive the solver
  /// (solve() reads it again to assemble the witness). Throws
  /// std::invalid_argument on an empty system, mirroring find_gqs.
  explicit existence_solver(const fail_prone_system& fps,
                            solver_options opts = {});
  /// A temporary system would dangle: solve() reads it after construction.
  existence_solver(fail_prone_system&&, solver_options = {}) = delete;

  /// Decision only. May return on the first witness any branch finds, so
  /// it is faster than solve() on satisfiable instances but promises only
  /// the boolean.
  bool exists();

  /// Deterministic first witness: the one found by the lowest top-level
  /// branch index, bit-identical for any thread count. Returns the same
  /// maximal witness shape as find_gqs (whole SCCs, full reach-to sets,
  /// tau(f) = U_f).
  std::optional<gqs_witness> solve();

  const solver_stats& stats() const noexcept { return stats_; }
  /// The tables searched: &fps[k].table() for each pattern k.
  const std::vector<const pattern_table*>& tables() const noexcept {
    return tables_;
  }

  /// Resolved worker-thread count (after the threads == 0 lookup).
  unsigned threads() const noexcept { return threads_; }

 private:
  process_set compat_row(std::size_t a, std::size_t i, std::size_t b) const;
  void build_compat();  // the full bitmatrix, stage 2 only
  void propagate_arc_consistency();
  std::optional<std::vector<std::size_t>> search(bool deterministic);
  std::optional<gqs_witness> witness_from(
      const std::vector<std::size_t>& choice) const;

  const fail_prone_system& fps_;
  solver_options opts_;
  unsigned threads_ = 1;
  std::vector<const pattern_table*> tables_;
  // Stage 2 only: compat_[(a*m + b)*stride + i] is the candidate-index set
  // over j. The stride is the largest candidate count across patterns, so
  // single-crash corpora (one SCC per pattern) stay tiny.
  std::vector<process_set> compat_;
  std::size_t compat_stride_ = 0;
  std::vector<process_set> domains_;  // per pattern; shrunk by stage-2 AC
  solver_stats stats_;
  bool empty_domain_ = false;  // some pattern has no viable candidate
};

}  // namespace gqs
