// solver.hpp — the GQS existence solver (paper §6, Theorem 2).
//
// existence.hpp reduces "does F admit a generalized quorum system?" to a
// finite constraint-satisfaction problem: choose an SCC S_f of G \ f for
// every f ∈ F such that reach_to(S_f) ∩ S_g ≠ ∅ for all f, g. The solver is
// one sequential backtracking search whose hot path is word-parallel bit
// operations:
//
//   * per-pattern candidate tables: each pattern's compiled G \ f
//     (failure_pattern::table(), core/pattern_table.hpp) — all SCCs, their
//     reach-to closures, per-vertex reachability/SCC sets — shared with the
//     witness's copy of F, whose U_f and Definition 2 check they answer;
//   * compatibility rows computed on the fly: for pattern a, candidate i,
//     pattern b, the candidate-index set of the candidates j of b that are
//     mutually consistent with (a, i);
//   * conflict-driven pruning: most-constrained-pattern-first
//     (minimum-remaining-values) variable ordering, and forward checking
//     that intersects the domains of all unassigned patterns with those
//     rows after each assignment and backtracks on the first wipe-out.
//
// The corpus instances decide in a few dozen nodes (≤ 64 + 8·|F| on every
// draw Solver.SearchStaysWithinOldStage1Budget covers), so the search runs
// unbounded on the calling thread; the first witness in its fixed search
// order is the output.
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
  /// Inert: the search is sequential. Kept because the benchmark driver
  /// still sets it.
  unsigned threads = 0;

  bool forward_checking = true;  ///< domain propagation per assignment
  bool most_constrained_first = true;  ///< MRV variable ordering
};

/// Search counters.
struct solver_stats {
  std::uint64_t nodes = 0;           ///< candidate assignments tried
  std::uint64_t forward_prunes = 0;  ///< domain wipe-outs during search
  /// Always 0: there is one search and nothing to escalate to. Kept
  /// because the benchmark driver still reads it.
  std::uint64_t escalations = 0;
};

/// The existence solver. Construction reads each pattern's compiled table
/// (failure_pattern::table()) and seeds the candidate domains; exists() and
/// solve() run the search and may each be called any number of times
/// (stats accumulate).
class existence_solver {
 public:
  /// Keeps a reference to `fps` — the system must outlive the solver
  /// (solve() reads it again to assemble the witness). Throws
  /// std::invalid_argument on an empty system, mirroring find_gqs.
  explicit existence_solver(const fail_prone_system& fps,
                            solver_options opts = {});
  /// A temporary system would dangle: solve() reads it after construction.
  existence_solver(fail_prone_system&&, solver_options = {}) = delete;

  /// Decision only: runs the same search as solve() without assembling
  /// the witness.
  bool exists();

  /// The first witness in the search order. Returns the same maximal
  /// witness shape as find_gqs (whole SCCs, full reach-to sets,
  /// tau(f) = U_f).
  std::optional<gqs_witness> solve();

  const solver_stats& stats() const noexcept { return stats_; }
  /// The tables searched: &fps[k].table() for each pattern k.
  const std::vector<const pattern_table*>& tables() const noexcept {
    return tables_;
  }

 private:
  std::optional<std::vector<std::size_t>> search();
  std::optional<gqs_witness> witness_from(
      const std::vector<std::size_t>& choice) const;

  const fail_prone_system& fps_;
  solver_options opts_;
  std::vector<const pattern_table*> tables_;
  std::vector<process_set> domains_;  // per pattern: self-consistent SCCs
  solver_stats stats_;
  bool empty_domain_ = false;  // some pattern has no viable candidate
};

}  // namespace gqs
