// existence.hpp — deciding whether a fail-prone system admits a generalized
// quorum system, and the canonical lower-bound construction (paper §6).
//
// Key normalization (the Theorem 2 row of docs/ARCHITECTURE.md, "The
// combinatorial core"): if some GQS exists for F, then one exists in
// which, for every pattern f, the validating write quorum is a *whole*
// strongly connected component S_f of G \ f and the matching read quorum
// is reach_to(S_f) — the set of all correct processes that can reach S_f.
// Inflating quorums preserves f-availability and f-reachability and can
// only help Consistency. Hence:
//
//   F admits a GQS  ⟺  one can choose an SCC S_f of G \ f for each f ∈ F
//                      such that for all f, g: reach_to(S_f) ∩ S_g ≠ ∅.
//
// This finite choice problem is solved by the existence solver
// (core/solver.hpp): one sequential backtracking search over the patterns'
// candidate tables with forward checking and most-constrained-first
// ordering. find_gqs below is the convenience wrapper (default options);
// the witness returned is exactly the paper's Theorem 2 construction with
// τ(f) = S_f.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/quorum_system.hpp"

namespace gqs {

/// A termination mapping τ : F → 2^P , represented positionally: tau[i] is
/// τ(F[i]).
using termination_mapping = std::vector<process_set>;

/// Result of a successful existence search: the witness GQS together with
/// the per-pattern selections and the maximal termination mapping
/// τ(f) = U_f.
struct gqs_witness {
  generalized_quorum_system system;
  std::vector<process_set> chosen_writes;  // S_f per pattern
  std::vector<process_set> chosen_reads;   // reach_to(S_f) per pattern
  termination_mapping max_termination;     // U_f per pattern
};

/// Decides whether `fps` admits a generalized quorum system; returns a
/// witness if so. Exponential in |F| in the worst case (the problem is a
/// constraint-satisfaction search) but heavily pruned; fine for the system
/// sizes the paper works with.
std::optional<gqs_witness> find_gqs(const fail_prone_system& fps);

/// Exhaustive cross-check of find_gqs used by tests and by the Example 9
/// bench: enumerates every combination of SCC choices without pruning.
/// Returns true iff some combination is pairwise consistent.
bool gqs_exists_exhaustive(const fail_prone_system& fps);

/// The canonical construction of Theorem 2: given a termination mapping τ
/// with τ(f) ≠ ∅ (the processes where obstruction-freedom is assumed to
/// hold), builds W_f = SCC of G \ f containing τ(f) and R_f = processes
/// that can reach W_f (including W_f itself).
///
/// Fails (returns nullopt, filling `why`) if some τ(f) is empty, contains a
/// faulty process, or is not contained in a single SCC of G \ f (Lemma 2
/// says no obstruction-free implementation can have such a τ).
/// Note the returned triple is a valid GQS only if it passes Consistency —
/// Theorem 2 guarantees that *when an implementation exists*; call
/// check_generalized on the result to test it.
std::optional<generalized_quorum_system> canonical_construction(
    const fail_prone_system& fps, const termination_mapping& tau,
    std::string* why = nullptr);

/// All candidate write-quorum components for a pattern: the SCCs of G \ f,
/// read off its compiled table (largest first). Every f-available set is
/// contained in exactly one of them.
std::vector<process_set> write_candidates(const failure_pattern& f);

}  // namespace gqs
