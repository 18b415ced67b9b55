// pattern_table.hpp — one failure pattern's residual graph G \ f, compiled
// once, and every Definition 2 / Proposition 1 query answered from it.
//
// Definition 2 (f-availability, f-reachability) and Proposition 1 (U_f)
// are questions about a single residual graph per pattern. A pattern_table
// compiles that graph once — a word-parallel path-based SCC over bitmask
// rows in O(n · ⌈n/64⌉) word operations, then both reachability closures
// on the condensation DAG at O(⌈n/64⌉) per successor component not yet
// covered, at worst O(edges · ⌈n/64⌉) — after which each query is a
// handful of word operations:
//
//   f-available(q)     q ≠ ∅ ∧ q ⊆ correct ∧ q ⊆ scc(first(q))
//   f-reachable(w, r)  w, r ≠ ∅, both ⊆ correct, r ⊆ reach_to[c] for every
//                      component c that w meets
//   U_f                scc(first(U)), U the union of validating writes
//
// Each failure_pattern owns its table (failure_pattern::table()), built by
// its first query and shared by its copies; every pattern query reads it.
// The builders below compile fresh tables, the (network, live) one for
// residuals that are no pattern's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/failure_pattern.hpp"
#include "core/quorum_system.hpp"
#include "graph/digraph.hpp"
#include "graph/process_set.hpp"

namespace gqs {

/// Everything the Definition 2 queries, the existence solver and the
/// minimization pass need to know about one residual graph.
struct pattern_table {
  process_set correct;  ///< the residual's vertices (correct under f)

  /// The SCCs of the residual, sorted by size descending (larger
  /// components intersect more easily) with the set value as a
  /// deterministic tie-break. They are the solver's candidate write
  /// quorums.
  std::vector<process_set> components;

  /// reach_to(components[i]): every correct process that reaches all of
  /// the component (the maximal matching read quorum).
  std::vector<process_set> reach_to;

  /// Per-vertex index into components / reach_to (0 for crashed v),
  /// sized to the system size. Nothing else is per vertex: a table lives
  /// as long as its pattern, so it keeps only per-component sets.
  std::vector<std::uint16_t> component_of;

  /// The component containing the correct process v.
  process_set scc(process_id v) const { return components[component_of[v]]; }

  /// f-availability: q is nonempty, correct, and inside one SCC.
  bool available(process_set q) const;

  /// f-reachability: w and r are nonempty and correct, and every member of
  /// r reaches every member of w.
  bool reachable(process_set w, process_set r) const;

  /// Some (W, R) ∈ writes × reads satisfies Definition 2's availability
  /// clause for this pattern.
  bool admits(const quorum_family& reads, const quorum_family& writes) const;

  /// Every validating (W, R) pair, scanning writes × reads in order; with
  /// `first_only` the scan stops at the first.
  std::vector<available_pair> pairs(const quorum_family& reads,
                                    const quorum_family& writes,
                                    bool first_only = false) const;

  /// The union of the validating write quorums (Proposition 1's U).
  process_set validating_union(const quorum_family& reads,
                               const quorum_family& writes) const;

  /// U_f: the SCC containing the validating union, or ∅ if no write quorum
  /// validates.
  process_set u_f(const quorum_family& reads,
                  const quorum_family& writes) const;

 private:
  /// Definition 2's clause for one write quorum: w is f-available and
  /// f-reachable from some read quorum in `reads`.
  bool validates(process_set w, const quorum_family& reads) const;

  /// Every correct process that reaches all of the f-available w: w sits
  /// inside one SCC, and reaching any member of a strongly connected set
  /// reaches all of it. Precondition: available(w).
  process_set readers(process_set w) const {
    return reach_to[component_of[w.first()]];
  }
};

/// Compiles G \ f. The residual adjacency comes straight from sets (the
/// correct processes minus the pattern's faulty channels); no digraph is
/// built. `t` is overwritten.
void build_pattern_table_into(const failure_pattern& f, pattern_table& t);
pattern_table build_pattern_table(const failure_pattern& f);

/// Compiles `network` restricted to the vertices present in it and in
/// `live` — a residual over a base topology that need not be complete.
pattern_table build_pattern_table(const digraph& network, process_set live);

}  // namespace gqs
