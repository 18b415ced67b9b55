// quorum_system.hpp — classical and generalized quorum systems (paper §3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/failure_pattern.hpp"
#include "graph/digraph.hpp"
#include "graph/process_set.hpp"

namespace gqs {

/// A family of quorums (read or write).
using quorum_family = std::vector<process_set>;

// Every pattern query below answers from the pattern's own compiled
// G \ f (failure_pattern::table()), built by the first query of that
// pattern or of any copy of it and reused by every later one.

/// f-availability (paper §3): Q contains only processes correct under f and
/// is strongly connected in the residual graph G \ f (paths may relay
/// through any correct process).
bool is_f_available(process_set q, const failure_pattern& f);

/// f-reachability (paper §3): both w and r contain only processes correct
/// under f, and every member of w is reachable from every member of r in
/// G \ f.
bool is_f_reachable_from(process_set w, process_set r,
                         const failure_pattern& f);

/// Result of checking a (generalized) quorum system, with a human-readable
/// reason on failure — used by tests and by the bench/table printers.
struct check_result {
  bool ok = true;
  std::string reason;

  explicit operator bool() const noexcept { return ok; }

  static check_result good() { return {}; }
  static check_result bad(std::string why) { return {false, std::move(why)}; }
};

/// A generalized quorum system (F, R, W) — Definition 2. The classical
/// Definition 1 is the special case in which F disallows channel failures;
/// `check_classical` additionally enforces that restriction.
struct generalized_quorum_system {
  fail_prone_system fps;
  quorum_family reads;
  quorum_family writes;

  generalized_quorum_system(fail_prone_system f, quorum_family r,
                            quorum_family w)
      : fps(std::move(f)), reads(std::move(r)), writes(std::move(w)) {}

  process_id system_size() const { return fps.system_size(); }
};

/// Consistency (Defs 1 & 2): every read quorum intersects every write
/// quorum.
check_result check_consistency(const quorum_family& reads,
                               const quorum_family& writes);

/// Availability of Definition 2: for every f in F there exist W in writes
/// and R in reads with W f-available and W f-reachable from R.
check_result check_generalized_availability(const fail_prone_system& fps,
                                            const quorum_family& reads,
                                            const quorum_family& writes);

/// Availability of Definition 1 (no channel failures allowed in F): for
/// every f there exist R, W consisting solely of correct processes.
check_result check_classical_availability(const fail_prone_system& fps,
                                          const quorum_family& reads,
                                          const quorum_family& writes);

/// Full Definition 2 check.
check_result check_generalized(const generalized_quorum_system& gqs);

/// Full Definition 1 check (also verifies that F disallows channel failures
/// between correct processes).
check_result check_classical(const generalized_quorum_system& qs);

/// The pair (W, R) validating Availability for a pattern f, if any —
/// returns the first found, scanning writes × reads in order.
struct available_pair {
  process_set write_quorum;
  process_set read_quorum;
};
std::optional<available_pair> find_available_pair(
    const generalized_quorum_system& gqs, const failure_pattern& f);

/// Every (W, R) pair validating Availability for f, scanning writes ×
/// reads in order. This is the support over which an f-aware quorum
/// strategy (strategy/planner.hpp) may distribute mass: pairs outside it
/// would target quorums that f disconnects.
std::vector<available_pair> all_available_pairs(
    const generalized_quorum_system& gqs, const failure_pattern& f);

/// The Definition 2 scan over a residual given as a digraph: compiles it
/// into a pattern_table (core/pattern_table.hpp) and runs the same
/// "W f-available, f-reachable from R" predicate that every query in this
/// header answers from that view. `residual` must be the residual graph
/// whose present vertices are exactly `correct`. With `first_only` the
/// scan stops at the first valid pair (the existence query).
std::vector<available_pair> available_pairs_in(const quorum_family& reads,
                                               const quorum_family& writes,
                                               process_set correct,
                                               const digraph& residual,
                                               bool first_only = false);

/// U_f (Proposition 1): the strongly connected component of G \ f that
/// contains every write quorum validating Availability for f. Returns the
/// empty set if no write quorum validates Availability (i.e. the triple is
/// not a GQS for this pattern).
process_set compute_u_f(const generalized_quorum_system& gqs,
                        const failure_pattern& f);

/// The union over W in writes of the f-available-and-reachable write
/// quorums (the set U of Proposition 1, before closing into its SCC).
process_set validating_write_union(const generalized_quorum_system& gqs,
                                   const failure_pattern& f);

}  // namespace gqs
