#include "core/solver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gqs {

namespace {

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/// Candidate-index set type: bit i = candidate i of some pattern. A
/// residual graph has at most n ≤ process_set::max_processes SCCs, so
/// process_set doubles as the domain representation.
using candidate_set = process_set;

/// One sequential backtracking search. Preallocates (m + 1) domain rows so
/// descending a level is a row write and backtracking is free.
struct dfs_engine {
  const std::vector<const pattern_table*>& tables;
  std::size_t m;
  bool forward_checking;
  bool most_constrained_first;

  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  std::size_t nw = 1;  // word budget of process-id sets ({0..n-1})
  std::size_t cw = 1;  // word budget of candidate-index sets
  std::vector<candidate_set> dom;   // (m + 1) rows of m domains
  std::vector<std::size_t> choice;  // candidate index per pattern
  std::vector<char> assigned;

  dfs_engine(const std::vector<const pattern_table*>& pattern_tables,
             bool forward, bool mrv)
      : tables(pattern_tables),
        m(pattern_tables.size()),
        forward_checking(forward),
        most_constrained_first(mrv),
        dom((m + 1) * m),
        choice(m, npos),
        assigned(m, 0) {
    nw = process_set::words_for(
        static_cast<process_id>(tables.front()->component_of.size()));
    std::size_t max_candidates = 1;
    for (const pattern_table* t : tables)
      max_candidates = std::max(max_candidates, t->components.size());
    cw = candidate_set::words_for(static_cast<process_id>(max_candidates));
  }

  /// Consistency both ways: reach(S_a) ∩ S_b and reach(S_b) ∩ S_a.
  bool pair_ok(std::size_t a, std::size_t i, std::size_t b,
               std::size_t j) const {
    return tables[a]->reach_to[i].intersects(tables[b]->components[j], nw) &&
           tables[b]->reach_to[j].intersects(tables[a]->components[i], nw);
  }

  /// Set over candidates j of pattern b compatible with candidate i of
  /// pattern a.
  candidate_set row(std::size_t a, std::size_t i, std::size_t b) const {
    candidate_set r;
    for (std::size_t j = 0; j < tables[b]->components.size(); ++j)
      if (pair_ok(a, i, b, j)) r.insert(static_cast<process_id>(j));
    return r;
  }

  /// Assigns candidate i of pattern p at `depth`, writing the propagated
  /// domains into row depth + 1. Returns false on a forward-check
  /// wipe-out or an incompatibility with an assigned pattern.
  bool assign(std::size_t depth, std::size_t p, std::size_t i) {
    ++nodes;
    const candidate_set* cur = &dom[depth * m];
    candidate_set* next = &dom[(depth + 1) * m];
    if (forward_checking) {
      for (std::size_t q = 0; q < m; ++q) {
        if (q == p) {
          next[q] = candidate_set::singleton(static_cast<process_id>(i));
        } else if (assigned[q]) {
          next[q] = cur[q];
        } else {
          next[q] = cur[q];
          next[q].and_with(row(p, i, q), cw);
          if (next[q].empty(cw)) {
            ++prunes;
            return false;
          }
        }
      }
    } else {
      // Seed-style pairwise pruning: test the candidate against every
      // assigned pattern only; unassigned domains stay untouched.
      for (std::size_t q = 0; q < m; ++q)
        if (assigned[q] && !pair_ok(q, choice[q], p, i)) return false;
      std::copy(cur, cur + m, next);
      next[p] = candidate_set::singleton(static_cast<process_id>(i));
    }
    return true;
  }

  bool dfs(std::size_t depth) {
    if (depth == m) return true;
    const candidate_set* cur = &dom[depth * m];
    // Variable ordering: smallest remaining domain first (ties break to
    // the lowest pattern index), or plain index order when disabled.
    std::size_t p = npos;
    int best_count = std::numeric_limits<int>::max();
    for (std::size_t q = 0; q < m; ++q) {
      if (assigned[q]) continue;
      if (!most_constrained_first) {
        p = q;
        break;
      }
      const int c = cur[q].size(cw);
      if (c < best_count) {
        best_count = c;
        p = q;
      }
    }
    // Drain a copy of the domain in increasing order; assignments below
    // only write deeper rows, so the copy stays the domain at this depth.
    for (candidate_set rest = cur[p]; !rest.empty(cw);) {
      const process_id i = rest.take_first(cw);
      if (!assign(depth, p, i)) continue;
      assigned[p] = 1;
      choice[p] = i;
      if (dfs(depth + 1)) return true;
      assigned[p] = 0;
    }
    return false;
  }
};

}  // namespace

existence_solver::existence_solver(const fail_prone_system& fps,
                                   solver_options opts)
    : fps_(fps), opts_(opts) {
  if (fps_.empty())
    throw std::invalid_argument("existence_solver: empty fail-prone system");

  tables_.reserve(fps_.size());
  for (const failure_pattern& f : fps_) tables_.push_back(&f.table());

  domains_.assign(tables_.size(), process_set{});
  const std::size_t nw = process_set::words_for(fps_.system_size());
  for (std::size_t p = 0; p < tables_.size(); ++p) {
    const pattern_table& t = *tables_[p];
    for (std::size_t i = 0; i < t.components.size(); ++i)
      if (t.reach_to[i].intersects(t.components[i], nw))  // self-consistency
        domains_[p].insert(static_cast<process_id>(i));
    if (domains_[p].empty()) empty_domain_ = true;
  }
}

std::optional<std::vector<std::size_t>> existence_solver::search() {
  if (empty_domain_) return std::nullopt;
  dfs_engine engine(tables_, opts_.forward_checking,
                    opts_.most_constrained_first);
  std::copy(domains_.begin(), domains_.end(), engine.dom.begin());
  const bool hit = engine.dfs(0);
  stats_.nodes += engine.nodes;
  stats_.forward_prunes += engine.prunes;
  if (!hit) return std::nullopt;
  return std::move(engine.choice);
}

std::optional<gqs_witness> existence_solver::witness_from(
    const std::vector<std::size_t>& choice) const {
  quorum_family reads, writes;
  for (std::size_t k = 0; k < tables_.size(); ++k) {
    writes.push_back(tables_[k]->components[choice[k]]);
    reads.push_back(tables_[k]->reach_to[choice[k]]);
  }
  termination_mapping tau;
  for (const pattern_table* t : tables_) tau.push_back(t->u_f(reads, writes));
  // The copy of F shares its patterns' tables with fps_.
  generalized_quorum_system system(fps_, reads, writes);
  return gqs_witness{std::move(system), std::move(writes), std::move(reads),
                     std::move(tau)};
}

bool existence_solver::exists() { return search().has_value(); }

std::optional<gqs_witness> existence_solver::solve() {
  const auto choice = search();
  if (!choice) return std::nullopt;
  return witness_from(*choice);
}

}  // namespace gqs
