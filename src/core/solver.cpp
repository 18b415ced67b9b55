#include "core/solver.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>

#include "sim/runner.hpp"

namespace gqs {

namespace {

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/// Candidate-index set type: bit i = candidate i of some pattern. A
/// residual graph has at most n ≤ process_set::max_processes SCCs, so
/// process_set doubles as the domain representation.
using candidate_set = process_set;

/// Set over candidates j of pattern b compatible with candidate i of
/// pattern a, computed directly from the tables (the stage-1 path; stage 2
/// reads the same values out of the prebuilt matrix).
candidate_set compute_row(const std::vector<const pattern_table*>& tables,
                          std::size_t a, std::size_t i, std::size_t b) {
  const pattern_table& ta = *tables[a];
  const pattern_table& tb = *tables[b];
  const std::size_t nw = process_set::words_for(
      static_cast<process_id>(ta.component_of.size()));
  candidate_set row;
  for (std::size_t j = 0; j < tb.components.size(); ++j) {
    // Consistency both ways: reach(S_a) ∩ S_b and reach(S_b) ∩ S_a.
    if (ta.reach_to[i].intersects(tb.components[j], nw) &&
        tb.reach_to[j].intersects(ta.components[i], nw))
      row.insert(static_cast<process_id>(j));
  }
  return row;
}

/// One sequential backtracking search. Preallocates (m + 1) domain rows so
/// descending a level is a row write and backtracking is free. Stage 1
/// computes compatibility rows on the fly (matrix == nullptr); stage-2
/// branches look them up in the completed bitmatrix.
struct dfs_engine {
  const std::vector<const pattern_table*>& tables;
  const candidate_set* matrix;  // [a][b][i] -> set over j, given stride
  std::size_t stride;           // candidate slots per (a, b) block
  std::size_t m;
  bool forward_checking;
  bool most_constrained_first;
  std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();

  // Abandonment: in deterministic mode a branch gives up once a
  // lower-indexed branch has won; in decision mode once anyone has.
  const std::atomic<std::size_t>* best = nullptr;
  std::size_t branch = 0;
  bool deterministic = true;

  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  bool out_of_budget = false;
  std::size_t nw = 1;  // word budget of process-id sets ({0..n-1})
  std::size_t cw = 1;  // word budget of candidate-index sets
  std::vector<candidate_set> dom;   // (m + 1) rows of m domains
  std::vector<std::size_t> choice;  // candidate index per pattern
  std::vector<char> assigned;

  dfs_engine(const std::vector<const pattern_table*>& pattern_tables,
             const candidate_set* compat_matrix, std::size_t compat_stride,
             bool forward, bool mrv)
      : tables(pattern_tables),
        matrix(compat_matrix),
        stride(compat_stride),
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

  candidate_set row(std::size_t a, std::size_t i, std::size_t b) const {
    return matrix ? matrix[(a * m + b) * stride + i]
                  : compute_row(tables, a, i, b);
  }

  bool pair_ok(std::size_t a, std::size_t i, std::size_t b,
               std::size_t j) const {
    if (matrix)
      return matrix[(a * m + b) * stride + i].test(
          static_cast<process_id>(j));
    return tables[a]->reach_to[i].intersects(tables[b]->components[j], nw) &&
           tables[b]->reach_to[j].intersects(tables[a]->components[i], nw);
  }

  bool abandoned() const {
    if (!best) return false;
    const std::size_t b = best->load(std::memory_order_relaxed);
    return deterministic ? branch > b : b != npos;
  }

  /// Assigns candidate i of pattern p at `depth`, writing the propagated
  /// domains into row depth + 1. Returns false on a forward-check
  /// wipe-out or an incompatibility with an assigned pattern.
  bool assign(std::size_t depth, std::size_t p, std::size_t i) {
    if (++nodes > budget) {
      out_of_budget = true;
      return false;
    }
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
    if (out_of_budget || abandoned()) return false;
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
      if (!assign(depth, p, i)) {
        if (out_of_budget) return false;
        continue;
      }
      assigned[p] = 1;
      choice[p] = i;
      if (dfs(depth + 1)) return true;
      assigned[p] = 0;
      if (out_of_budget) return false;
    }
    return false;
  }

  /// Stage 1: full search from scratch under the node budget.
  bool solve(const std::vector<candidate_set>& domains) {
    std::copy(domains.begin(), domains.end(), dom.begin());
    return dfs(0);
  }

  /// Stage-2 branch: pattern p0 fixed to candidate i0, then a full search
  /// below it. On success `choice` holds the assignment.
  bool run(const std::vector<candidate_set>& domains, std::size_t p0,
           std::size_t i0) {
    std::copy(domains.begin(), domains.end(), dom.begin());
    if (!assign(0, p0, i0)) return false;
    assigned[p0] = 1;
    choice[p0] = i0;
    return dfs(1);
  }
};

void atomic_min(std::atomic<std::size_t>& target, std::size_t value) {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (value < cur &&
         !target.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

existence_solver::existence_solver(const fail_prone_system& fps,
                                   solver_options opts)
    : fps_(fps), opts_(opts) {
  if (fps_.empty())
    throw std::invalid_argument("existence_solver: empty fail-prone system");
  threads_ = opts_.threads;
  if (threads_ == 0)
    threads_ = static_cast<unsigned>(
        env_count("GQS_SOLVER_THREADS", std::numeric_limits<unsigned>::max())
            .value_or(0));
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;

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
  if (empty_domain_) stats_.unsat_by_preprocessing = true;
}

process_set existence_solver::compat_row(std::size_t a, std::size_t i,
                                         std::size_t b) const {
  return compat_.empty()
             ? compute_row(tables_, a, i, b)
             : compat_[(a * tables_.size() + b) * compat_stride_ + i];
}

void existence_solver::build_compat() {
  if (!compat_.empty()) return;
  const std::size_t m = tables_.size();
  compat_stride_ = 1;
  for (const pattern_table* t : tables_)
    compat_stride_ = std::max(compat_stride_, t->components.size());
  compat_.assign(m * m * compat_stride_, process_set{});
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      for (std::size_t i = 0; i < tables_[a]->components.size(); ++i) {
        const process_set row = compute_row(tables_, a, i, b);
        compat_[(a * m + b) * compat_stride_ + i] = row;
        for (process_id j : row)
          compat_[(b * m + a) * compat_stride_ + j].insert(
              static_cast<process_id>(i));
      }
    }
  }
}

void existence_solver::propagate_arc_consistency() {
  const std::size_t m = tables_.size();
  // build_compat ran first: the stride is the largest candidate count.
  const std::size_t cw =
      process_set::words_for(static_cast<process_id>(compat_stride_));
  bool changed = true;
  while (changed && !empty_domain_) {
    changed = false;
    for (std::size_t a = 0; a < m; ++a) {
      const process_set snapshot = domains_[a];
      for (process_id i : snapshot) {
        for (std::size_t b = 0; b < m; ++b) {
          if (b == a) continue;
          if (!compat_row(a, i, b).intersects(domains_[b], cw)) {
            // Candidate i has no surviving support in pattern b: no full
            // assignment can use it.
            domains_[a].erase(i);
            ++stats_.arc_prunes;
            changed = true;
            break;
          }
        }
      }
      if (domains_[a].empty()) {
        empty_domain_ = true;
        stats_.unsat_by_preprocessing = true;
        return;
      }
    }
  }
}

std::optional<std::vector<std::size_t>> existence_solver::search(
    bool deterministic) {
  if (empty_domain_) return std::nullopt;
  const std::size_t m = tables_.size();

  // ---- stage 1: budgeted sequential search, no matrix -------------------
  // With the escalation disabled the budget is unlimited and this *is*
  // the search.
  {
    dfs_engine engine(tables_, nullptr, 0, opts_.forward_checking,
                      opts_.most_constrained_first);
    if (opts_.arc_consistency)
      engine.budget = opts_.stage1_node_budget != 0
                          ? opts_.stage1_node_budget
                          : 64 + 8 * static_cast<std::uint64_t>(m);
    const bool hit = engine.solve(domains_);
    stats_.nodes += engine.nodes;
    stats_.forward_prunes += engine.prunes;
    if (hit) return engine.choice;
    if (!engine.out_of_budget) return std::nullopt;  // space exhausted
  }

  // ---- stage 2: bitmatrix + arc consistency + branch fan-out ------------
  ++stats_.escalations;
  build_compat();
  propagate_arc_consistency();
  if (empty_domain_) return std::nullopt;

  // Top-level variable: most constrained pattern (or pattern 0).
  std::size_t p0 = 0;
  if (opts_.most_constrained_first) {
    int best_count = std::numeric_limits<int>::max();
    for (std::size_t q = 0; q < m; ++q) {
      const int c = domains_[q].size();
      if (c < best_count) {
        best_count = c;
        p0 = q;
      }
    }
  }
  std::vector<std::size_t> candidates;
  for (process_id i : domains_[p0])
    candidates.push_back(static_cast<std::size_t>(i));
  stats_.branches += candidates.size();

  if (threads_ <= 1 || candidates.size() <= 1) {
    // Sequential: branches run in ascending candidate order, so the first
    // success is the lowest branch index by construction.
    for (std::size_t i : candidates) {
      dfs_engine engine(tables_, compat_.data(), compat_stride_,
                        opts_.forward_checking,
                        opts_.most_constrained_first);
      const bool hit = engine.run(domains_, p0, i);
      stats_.nodes += engine.nodes;
      stats_.forward_prunes += engine.prunes;
      if (hit) return engine.choice;
    }
    return std::nullopt;
  }

  // Parallel fan-out over the experiment_runner pool. Branch k may be
  // abandoned only when a branch with a lower index can no longer win, so
  // the surviving minimum is the same assignment the sequential order
  // finds.
  std::atomic<std::size_t> best{npos};
  std::vector<std::vector<std::size_t>> winners(candidates.size());
  std::vector<std::uint64_t> nodes(candidates.size(), 0);
  std::vector<std::uint64_t> prunes(candidates.size(), 0);
  std::vector<run_spec> specs;
  specs.reserve(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    specs.push_back(
        {"branch" + std::to_string(k), [&, k] {
           dfs_engine engine(tables_, compat_.data(), compat_stride_,
                             opts_.forward_checking,
                             opts_.most_constrained_first);
           engine.best = &best;
           engine.branch = k;
           engine.deterministic = deterministic;
           if (!engine.abandoned() &&
               engine.run(domains_, p0, candidates[k])) {
             winners[k] = engine.choice;
             atomic_min(best, k);
           }
           nodes[k] = engine.nodes;
           prunes[k] = engine.prunes;
           return run_result{};
         }});
  }
  const auto results = experiment_runner(threads_).run_all(specs);
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    // The runner captures branch exceptions into the result; a crashed
    // branch must not read as "subtree exhausted" (that would turn e.g. a
    // bad_alloc into a wrong UNSAT verdict).
    if (!results[k].ok)
      throw std::runtime_error("existence_solver: branch " +
                               std::to_string(k) +
                               " failed: " + results[k].error);
    stats_.nodes += nodes[k];
    stats_.forward_prunes += prunes[k];
  }
  const std::size_t winner = best.load(std::memory_order_relaxed);
  if (winner == npos) return std::nullopt;
  return winners[winner];
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

bool existence_solver::exists() { return search(false).has_value(); }

std::optional<gqs_witness> existence_solver::solve() {
  const auto choice = search(true);
  if (!choice) return std::nullopt;
  return witness_from(*choice);
}

}  // namespace gqs
