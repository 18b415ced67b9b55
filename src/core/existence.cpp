#include "core/existence.hpp"

#include <stdexcept>

#include "core/solver.hpp"

namespace gqs {

std::vector<process_set> write_candidates(const failure_pattern& f) {
  return f.residual().sccs();
}

std::optional<gqs_witness> find_gqs(const fail_prone_system& fps) {
  if (fps.empty())
    throw std::invalid_argument("find_gqs: empty fail-prone system");
  // Default solver options: tiny instances decide in the sequential
  // stage-1 search; only escalated searches touch the thread pool
  // ($GQS_SOLVER_THREADS overrides the size). Callers wanting explicit
  // control use existence_solver directly.
  existence_solver solver(fps);
  return solver.solve();
}

bool gqs_exists_exhaustive(const fail_prone_system& fps) {
  if (fps.empty())
    throw std::invalid_argument("gqs_exists_exhaustive: empty system");
  // The candidate tables are the patterns' own, as the solver's are, but the
  // enumeration below is deliberately naive: it is the oracle the solver is
  // tested against, so it must stay independent of its pruning machinery.
  std::vector<const pattern_table*> options;
  options.reserve(fps.size());
  for (const failure_pattern& f : fps) options.push_back(&f.table());

  auto self_consistent = [&](std::size_t a, std::size_t i) {
    return options[a]->reach_to[i].intersects(options[a]->components[i]);
  };
  auto compatible = [&](std::size_t a, std::size_t ia, std::size_t b,
                        std::size_t ib) {
    // Consistency both ways: R_a ∩ W_b ≠ ∅ and R_b ∩ W_a ≠ ∅.
    return options[a]->reach_to[ia].intersects(options[b]->components[ib]) &&
           options[b]->reach_to[ib].intersects(options[a]->components[ia]);
  };

  std::vector<std::size_t> choice(options.size(), 0);
  for (const pattern_table* t : options)
    if (t->components.empty()) return false;
  // Odometer enumeration over all SCC combinations.
  while (true) {
    bool ok = true;
    for (std::size_t a = 0; ok && a < options.size(); ++a) {
      ok = self_consistent(a, choice[a]);
      for (std::size_t b = 0; ok && b < a; ++b)
        ok = compatible(a, choice[a], b, choice[b]);
    }
    if (ok) return true;
    // Advance odometer.
    std::size_t pos = 0;
    while (pos < choice.size()) {
      if (++choice[pos] < options[pos]->components.size()) break;
      choice[pos] = 0;
      ++pos;
    }
    if (pos == choice.size()) return false;
  }
}

std::optional<generalized_quorum_system> canonical_construction(
    const fail_prone_system& fps, const termination_mapping& tau,
    std::string* why) {
  auto fail = [&](std::string reason) {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };
  if (tau.size() != fps.size())
    return fail("termination mapping size differs from |F|");

  quorum_family reads, writes;
  for (std::size_t k = 0; k < fps.size(); ++k) {
    const failure_pattern& f = fps[k];
    const process_set t = tau[k];
    if (t.empty())
      return fail("tau(f) empty for pattern #" + std::to_string(k));
    if (!t.is_subset_of(f.correct()))
      return fail("tau(f) contains a faulty process for pattern #" +
                  std::to_string(k));
    const pattern_table& view = f.table();
    if (!view.available(t))
      return fail(
          "tau(f) is not strongly connected in G \\ f for pattern #" +
          std::to_string(k) +
          " (Lemma 2: no obstruction-free implementation can exist)");
    const std::size_t c = view.component_of[t.first()];
    writes.push_back(view.components[c]);
    reads.push_back(view.reach_to[c]);
  }
  return generalized_quorum_system(fps, std::move(reads), std::move(writes));
}

}  // namespace gqs
