#include "core/minimize.hpp"

#include <stdexcept>

#include "core/pattern_table.hpp"

namespace gqs {

int total_quorum_size(const generalized_quorum_system& gqs) {
  int total = 0;
  for (const process_set& r : gqs.reads) total += r.size();
  for (const process_set& w : gqs.writes) total += w.size();
  return total;
}

namespace {

// Fast Definition 2 re-check for the greedy loop: during minimization the
// fail-prone system never changes, so each pattern's residual is compiled
// once and every re-check is pure mask algebra. Truth value is identical to
// check_generalized(gqs).ok.
class definition2_oracle {
 public:
  explicit definition2_oracle(const fail_prone_system& fps) {
    tables_.reserve(fps.size());
    for (const failure_pattern& f : fps)
      tables_.push_back(build_pattern_table(f));
  }

  bool check(const generalized_quorum_system& gqs) const {
    const process_set universe = process_set::full(gqs.system_size());
    for (const process_set& q : gqs.reads)
      if (!q.is_subset_of(universe)) return false;
    for (const process_set& q : gqs.writes)
      if (!q.is_subset_of(universe)) return false;
    if (gqs.reads.empty() || gqs.writes.empty()) return false;
    for (const process_set& r : gqs.reads)
      for (const process_set& w : gqs.writes)
        if (!r.intersects(w)) return false;
    for (const pattern_table& t : tables_)
      if (!t.admits(gqs.reads, gqs.writes)) return false;
    return true;
  }

 private:
  std::vector<pattern_table> tables_;
};

}  // namespace

generalized_quorum_system minimize_quorums(
    const generalized_quorum_system& gqs) {
  if (!check_generalized(gqs).ok)
    throw std::invalid_argument(
        "minimize_quorums: input is not a generalized quorum system");
  generalized_quorum_system current = gqs;
  const definition2_oracle oracle(current.fps);

  // Alternate passes over writes and reads until a fixpoint: dropping a
  // member from one family can unlock drops in the other (smaller write
  // quorums are easier to reach; smaller read quorums constrain writes
  // less).
  bool changed = true;
  while (changed) {
    changed = false;
    for (quorum_family* family : {&current.writes, &current.reads}) {
      for (process_set& quorum : *family) {
        for (process_id member : quorum) {
          process_set candidate = quorum;
          candidate.erase(member);
          if (candidate.empty()) continue;
          const process_set saved = quorum;
          quorum = candidate;
          if (oracle.check(current)) {
            changed = true;
            break;  // quorum's iterator invalidated; next fixpoint round
          }
          quorum = saved;
        }
      }
    }
  }
  return current;
}

}  // namespace gqs
