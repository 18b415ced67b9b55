#include "core/minimize.hpp"

#include <stdexcept>

namespace gqs {

int total_quorum_size(const generalized_quorum_system& gqs) {
  int total = 0;
  for (const process_set& r : gqs.reads) total += r.size();
  for (const process_set& w : gqs.writes) total += w.size();
  return total;
}

generalized_quorum_system minimize_quorums(
    const generalized_quorum_system& gqs) {
  if (!check_generalized(gqs).ok)
    throw std::invalid_argument(
        "minimize_quorums: input is not a generalized quorum system");
  // `current` shares its patterns' compiled tables with `gqs`, which the
  // check above built, so no re-check below compiles a residual.
  generalized_quorum_system current = gqs;

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
          if (check_generalized(current).ok) {
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
