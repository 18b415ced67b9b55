#include "core/quorum_system.hpp"

#include "core/pattern_table.hpp"

namespace gqs {

bool is_f_available(process_set q, const failure_pattern& f) {
  return f.table().available(q);
}

bool is_f_reachable_from(process_set w, process_set r,
                         const failure_pattern& f) {
  return f.table().reachable(w, r);
}

check_result check_consistency(const quorum_family& reads,
                               const quorum_family& writes) {
  if (reads.empty()) return check_result::bad("no read quorums");
  if (writes.empty()) return check_result::bad("no write quorums");
  for (std::size_t i = 0; i < reads.size(); ++i)
    for (std::size_t j = 0; j < writes.size(); ++j)
      if (!reads[i].intersects(writes[j]))
        return check_result::bad("Consistency violated: read quorum " +
                                 reads[i].to_string() +
                                 " does not intersect write quorum " +
                                 writes[j].to_string());
  return check_result::good();
}

check_result check_generalized_availability(const fail_prone_system& fps,
                                            const quorum_family& reads,
                                            const quorum_family& writes) {
  for (std::size_t k = 0; k < fps.size(); ++k) {
    const failure_pattern& f = fps[k];
    if (!f.table().admits(reads, writes))
      return check_result::bad(
          "Availability violated for failure pattern #" + std::to_string(k) +
          " " + f.to_string() +
          ": no f-available write quorum is f-reachable from a read quorum");
  }
  return check_result::good();
}

check_result check_classical_availability(const fail_prone_system& fps,
                                          const quorum_family& reads,
                                          const quorum_family& writes) {
  for (std::size_t k = 0; k < fps.size(); ++k) {
    const failure_pattern& f = fps[k];
    const process_set correct = f.correct();
    bool read_ok = false, write_ok = false;
    for (const process_set& r : reads)
      read_ok |= !r.empty() && r.is_subset_of(correct);
    for (const process_set& w : writes)
      write_ok |= !w.empty() && w.is_subset_of(correct);
    if (!read_ok || !write_ok)
      return check_result::bad(
          "Availability violated for failure pattern #" + std::to_string(k) +
          ": no fully correct " + (read_ok ? "write" : "read") + " quorum");
  }
  return check_result::good();
}

check_result check_generalized(const generalized_quorum_system& gqs) {
  for (const process_set& q : gqs.reads)
    if (!q.is_subset_of(process_set::full(gqs.system_size())))
      return check_result::bad("read quorum outside system");
  for (const process_set& q : gqs.writes)
    if (!q.is_subset_of(process_set::full(gqs.system_size())))
      return check_result::bad("write quorum outside system");
  if (auto c = check_consistency(gqs.reads, gqs.writes); !c) return c;
  return check_generalized_availability(gqs.fps, gqs.reads, gqs.writes);
}

check_result check_classical(const generalized_quorum_system& qs) {
  for (const failure_pattern& f : qs.fps)
    if (f.faulty_channels().edge_count() != 0)
      return check_result::bad(
          "classical quorum system requires a fail-prone system that "
          "disallows channel failures between correct processes");
  if (auto c = check_consistency(qs.reads, qs.writes); !c) return c;
  return check_classical_availability(qs.fps, qs.reads, qs.writes);
}

std::vector<available_pair> available_pairs_in(const quorum_family& reads,
                                               const quorum_family& writes,
                                               process_set correct,
                                               const digraph& residual,
                                               bool first_only) {
  return build_pattern_table(residual, correct)
      .pairs(reads, writes, first_only);
}

std::optional<available_pair> find_available_pair(
    const generalized_quorum_system& gqs, const failure_pattern& f) {
  const auto pairs =
      f.table().pairs(gqs.reads, gqs.writes, /*first_only=*/true);
  if (pairs.empty()) return std::nullopt;
  return pairs.front();
}

std::vector<available_pair> all_available_pairs(
    const generalized_quorum_system& gqs, const failure_pattern& f) {
  return f.table().pairs(gqs.reads, gqs.writes);
}

process_set validating_write_union(const generalized_quorum_system& gqs,
                                   const failure_pattern& f) {
  return f.table().validating_union(gqs.reads, gqs.writes);
}

process_set compute_u_f(const generalized_quorum_system& gqs,
                        const failure_pattern& f) {
  return f.table().u_f(gqs.reads, gqs.writes);
}

}  // namespace gqs
