#include "core/failure_pattern.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>

#include "core/pattern_table.hpp"

namespace gqs {

struct failure_pattern::compiled::block {
  std::once_flag once;
  std::atomic<bool> done{false};
  pattern_table table;
};

failure_pattern::failure_pattern(process_id n)
    : n_(n), faulty_rows_(n), table_{std::make_shared<compiled::block>()} {
  if (n == 0) throw std::invalid_argument("failure_pattern: empty system");
}

namespace {

// The rows of C for an edge list; ids that no row can hold are rejected
// here, everything else in failure_pattern::from_rows.
std::vector<process_set> rows_of(process_id n,
                                 const std::vector<edge>& channels) {
  std::vector<process_set> rows(n);
  for (const edge& e : channels) {
    if (e.from >= n || e.to >= n)
      throw std::invalid_argument("failure_pattern: channel outside system");
    rows[e.from].insert(e.to);
  }
  return rows;
}

}  // namespace

failure_pattern::failure_pattern(process_id n, process_set crashable,
                                 const std::vector<edge>& faulty_channels)
    : failure_pattern(from_rows(n, crashable, rows_of(n, faulty_channels))) {}

failure_pattern failure_pattern::from_rows(
    process_id n, process_set crashable,
    std::vector<process_set> faulty_rows) {
  failure_pattern f(n);  // rejects n == 0
  const process_set all = process_set::full(n);
  if (!crashable.is_subset_of(all))
    throw std::invalid_argument(
        "failure_pattern: crashable processes outside system");
  if (faulty_rows.size() != n)
    throw std::invalid_argument("failure_pattern: channel rows size mismatch");
  const process_set correct = crashable.complement_in(n);
  for (process_id u = 0; u < n; ++u) {
    const process_set& row = faulty_rows[u];
    if (row.empty()) continue;
    if (!row.is_subset_of(all))
      throw std::invalid_argument("failure_pattern: channel outside system");
    if (row.test(u))
      throw std::invalid_argument("failure_pattern: self-loop channel");
    if (!correct.test(u) || !row.is_subset_of(correct))
      throw std::invalid_argument(
          "failure_pattern: C may only contain channels between correct "
          "processes (channels incident to faulty processes are implicitly "
          "faulty)");
  }
  f.crashable_ = crashable;
  f.faulty_rows_ = std::move(faulty_rows);
  return f;
}

digraph failure_pattern::residual() const {
  return residual_of(digraph::complete(n_));
}

digraph failure_pattern::residual_of(const digraph& network) const {
  if (network.vertex_count() != n_)
    throw std::invalid_argument("failure_pattern: network size mismatch");
  digraph g = network;
  g.remove_vertices(crashable_);
  g.remove_edges_of(faulty_channels());
  return g;
}

const pattern_table& failure_pattern::table() const {
  compiled::block& b = *table_.shared;
  if (!b.done.load(std::memory_order_acquire))
    std::call_once(b.once, [&] {
      build_pattern_table_into(*this, b.table);
      b.done.store(true, std::memory_order_release);
    });
  return b.table;
}

bool failure_pattern::table_compiled() const noexcept {
  return table_.shared->done.load(std::memory_order_acquire);
}

std::string failure_pattern::to_string(
    const std::vector<std::string>& names) const {
  auto name = [&](process_id v) {
    return v < names.size() ? names[v] : std::to_string(v);
  };
  std::string out = "(P={";
  bool first = true;
  for (process_id p : crashable_) {
    if (!first) out += ", ";
    out += name(p);
    first = false;
  }
  out += "}, C={";
  first = true;
  for (const edge& e : faulty_channels().edges()) {
    if (!first) out += ", ";
    out += '(';
    out += name(e.from);
    out += ',';
    out += name(e.to);
    out += ')';
    first = false;
  }
  out += "})";
  return out;
}

fail_prone_system::fail_prone_system(process_id n,
                                     std::vector<failure_pattern> patterns)
    : n_(n), patterns_(std::move(patterns)) {
  for (const failure_pattern& f : patterns_)
    if (f.system_size() != n)
      throw std::invalid_argument("fail_prone_system: size mismatch");
}

void fail_prone_system::add(failure_pattern f) {
  if (f.system_size() != n_)
    throw std::invalid_argument("fail_prone_system: size mismatch");
  patterns_.push_back(std::move(f));
}

}  // namespace gqs
