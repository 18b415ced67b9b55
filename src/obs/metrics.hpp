// metrics.hpp — the counter snapshot fed by the typed counter structs.
//
// The counter structs (sim_metrics, service_counters, smr_counters) are
// the one counter surface: protocol code bumps their fields, tests and
// the repo benchmark read them by field. Each struct lists its fields
// once, in a static for_each_counter(f) visitor next to it, calling
// f(name, &Struct::field) per summable count.
//
// A registry armed by network_options::telemetry observes those fields:
// observe_counters(prefix, c) records a pointer to each field, read only
// inside snapshot(), so the hot path pays nothing. Fields registered under
// one name sum in the snapshot, which is how per-node structs become one
// system-wide row.
//
// Determinism: snapshot() rows are sorted by name and hold only integers;
// metrics_snapshot::merge is name-ordered integer addition. The experiment
// runner folds per-run snapshots in spec order, so aggregate rows are
// bit-identical at any worker thread count.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gqs {

/// One counter of a snapshot.
struct metric_row {
  std::string name;
  std::uint64_t value = 0;

  bool operator==(const metric_row&) const = default;
};

/// Point-in-time copy of a registry: name-sorted rows of plain integers.
struct metrics_snapshot {
  std::vector<metric_row> rows;  // sorted by name, names unique

  bool empty() const noexcept { return rows.empty(); }

  /// Folds `other` in: values under one name add, names union. Exact
  /// integer arithmetic, so the fold order fully determines the result.
  void merge(const metrics_snapshot& other);

  /// The row's value; 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;

  /// FNV-1a over every row's name and value.
  std::uint64_t digest() const;

  /// {"counters": {"name": value, ...}}, or {} when empty. Integer values
  /// only, so the rendering is locale-proof.
  std::string to_json() const;

  bool operator==(const metrics_snapshot&) const = default;
};

/// The registry. One per simulation; disabled by default.
class metrics_registry {
 public:
  void enable() noexcept { enabled_ = true; }

  /// Registers every field `C::for_each_counter` lists as `prefix + name`,
  /// read live from `c` at snapshot time. Dropped when disabled. `c` must
  /// outlive the registry's snapshots.
  template <class C>
  void observe_counters(const std::string& prefix, const C& c) {
    if (!enabled_) return;
    C::for_each_counter([&](const char* name, auto field) {
      cells_.emplace_back(prefix + name, &(c.*field));
    });
  }

  metrics_snapshot snapshot() const;

 private:
  bool enabled_ = false;
  std::vector<std::pair<std::string, const std::uint64_t*>> cells_;
};

}  // namespace gqs
