// failure_pattern.hpp — failure patterns and fail-prone systems (paper §2).
//
// A failure pattern f = (P, C) names the processes P that may crash and the
// channels C that may disconnect in a single execution. C may only contain
// channels between processes that are correct under f (channels incident to
// faulty processes are faulty by default).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/process_set.hpp"

namespace gqs {

struct pattern_table;  // core/pattern_table.hpp

/// A failure pattern (P, C): processes allowed to crash and channels
/// (between correct processes) allowed to disconnect.
class failure_pattern {
 public:
  /// A pattern over an n-process system in which nothing fails.
  explicit failure_pattern(process_id n);

  /// General pattern. Throws std::invalid_argument if a channel in
  /// `faulty_channels` is incident to a process in `crashable`, if it is a
  /// self-loop, or if sizes disagree. Builds the rows of C and validates
  /// them through from_rows.
  failure_pattern(process_id n, process_set crashable,
                  const std::vector<edge>& faulty_channels);

  /// General pattern with C given as rows: (u, v) is in C iff v is in
  /// faulty_rows[u]. Needs n rows; rejects what the edge-list constructor
  /// rejects, with the same messages, using word operations per row.
  static failure_pattern from_rows(process_id n, process_set crashable,
                                   std::vector<process_set> faulty_rows);

  process_id system_size() const noexcept { return n_; }

  /// P — the processes that may crash.
  process_set crashable() const noexcept { return crashable_; }

  /// Processes correct under this pattern.
  process_set correct() const { return crashable_.complement_in(n_); }

  /// C — the channels that may disconnect, as an edge set built per call.
  digraph faulty_channels() const { return digraph::from_rows(faulty_rows_); }

  /// C as it is stored, one out-row per process: v ∈ faulty_rows()[u] iff
  /// the channel (u, v) may disconnect.
  const std::vector<process_set>& faulty_rows() const noexcept {
    return faulty_rows_;
  }

  bool channel_may_fail(process_id from, process_id to) const {
    return faulty_rows_.at(from).contains(to);
  }

  /// True iff the channel (from, to) is reliable under this pattern, i.e.
  /// both endpoints are correct and the channel is not in C.
  bool channel_reliable(process_id from, process_id to) const {
    return correct().contains(from) && correct().contains(to) &&
           !channel_may_fail(from, to);
  }

  /// The residual graph G \ f: the complete network graph minus crashed
  /// processes (with incident channels) and minus the channels in C.
  digraph residual() const;

  /// Residual graph of an arbitrary base network (for models where the
  /// physical network is not complete).
  digraph residual_of(const digraph& network) const;

  /// G \ f compiled (core/pattern_table.hpp), built by the first call from
  /// any thread and shared by every copy of this pattern. A pattern never
  /// changes, so neither does its table.
  const pattern_table& table() const;

  /// True once table() has run on this pattern or on any copy of it.
  bool table_compiled() const noexcept;

  bool operator==(const failure_pattern&) const = default;

  std::string to_string(const std::vector<std::string>& names = {}) const;

 private:
  /// The lazily filled table, allocated at construction; every copy holds
  /// the same block, and any two blocks compare equal.
  struct compiled {
    struct block;
    std::shared_ptr<block> shared;
    bool operator==(const compiled&) const noexcept { return true; }
  };

  process_id n_ = 0;
  process_set crashable_;
  std::vector<process_set> faulty_rows_;
  compiled table_;
};

/// A fail-prone system F: a finite set of failure patterns over a common
/// system size.
class fail_prone_system {
 public:
  explicit fail_prone_system(process_id n) : n_(n) {}
  fail_prone_system(process_id n, std::vector<failure_pattern> patterns);

  process_id system_size() const noexcept { return n_; }
  std::size_t size() const noexcept { return patterns_.size(); }
  bool empty() const noexcept { return patterns_.empty(); }

  const failure_pattern& operator[](std::size_t i) const {
    return patterns_.at(i);
  }
  const std::vector<failure_pattern>& patterns() const noexcept {
    return patterns_;
  }

  void add(failure_pattern f);

  auto begin() const noexcept { return patterns_.begin(); }
  auto end() const noexcept { return patterns_.end(); }

  bool operator==(const fail_prone_system&) const = default;

 private:
  process_id n_;
  std::vector<failure_pattern> patterns_;
};

}  // namespace gqs
