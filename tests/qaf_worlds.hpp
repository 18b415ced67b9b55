// qaf_worlds.hpp — shared helpers for quorum-access-function tests: the
// grow-only set state and the access-function worlds.
#pragma once

#include <set>

#include "quorum/qaf_classical.hpp"
#include "quorum/qaf_generalized.hpp"
#include "workload/worlds.hpp"

namespace gqs::testing {

/// Grow-only integer-set state: the canonical opaque state for exercising
/// the access functions. Updates insert one element; Validity then means
/// every returned state is a subset of the issued elements, and Real-time
/// ordering means a completed insert is visible in at least one returned
/// state of every later get.
using int_set = std::set<int>;

inline quorum_access<int_set>::update_fn insert_update(int x) {
  return [x](const int_set& s) {
    int_set t = s;
    t.insert(x);
    return t;
  };
}

/// One access-function component per process (workload/worlds.hpp).
using classical_world = world<classical_qaf<int_set>>;
using generalized_world = world<generalized_qaf<int_set>>;

}  // namespace gqs::testing
