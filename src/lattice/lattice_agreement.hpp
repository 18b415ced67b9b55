// lattice_agreement.hpp — single-shot lattice agreement from an atomic
// snapshot (paper §4/§6; construction from Attiya–Herlihy–Rachman [11]).
//
// The object the paper's lower bound is proved against: each process may
// propose one value x_i from a join-semilattice and obtains an output y_i
// with
//
//   Comparability:     all outputs pairwise comparable;
//   Downward validity: x_i ≤ y_i;
//   Upward validity:   y_i ≤ ⨆ of all proposed inputs.
//
// Construction: write the input into the proposer's snapshot segment, take
// an atomic snapshot, output the join of everything seen. Snapshots are
// linearizable and segments are written at most once (⊥ → x_i), so later
// snapshots dominate earlier ones and all joins are comparable.
//
// The semilattice here is (2^{0..63}, ∪) represented as a 64-bit mask —
// rich enough for every experiment; x ≤ y is mask inclusion.
#pragma once

#include <cstdint>
#include <functional>

#include "snapshot/snapshot.hpp"

namespace gqs {

/// Elements of the join-semilattice: subsets of {0..63} as bit masks.
using lattice_value = std::uint64_t;

constexpr lattice_value lattice_join(lattice_value a, lattice_value b) {
  return a | b;
}
constexpr bool lattice_leq(lattice_value a, lattice_value b) {
  return (a & ~b) == 0;
}

/// Single-shot lattice agreement node. propose() may be called at most
/// once per process.
class lattice_agreement_node : public snapshot_node<lattice_value> {
 public:
  using propose_callback = std::function<void(lattice_value)>;

  lattice_agreement_node(process_id segments, quorum_config config,
                         service_options options = {})
      : snapshot_node<lattice_value>(segments, std::move(config),
                                     std::move(options)) {}

  /// Proposes x; the callback receives the output value y.
  void propose(lattice_value x, propose_callback done) {
    if (proposed_)
      throw std::logic_error("lattice agreement is single-shot per process");
    proposed_ = true;
    update(x, [this, done = std::move(done)] {
      scan([done](std::vector<lattice_value> segments) {
        lattice_value join = 0;
        for (lattice_value v : segments) join = lattice_join(join, v);
        done(join);
      });
    });
  }

 private:
  bool proposed_ = false;
};

}  // namespace gqs
