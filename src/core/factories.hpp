// factories.hpp — canonical systems from the paper's examples.
#pragma once

#include <string>
#include <vector>

#include "core/quorum_system.hpp"

namespace gqs {

/// Example 4: the standard threshold model F_M restricted to ≤ k crashes
/// and no channel failures between correct processes:
/// F = { (Q, ∅) : Q ⊆ P, |Q| ≤ k }. Only the maximal patterns (|Q| = k)
/// are generated — subsets of a failure pattern are dominated by it for
/// every property this library checks.
fail_prone_system threshold_fail_prone_system(process_id n, int k);

/// Example 6: the classical read/write threshold quorum system — read
/// quorums of size ≥ n−k, write quorums of size ≥ k+1 (minimal quorums
/// only).
generalized_quorum_system threshold_quorum_system(process_id n, int k);

/// The running example of the paper (Figure 1): 4 processes a, b, c, d
/// (ids 0..3), fail-prone system F = {f1..f4} and the generalized quorum
/// system (F, R, W) with R_i, W_i as drawn.
struct figure1_system {
  generalized_quorum_system gqs;
  std::vector<std::string> names;  // {"a","b","c","d"}
};
figure1_system make_figure1();

/// Example 9: F′ = Figure 1's F with f1 replaced by f1′ that additionally
/// fails the channel (a, b). The paper shows F′ admits no generalized
/// quorum system.
fail_prone_system make_example9_variant();

/// Names used throughout for the 4-process examples.
std::vector<std::string> figure1_names();

// ---- structured large-n constructions ----
//
// The threshold families above enumerate subsets, so they stop at n ≈ 20.
// The factories below are the classical structured quorum constructions
// with O(1/√n) optimal load (Malkhi–Reiter–Wool style), expressed as
// generalized quorum systems over the single-crash fail-prone system —
// they are what makes n = 256 instances practical end to end: |R| and |W|
// grow like √n (grid, clusters) or 3^log₃n (tree) instead of 2^n, and the
// planner-measured system load stays ≤ c/√n (constants documented per
// factory; verified by tests/factories_test.cpp and swept by
// bench/bench_strategy.cpp).

/// The classical single-crash fail-prone system:
/// F = { ({p}, ∅) : p ∈ P }. Every residual graph is the complete graph
/// on n−1 processes, so these systems always admit a GQS (n ≥ 2) and the
/// existence solver decides them with one candidate per pattern.
fail_prone_system single_crash_fail_prone_system(process_id n);

/// √n × √n grid: processes split into k = ⌊n/⌊√n⌋⌋ contiguous row-blocks
/// of size ⌊√n⌋ (the remainder merges into the last block); reads are the
/// rows, writes are the column transversals (column j takes member
/// j mod |row| of every row). Every column meets every row, so the system
/// is consistent, and any single crash leaves both a full row and a full
/// column intact (n ≥ 4). Uniform strategies give read and write load
/// ≤ 2/√n each; the planner-measured system load is ≤ 2/√n (exactly 1/√n
/// when n is a perfect square).
generalized_quorum_system grid_quorum_system(process_id n);

/// Recursive 2-of-3 majority tree over the id range: a quorum picks 2 of
/// the 3 near-equal thirds at every level (the quorum index's base-3
/// digits choose which third to drop), bottoming out at ranges of ≤ 2
/// ids, which are taken whole. Any two quorums share a third at every
/// level, so all pairs intersect; a single crash is avoided by dropping
/// the crashed process's third at the top level (n ≥ 3). Uniform load is
/// (2/3)^depth ≈ n^−0.37; the planner-measured system load is ≤ 2.5/√n
/// for n ≤ 256 (the asymptotic exponent is milder than 1/√n, so the
/// constant is calibrated to this library's capacity, not to n → ∞).
generalized_quorum_system tree_quorum_system(process_id n);

/// Hierarchical clusters: s = ⌊√n⌋ contiguous balanced clusters; quorum
/// (q, t) is cluster q in full plus one rotating representative
/// (member (q + t) mod |cluster| of each other cluster), t ∈ {0, 1}.
/// Quorums (a, ·) and (b, ·) intersect inside cluster b's block, and for
/// any crashed p some (q, t) with q ≠ cluster(p) rotates its
/// representative off p (n ≥ 4). Uniform load ≈ 1/s + 1/|cluster| ≈ 2/√n;
/// the planner-measured system load is ≤ 3.5/√n.
generalized_quorum_system hierarchical_quorum_system(process_id n);

}  // namespace gqs
