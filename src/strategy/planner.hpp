// planner.hpp — the offline quorum-strategy planner.
//
// Finds the strategy that minimizes the (capacity-weighted) system load of
// a read/write quorum family:
//
//   minimize over σ = (σ_R, σ_W)   max_p  load_σ(p) / cap_p
//
// the load LP of Malkhi, Reiter & Wool: minimize L subject to
//   ρ·Σ_{R∋p} σ_R(R) + (1−ρ)·Σ_{W∋p} σ_W(W) ≤ L·cap_p   for every p,
// with σ_R and σ_W probability distributions. Its dual is a distribution
// w over processes (the "adversary"). The planner solves it exactly, as
// Whittaker et al. do, with a small deterministic dense simplex (doubles,
// fixed pivot rules with lowest-index tie-breaks, no threads) driven by
// column generation: a restricted master starts from one read and one
// write quorum, every quorum is priced against the master's duals, the
// most negative reduced-cost quorum of each family joins the master, and
// the loop stops when none prices below zero or the certified gap is
// within tolerance. Both certificates come from the original data, never
// from tableau values:
//
//   * upper bound — max_p load(p)/cap_p of the returned strategy;
//   * lower bound — for the master's normalized dual w,
//       min_σ Σ_p w_p · load_σ(p)/cap_p
//         = ρ · min_R Σ_{p∈R} w_p/cap_p + (1−ρ) · min_W Σ_{p∈W} w_p/cap_p
//     bounds the optimum from below (a max is at least any average).
//
// `converged` means the certified gap is within `tolerance`. The result
// is a basic optimum of the LP — a vertex — so its support can be small:
// a few quorums may carry all the mass where many would do as well. When
// the read and write families are the same family, reads and writes are
// interchangeable and one distribution serves both.
//
// The GQS lift (the part that is new relative to the classical planners):
// availability in a generalized quorum system is *directional and
// per-failure-pattern* — a write quorum must be f-available and f-reachable
// from its read quorum, per pattern f. The f-aware planner therefore
// optimizes, for each f ∈ F, a distribution over the *valid (W, R) pairs*
// of that pattern, never assigning mass to a pair that Definition 2 would
// reject under f; the same column generation solves it, with the valid
// pairs as the columns of one distribution. The failure-probability estimator evaluates a family
// under independent process failures over an arbitrary base topology
// (exact enumeration for small n, seeded Monte Carlo above).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/quorum_system.hpp"
#include "strategy/strategy.hpp"

namespace gqs {

struct planner_options {
  /// Fraction of accesses that are reads (ρ).
  double read_ratio = 0.5;
  /// Per-process capacities; empty means every process has capacity 1
  /// (the classical unweighted load).
  std::vector<double> capacities;
  /// Target certified gap, in weighted-load units.
  double tolerance = 1e-3;
  /// Budget of column-generation rounds (master solves); the result
  /// reports `converged = false` when the tolerance was not reached
  /// within it.
  int max_iterations = 50000;

  void validate(process_id n) const;
};

/// An optimized strategy with its certificates.
struct plan_result {
  read_write_strategy strategy;
  std::vector<double> load;   ///< combined per-process load of `strategy`
  double system_load = 0;     ///< max_p load(p) (unweighted)
  double weighted_load = 0;   ///< max_p load(p)/cap_p — the objective (UB)
  double lower_bound = 0;     ///< certified lower bound on the optimum
  double gap = 0;             ///< weighted_load − lower_bound
  double capacity = 0;        ///< 1 / weighted_load: sustainable throughput
  double network_cost = 0;    ///< expected request messages per access
  int iterations = 0;         ///< column-generation rounds run
  bool converged = false;
};

/// Optimal (to `tolerance`) strategy for a read/write family on n
/// processes, ignoring failure patterns.
plan_result plan_optimal(process_id n, const quorum_family& reads,
                         const quorum_family& writes,
                         const planner_options& options = {});

/// Convenience overload over a GQS's families.
plan_result plan_optimal(const generalized_quorum_system& gqs,
                         const planner_options& options = {});

/// The f-aware strategy of one failure pattern: a distribution over the
/// pattern's valid (W, R) pairs — W f-available and f-reachable from R —
/// so every sampled access survives f by construction.
struct pattern_plan {
  std::size_t pattern_index = 0;
  std::vector<available_pair> pairs;  ///< the support (valid pairs only)
  std::vector<double> weights;        ///< distribution over `pairs`
  std::vector<double> load;           ///< combined per-process load
  double weighted_load = 0;           ///< objective value (UB)
  double lower_bound = 0;
  double gap = 0;
  bool converged = false;
  bool feasible = false;  ///< false iff the pattern has no valid pair

  /// The pair targeted with highest probability (presentation helper).
  std::optional<available_pair> top_pair() const;
};

/// Optimizes the strategy conditioned on pattern `pattern_index` of
/// gqs.fps: only that pattern's valid pairs may carry mass.
pattern_plan plan_for_pattern(const generalized_quorum_system& gqs,
                              std::size_t pattern_index,
                              const planner_options& options = {});

/// One pattern_plan per pattern of gqs.fps, in pattern order.
std::vector<pattern_plan> plan_all_patterns(
    const generalized_quorum_system& gqs,
    const planner_options& options = {});

// ---- latency-aware planning (queueing model) ----

/// Options of the latency-aware planner. The per-process service model is
/// M/M/1: process p serves access work at rate μ_p (accesses/µs counted
/// per quorum membership); a strategy σ under target throughput λ loads p
/// at x_p = λ·load_σ(p), and the expected per-member response time is
///   W_p = 1 / (μ_p − x_p)        (∞ at or beyond saturation).
/// The planner minimizes the expected quorum response time
///   T(σ) = ρ·E_R[max_{p∈R} W_p] + (1−ρ)·E_W[max_{p∈W} W_p]
/// — the user-visible latency objective, instead of plan_optimal's pure
/// max-load objective, which is throughput-optimal but latency-blind when
/// capacities are heterogeneous and utilization is high.
struct latency_planner_options {
  /// Fraction of accesses that are reads (ρ).
  double read_ratio = 0.5;
  /// Target throughput λ (accesses per microsecond).
  double arrival_rate = 0;
  /// Per-process service rates μ_p; empty means 1.0 everywhere, a single
  /// entry broadcasts.
  std::vector<double> service_rates;
  /// Stop when one sweep of the averaging loop improves the objective by
  /// less than this relative amount.
  double tolerance = 1e-6;
  int max_iterations = 4000;

  void validate(process_id n) const;
};

/// A latency-optimized strategy with its queueing-model diagnostics.
struct latency_plan_result {
  read_write_strategy strategy;
  std::vector<double> load;         ///< per-access per-process load of σ
  std::vector<double> utilization;  ///< x_p/μ_p at the target throughput
  double expected_latency = 0;      ///< T(σ) in µs (model, not measured)
  double system_load = 0;           ///< max_p load(p)
  double weighted_load = 0;         ///< max_p load(p)/μ_p
  double network_cost = 0;          ///< expected request messages/access
  int iterations = 0;
  bool feasible = false;  ///< all processes below saturation under σ
};

/// Queueing-model expected response time of an arbitrary strategy at
/// throughput λ (same T(σ) as above; ∞ if σ saturates some process).
double expected_response_time(const read_write_strategy& strategy,
                              process_id n, double arrival_rate,
                              const std::vector<double>& service_rates);

/// Minimizes T(σ) by the method of successive averages: repeated exact
/// best responses against the current congestion state, averaged with a
/// 1/(t+1) step, keeping the best iterate seen. Deterministic; seeded from
/// the capacity-aware plan_optimal strategy (capacities = service rates),
/// which is feasible below the peak sustainable throughput.
latency_plan_result plan_latency_optimal(
    process_id n, const quorum_family& reads, const quorum_family& writes,
    const latency_planner_options& options);

/// One point of the load/latency Pareto sweep.
struct pareto_point {
  double utilization = 0;       ///< requested fraction of peak throughput
  double arrival_rate = 0;      ///< the λ this point planned for
  double expected_latency = 0;  ///< model T(σ) of the latency-aware plan
  double load_only_latency = 0;  ///< model T of the load-only plan at λ
  double system_load = 0;       ///< max per-process load of the plan
  double network_cost = 0;      ///< messages per access of the plan
  bool feasible = false;
  read_write_strategy strategy;  ///< for driving measured (simulated) runs
};

struct pareto_sweep_options {
  double read_ratio = 0.5;
  std::vector<double> service_rates;
  /// Fractions of the peak sustainable throughput to plan at. The peak is
  /// 1/weighted_load of the capacity-aware load-optimal plan.
  std::vector<double> utilizations = {0.3, 0.5, 0.7, 0.8, 0.9, 0.95};
};

/// Plans one latency-optimal strategy per utilization level and reports
/// the model latency of the load-only plan alongside — the offline
/// Pareto frontier bench_strategy measures against simulation.
std::vector<pareto_point> latency_pareto_sweep(
    process_id n, const quorum_family& reads, const quorum_family& writes,
    const pareto_sweep_options& options = {});

// ---- independent-failure availability estimation ----

struct availability_options {
  /// Per-process independent failure probabilities; a single entry is
  /// broadcast to all processes; empty means fail_probability everywhere.
  std::vector<double> fail_probabilities;
  double fail_probability = 0.1;
  /// Up to this n the 2^n crash subsets are enumerated exactly; above it
  /// the estimator switches to seeded Monte Carlo. Must be below 64.
  process_id exact_max_n = 14;
  std::uint64_t samples = 20000;
  std::uint64_t seed = 1;
};

struct availability_estimate {
  double probability = 0;  ///< Pr[some valid (W, R) pair survives]
  bool exact = false;      ///< true iff computed by full enumeration
  std::uint64_t trials = 0;
};

/// Probability, under independent process failures, that the family still
/// has a valid (W, R) pair in the directional GQS sense over `topology`
/// restricted to the surviving processes (W strongly connected there, R
/// reaching W). `topology == nullptr` means the complete graph — which
/// collapses to the classical "some all-correct R and W" availability.
availability_estimate estimate_availability(
    process_id n, const quorum_family& reads, const quorum_family& writes,
    const digraph* topology = nullptr,
    const availability_options& options = {});

}  // namespace gqs
