// strategy_test — the quorum-strategy planner: load/capacity math, the
// certified LP optimizer against brute-force enumeration over the
// topology corpus and on degenerate inputs, its certificates on the
// plan-corpus shape and the large-n constructions, f-aware pair
// validity, the independent-failure
// availability estimator, and the deterministic runtime selector.
#include "strategy/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "strategy/selector.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

quorum_family two_subsets_of_three() {
  return {process_set{0, 1}, process_set{0, 2}, process_set{1, 2}};
}

TEST(Strategy, BasicsAndValidation) {
  quorum_strategy u = quorum_strategy::uniform(two_subsets_of_three());
  u.validate();
  EXPECT_DOUBLE_EQ(u.member_probability(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(u.expected_quorum_size(), 2.0);

  quorum_strategy p = quorum_strategy::pure(process_set{1});
  p.validate();
  EXPECT_DOUBLE_EQ(p.member_probability(1), 1.0);
  EXPECT_DOUBLE_EQ(p.member_probability(0), 0.0);

  quorum_strategy bad = u;
  bad.weights[0] = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = u;
  bad.weights[0] += 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = u;
  bad.weights.pop_back();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = u;
  bad.weights[0] = std::numeric_limits<double>::quiet_NaN();
  try {
    bad.validate();
    ADD_FAILURE() << "NaN weight accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("NaN"), std::string::npos)
        << e.what();
  }

  quorum_strategy dusty;
  dusty.quorums = two_subsets_of_three();
  dusty.weights = {0.5, 1e-12, 0.5 - 1e-12};
  dusty.prune();
  EXPECT_EQ(dusty.quorums.size(), 2u);
  dusty.validate();
}

TEST(Strategy, LoadCapacityAndCostFormulas) {
  read_write_strategy s;
  s.reads = quorum_strategy::pure(process_set{0, 1});
  s.writes = quorum_strategy::pure(process_set{1, 2});
  s.read_ratio = 0.75;
  s.validate();

  const std::vector<double> load = per_process_load(s, 4);
  EXPECT_DOUBLE_EQ(load[0], 0.75);
  EXPECT_DOUBLE_EQ(load[1], 1.0);
  EXPECT_DOUBLE_EQ(load[2], 0.25);
  EXPECT_DOUBLE_EQ(load[3], 0.0);
  EXPECT_DOUBLE_EQ(system_load(s, 4), 1.0);
  EXPECT_DOUBLE_EQ(strategy_capacity(s, 4), 1.0);
  // Process 1 has capacity 4: the bottleneck moves to process 0.
  EXPECT_DOUBLE_EQ(strategy_capacity(s, 4, {1, 4, 1, 1}), 1.0 / 0.75);
  EXPECT_DOUBLE_EQ(expected_network_cost(s), 2.0);
  EXPECT_DOUBLE_EQ(broadcast_network_cost(4), 4.0);
}

TEST(Planner, SingleQuorumConvergesImmediately) {
  const quorum_family only = {process_set{0, 1}};
  const plan_result plan = plan_optimal(2, only, only);
  EXPECT_TRUE(plan.converged);
  EXPECT_DOUBLE_EQ(plan.weighted_load, 1.0);
  EXPECT_DOUBLE_EQ(plan.system_load, 1.0);
  EXPECT_NEAR(plan.gap, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(plan.network_cost, 2.0);
}

TEST(Planner, NailsMajoritySystem) {
  // Classical 2-of-3 majority: every strategy has Σ_p load(p) = E|Q| = 2,
  // so max_p load ≥ 2/3; the uniform strategy attains it.
  const quorum_family maj = two_subsets_of_three();
  const plan_result plan = plan_optimal(3, maj, maj);
  EXPECT_TRUE(plan.converged);
  EXPECT_GE(plan.weighted_load, 2.0 / 3.0 - 1e-9);
  EXPECT_LE(plan.weighted_load, 2.0 / 3.0 + 0.01);
  EXPECT_LE(plan.lower_bound, 2.0 / 3.0 + 1e-9);
  EXPECT_NEAR(plan.capacity, 1.5, 0.05);
}

TEST(Planner, RespectsHeterogeneousCapacities) {
  // Two singleton quorums, capacities 1 and 3: minimize
  // max(x/1, (1-x)/3) → x = 1/4, objective 1/4, capacity 4.
  const quorum_family singles = {process_set{0}, process_set{1}};
  planner_options options;
  options.capacities = {1.0, 3.0};
  const plan_result plan = plan_optimal(2, singles, singles, options);
  EXPECT_TRUE(plan.converged);
  EXPECT_NEAR(plan.weighted_load, 0.25, 0.01);
  EXPECT_NEAR(plan.capacity, 4.0, 0.2);
  // Three quarters of the mass must sit on the strong process.
  double strong_mass = 0;
  for (std::size_t i = 0; i < plan.strategy.writes.quorums.size(); ++i)
    if (plan.strategy.writes.quorums[i].contains(1))
      strong_mass += plan.strategy.writes.weights[i];
  EXPECT_NEAR(strong_mass, 0.75, 0.05);
}

TEST(Planner, Figure1IsBalancedAtHalf) {
  // Figure 1: every process sits in exactly 2 of 4 read and 2 of 4 write
  // quorums of size 2, so Σ_p load(p) = 2 and the optimum is 2/4 = 1/2.
  const plan_result plan = plan_optimal(make_figure1().gqs);
  EXPECT_TRUE(plan.converged);
  EXPECT_NEAR(plan.weighted_load, 0.5, 0.01);
  EXPECT_NEAR(plan.network_cost, 2.0, 1e-6);
}

TEST(Planner, RejectsBadInputs) {
  const quorum_family ok = {process_set{0}};
  EXPECT_THROW(plan_optimal(1, {}, ok), std::invalid_argument);
  EXPECT_THROW(plan_optimal(1, ok, {process_set{}}),
               std::invalid_argument);
  EXPECT_THROW(plan_optimal(1, ok, {process_set{3}}),
               std::invalid_argument);
  planner_options options;
  options.read_ratio = 1.5;
  EXPECT_THROW(plan_optimal(1, ok, ok, options), std::invalid_argument);
  options = {};
  options.capacities = {1.0, -2.0};
  EXPECT_THROW(plan_optimal(2, ok, ok, options), std::invalid_argument);

  // Exact enumeration walks one 64-bit mask: 2^64 subsets cannot be named.
  availability_options availability;
  availability.exact_max_n = 64;
  EXPECT_THROW(estimate_availability(1, ok, ok, nullptr, availability),
               std::invalid_argument);
  availability.exact_max_n = 63;
  EXPECT_TRUE(
      estimate_availability(1, ok, ok, nullptr, availability).exact);
}

// ---- the brute-force property over the topology corpus ----

/// All weight vectors of length m with entries i/denominator summing to 1
/// (compositions of `denominator` into m parts).
std::vector<std::vector<double>> simplex_grid(std::size_t m,
                                              int denominator) {
  std::vector<std::vector<double>> grid;
  std::vector<int> parts(m, 0);
  const auto emit = [&] {
    std::vector<double> w(m);
    for (std::size_t i = 0; i < m; ++i)
      w[i] = static_cast<double>(parts[i]) /
             static_cast<double>(denominator);
    grid.push_back(std::move(w));
  };
  // Odometer over compositions.
  const std::function<void(std::size_t, int)> rec = [&](std::size_t i,
                                                        int left) {
    if (i + 1 == m) {
      parts[i] = left;
      emit();
      return;
    }
    for (int take = 0; take <= left; ++take) {
      parts[i] = take;
      rec(i + 1, left - take);
    }
  };
  rec(0, denominator);
  return grid;
}

/// max_p (1/cap_p) Σ_i w_i [p ∈ family[i]], precomputed per grid point.
std::vector<std::vector<double>> grid_loads(
    const quorum_family& family, const std::vector<std::vector<double>>& grid,
    process_id n) {
  std::vector<std::vector<double>> loads;
  loads.reserve(grid.size());
  for (const std::vector<double>& w : grid) {
    std::vector<double> load(n, 0.0);
    for (std::size_t i = 0; i < family.size(); ++i)
      for (process_id p : family[i]) load[p] += w[i];
    loads.push_back(std::move(load));
  }
  return loads;
}

TEST(Planner, MatchesBruteForceEnumerationOnCorpus) {
  constexpr int kDenominator = 8;
  int solved = 0;
  for (const scenario_family& family : topology_corpus(12)) {
    std::mt19937_64 rng(1);
    const fail_prone_system fps = scenario_system(family.params, rng);
    const auto witness = find_gqs(fps);
    if (!witness) continue;
    const generalized_quorum_system& gqs = witness->system;
    const process_id n = gqs.system_size();
    if (gqs.reads.size() + gqs.writes.size() > 8) continue;  // bound kept
    ++solved;

    planner_options options;
    options.read_ratio = 0.5;
    options.capacities = process_capacities(family.params);
    options.tolerance = 1e-3;
    const plan_result plan = plan_optimal(gqs, options);

    std::vector<double> inv(n);
    for (process_id p = 0; p < n; ++p) inv[p] = 1.0 / options.capacities[p];
    const auto read_grid = simplex_grid(gqs.reads.size(), kDenominator);
    const auto write_grid = simplex_grid(gqs.writes.size(), kDenominator);
    const auto read_loads = grid_loads(gqs.reads, read_grid, n);
    const auto write_loads = grid_loads(gqs.writes, write_grid, n);
    double enumerated = std::numeric_limits<double>::infinity();
    for (const auto& rl : read_loads)
      for (const auto& wl : write_loads) {
        double worst = 0;
        for (process_id p = 0; p < n; ++p)
          worst = std::max(worst, (0.5 * rl[p] + 0.5 * wl[p]) * inv[p]);
        enumerated = std::min(enumerated, worst);
      }

    // The enumerated optimum is feasible, so the planner (within its
    // certified gap) cannot be worse...
    EXPECT_LE(plan.weighted_load, enumerated + plan.gap + 1e-9)
        << family.name;
    // ...and its certified lower bound cannot exceed it.
    EXPECT_LE(plan.lower_bound, enumerated + 1e-9) << family.name;
    // The grid is a 1/denominator-discretization, so the enumerated value
    // can only sit slightly above the true optimum.
    EXPECT_LE(enumerated, plan.weighted_load + 0.12) << family.name;
    EXPECT_LE(plan.gap, 0.02) << family.name << " gap " << plan.gap;
  }
  // The corpus must actually exercise the property on several systems.
  EXPECT_GE(solved, 5);
}

TEST(Planner, FAwarePlansAssignMassOnlyToValidPairs) {
  // Figure 1 plus every solvable corpus system: each pattern's plan may
  // put weight only on (W, R) pairs that Definition 2 validates under
  // that pattern.
  std::vector<generalized_quorum_system> systems;
  systems.push_back(make_figure1().gqs);
  for (const scenario_family& family : topology_corpus(8)) {
    std::mt19937_64 rng(1);
    const auto witness = find_gqs(scenario_system(family.params, rng));
    if (witness) systems.push_back(witness->system);
  }
  ASSERT_GE(systems.size(), 3u);

  for (const generalized_quorum_system& gqs : systems) {
    const std::vector<pattern_plan> plans = plan_all_patterns(gqs);
    ASSERT_EQ(plans.size(), gqs.fps.size());
    for (std::size_t k = 0; k < plans.size(); ++k) {
      const pattern_plan& plan = plans[k];
      // These systems satisfy Availability, so every pattern has pairs.
      ASSERT_TRUE(plan.feasible) << "pattern " << k;
      ASSERT_EQ(plan.pairs.size(), plan.weights.size());
      double total = 0;
      for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
        total += plan.weights[i];
        if (plan.weights[i] <= 0) continue;
        EXPECT_TRUE(is_f_available(plan.pairs[i].write_quorum, gqs.fps[k]))
            << "pattern " << k << " pair " << i;
        EXPECT_TRUE(is_f_reachable_from(plan.pairs[i].write_quorum,
                                        plan.pairs[i].read_quorum,
                                        gqs.fps[k]))
            << "pattern " << k << " pair " << i;
      }
      EXPECT_NEAR(total, 1.0, 1e-6);
      EXPECT_TRUE(plan.top_pair().has_value());
      EXPECT_GE(plan.weighted_load, plan.lower_bound - 1e-9);
    }
  }
}

TEST(Planner, InfeasiblePatternReportsNoPairs) {
  // Example 9's F′ admits no GQS; grafting Figure 1's quorums onto it
  // leaves f1′ with no valid pair.
  const auto fig = make_figure1();
  const generalized_quorum_system broken(make_example9_variant(),
                                         fig.gqs.reads, fig.gqs.writes);
  const pattern_plan plan = plan_for_pattern(broken, 0);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.pairs.empty());
}

// ---- the exact LP planner: certificates and degenerate inputs ----

/// Checks a plan's certificates against its returned strategy: converged
/// within tolerance, weighted_load recomputed from the strategy, and two
/// distributions summing to 1.
void expect_certified(const plan_result& plan, process_id n,
                      const planner_options& options,
                      const std::string& what) {
  EXPECT_TRUE(plan.converged) << what << " gap " << plan.gap;
  EXPECT_LE(plan.gap, options.tolerance) << what;
  const std::vector<double> load = per_process_load(plan.strategy, n);
  double ub = 0;
  for (process_id p = 0; p < n; ++p)
    ub = std::max(ub, options.capacities.empty()
                          ? load[p]
                          : load[p] / options.capacities[p]);
  EXPECT_DOUBLE_EQ(plan.weighted_load, ub) << what;
  for (const quorum_strategy* side :
       {&plan.strategy.reads, &plan.strategy.writes}) {
    double total = 0;
    for (double w : side->weights) {
      EXPECT_GE(w, 0.0) << what;
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << what;
  }
}

TEST(Planner, LpConvergesWithExactCertificates) {
  // The plan-corpus shape: every topology_corpus(64) family with n >= 12,
  // drawn with |F| = 16, eight seeds each; odd seeds plan under the
  // scenario's heterogeneous capacities.
  int planned = 0;
  for (const scenario_family& family : topology_corpus(64)) {
    if (family.params.topology.n < 12) continue;
    scenario_params params = family.params;
    params.patterns = 16;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      std::mt19937_64 rng(seed);
      const auto witness = find_gqs(scenario_system(params, rng));
      if (!witness) continue;
      planner_options options;
      if (seed % 2 == 1) options.capacities = process_capacities(params);
      const generalized_quorum_system& gqs = witness->system;
      expect_certified(plan_optimal(gqs, options), gqs.system_size(),
                       options, family.name + " seed " + std::to_string(seed));
      ++planned;
    }
  }
  EXPECT_GE(planned, 100);

  // The structured large-n constructions, up to 243 quorums per side.
  const std::pair<const char*, generalized_quorum_system (*)(process_id)>
      constructions[] = {{"grid", grid_quorum_system},
                         {"tree", tree_quorum_system},
                         {"hierarchical", hierarchical_quorum_system}};
  for (const auto& [name, make] : constructions)
    for (process_id n : {16u, 64u, 144u, 256u})
      expect_certified(plan_optimal(make(n)), n, {},
                       std::string(name) + " n=" + std::to_string(n));
}

/// The least weighted load over the 1/denominator grid of strategies. A
/// grid point is a feasible strategy, so this never undercuts the optimum.
/// Column i of the grid loads reads[i] with ρ and writes[i] with 1 − ρ
/// when `paired`; otherwise the read and write grids are independent.
double grid_optimum(process_id n, const quorum_family& reads,
                    const quorum_family& writes, double rho,
                    const std::vector<double>& inv, int denominator,
                    bool paired) {
  const auto read_grid = simplex_grid(reads.size(), denominator);
  const auto read_loads = grid_loads(reads, read_grid, n);
  const auto write_loads =
      grid_loads(writes, paired ? read_grid
                                : simplex_grid(writes.size(), denominator),
                 n);
  double best = std::numeric_limits<double>::infinity();
  const auto consider = [&](const std::vector<double>& rl,
                            const std::vector<double>& wl) {
    double worst = 0;
    for (process_id p = 0; p < n; ++p)
      worst = std::max(worst, (rho * rl[p] + (1.0 - rho) * wl[p]) * inv[p]);
    best = std::min(best, worst);
  };
  for (std::size_t i = 0; i < read_loads.size(); ++i) {
    if (paired) {
      consider(read_loads[i], write_loads[i]);
      continue;
    }
    for (const auto& wl : write_loads) consider(read_loads[i], wl);
  }
  return best;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(Planner, LpHandlesDegenerateInputs) {
  struct lp_case {
    const char* name;
    process_id n;
    quorum_family reads, writes;
    double rho;
    std::vector<double> capacities;
  };
  // Distinct read and write families, so ρ ∈ {0, 1} leaves one family's
  // columns with no load at all.
  const quorum_family maj = two_subsets_of_three();
  const quorum_family split = {process_set{0}, process_set{1, 2}};
  const lp_case cases[] = {
      {"reads only", 3, maj, split, 1.0, {}},
      {"writes only", 3, maj, split, 0.0, {}},
      {"duplicated quorums", 3,
       {process_set{0, 1}, process_set{0, 1}, process_set{1, 2}},
       {process_set{0, 1, 2}, process_set{0, 1, 2}}, 0.5, {}},
      {"process in every quorum", 4,
       {process_set{0, 1}, process_set{0, 2}, process_set{0, 3}},
       {process_set{0, 1, 2}, process_set{0, 3}}, 0.3, {}},
      {"singleton families", 3, {process_set{2}}, {process_set{0, 1}}, 0.5,
       {}},
      {"singleton quorums", 3,
       {process_set{0}, process_set{1}, process_set{2}},
       {process_set{0}, process_set{1}, process_set{2}}, 0.5, {1, 2, 4}},
      {"capacities 1e-3..1e3", 4,
       {process_set{0, 1}, process_set{0, 2}, process_set{0, 3},
        process_set{1, 2}, process_set{1, 3}, process_set{2, 3}},
       {process_set{0, 1, 2}, process_set{0, 1, 3}, process_set{0, 2, 3},
        process_set{1, 2, 3}},
       0.7, {1e-3, 1.0, 1e3, 10.0}},
  };
  for (const lp_case& c : cases) {
    planner_options options;
    options.read_ratio = c.rho;
    options.capacities = c.capacities;
    const plan_result plan = plan_optimal(c.n, c.reads, c.writes, options);
    EXPECT_NO_THROW(plan.strategy.validate()) << c.name;
    expect_certified(plan, c.n, options, c.name);

    std::vector<double> inv(c.n, 1.0);
    for (process_id p = 0; p < c.capacities.size(); ++p)
      inv[p] = 1.0 / c.capacities[p];
    const double grid =
        grid_optimum(c.n, c.reads, c.writes, c.rho, inv, 8, false);
    EXPECT_LE(plan.weighted_load, grid + plan.gap + 1e-9) << c.name;
    EXPECT_LE(plan.lower_bound, grid + 1e-9) << c.name;

    const plan_result again = plan_optimal(c.n, c.reads, c.writes, options);
    EXPECT_EQ(bits_of(again.strategy.reads.weights),
              bits_of(plan.strategy.reads.weights))
        << c.name;
    EXPECT_EQ(bits_of(again.strategy.writes.weights),
              bits_of(plan.strategy.writes.weights))
        << c.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.lower_bound),
              std::bit_cast<std::uint64_t>(plan.lower_bound))
        << c.name;
  }

  // The f-aware planner against the same grid over Figure 1's valid pairs.
  const auto fig = make_figure1();
  const process_id n = fig.gqs.system_size();
  for (std::size_t k = 0; k < fig.gqs.fps.size(); ++k) {
    const pattern_plan plan = plan_for_pattern(fig.gqs, k);
    ASSERT_TRUE(plan.feasible) << "f" << k + 1;
    EXPECT_TRUE(plan.converged) << "f" << k + 1;
    quorum_family reads, writes;
    for (const available_pair& a : plan.pairs) {
      reads.push_back(a.read_quorum);
      writes.push_back(a.write_quorum);
    }
    const double grid = grid_optimum(n, reads, writes, 0.5,
                                     std::vector<double>(n, 1.0), 8, true);
    EXPECT_LE(plan.weighted_load, grid + plan.gap + 1e-9) << "f" << k + 1;
    EXPECT_LE(plan.lower_bound, grid + 1e-9) << "f" << k + 1;
    const pattern_plan again = plan_for_pattern(fig.gqs, k);
    EXPECT_EQ(bits_of(again.weights), bits_of(plan.weights)) << "f" << k + 1;
  }
}

// ---- availability estimation ----

TEST(Availability, ExactMajorityMatchesClosedForm) {
  const quorum_family maj = two_subsets_of_three();
  availability_options options;
  options.fail_probability = 0.1;
  const availability_estimate est =
      estimate_availability(3, maj, maj, nullptr, options);
  EXPECT_TRUE(est.exact);
  // P(≥2 of 3 alive) with q = 0.1: 3·0.9²·0.1 + 0.9³ = 0.972.
  EXPECT_NEAR(est.probability, 0.972, 1e-12);
}

TEST(Availability, DirectionalRingNeedsAllProcesses) {
  // Over the directed 3-ring, the write quorum {0,1,2} is strongly
  // connected only when every process survives — availability drops from
  // the classical 0.972 to 0.9³.
  topology_params tp;
  tp.kind = topology_kind::ring;
  tp.n = 3;
  tp.bidirectional = false;
  const digraph ring = make_topology(tp);
  const quorum_family whole = {process_set{0, 1, 2}};
  const quorum_family reads = {process_set{0}, process_set{1},
                               process_set{2}};
  availability_options options;
  options.fail_probability = 0.1;
  const availability_estimate est =
      estimate_availability(3, reads, whole, &ring, options);
  EXPECT_TRUE(est.exact);
  EXPECT_NEAR(est.probability, 0.9 * 0.9 * 0.9, 1e-12);
}

TEST(Availability, PerProcessProbabilitiesAndEdgeCases) {
  const quorum_family single = {process_set{0}};
  availability_options options;
  options.fail_probabilities = {0.25, 0.9};
  const availability_estimate est =
      estimate_availability(2, single, single, nullptr, options);
  EXPECT_TRUE(est.exact);
  EXPECT_NEAR(est.probability, 0.75, 1e-12);  // only process 0 matters

  options.fail_probabilities = {0.25};  // broadcast single entry
  EXPECT_NEAR(
      estimate_availability(2, single, single, nullptr, options).probability,
      0.75, 1e-12);

  options.fail_probabilities = {0.25, 0.5, 0.5};
  EXPECT_THROW(estimate_availability(2, single, single, nullptr, options),
               std::invalid_argument);
}

TEST(Availability, MonteCarloAgreesWithExact) {
  const quorum_family maj = two_subsets_of_three();
  availability_options options;
  options.fail_probability = 0.2;
  const double exact =
      estimate_availability(3, maj, maj, nullptr, options).probability;

  options.exact_max_n = 2;  // force the sampling path at n = 3
  options.samples = 40000;
  options.seed = 7;
  const availability_estimate mc =
      estimate_availability(3, maj, maj, nullptr, options);
  EXPECT_FALSE(mc.exact);
  EXPECT_EQ(mc.trials, 40000u);
  EXPECT_NEAR(mc.probability, exact, 0.02);
  // Seeded: repeating the estimate reproduces it bit-for-bit.
  EXPECT_DOUBLE_EQ(estimate_availability(3, maj, maj, nullptr, options)
                       .probability,
                   mc.probability);
}

// ---- the runtime selector ----

TEST(Selector, DeterministicPerOperation) {
  read_write_strategy s;
  s.reads = quorum_strategy::uniform(two_subsets_of_three());
  s.writes = quorum_strategy::uniform(two_subsets_of_three());
  const quorum_selector a(s, 42), b(s, 42), c(s, 43);
  bool any_diff_seed_diverged = false;
  for (std::uint64_t op = 0; op < 200; ++op) {
    EXPECT_EQ(a.sample_write(0, op), b.sample_write(0, op));
    EXPECT_EQ(a.sample_read(2, op), b.sample_read(2, op));
    any_diff_seed_diverged |= a.sample_write(0, op) != c.sample_write(0, op);
  }
  EXPECT_TRUE(any_diff_seed_diverged);
}

TEST(Selector, EmpiricalFrequenciesTrackWeights) {
  read_write_strategy s;
  s.reads = quorum_strategy::uniform(two_subsets_of_three());
  s.writes.quorums = {process_set{0, 1}, process_set{2, 3}};
  s.writes.weights = {0.25, 0.75};
  const quorum_selector sel(s, 1);
  int first = 0;
  constexpr int kDraws = 20000;
  for (int op = 0; op < kDraws; ++op)
    if (sel.sample_write(3, static_cast<std::uint64_t>(op)) ==
        (process_set{0, 1}))
      ++first;
  EXPECT_NEAR(static_cast<double>(first) / kDraws, 0.25, 0.02);
}

// ---------- latency-aware planning ----------

TEST(LatencyPlanner, AvoidsSlowProcessesUnderLoad) {
  // Three two-of-three quorums, process 2 at a tenth of the service rate.
  // The load-only planner spreads mass evenly (minimizing unweighted max
  // load); the latency planner must starve the quorums through the slow
  // process once its queueing delay dominates.
  const quorum_family family = two_subsets_of_three();
  latency_planner_options lpo;
  lpo.read_ratio = 0.5;
  lpo.service_rates = {1.0, 1.0, 0.1};
  lpo.arrival_rate = 0.12;  // saturates process 2 if loaded evenly
  const latency_plan_result plan =
      plan_latency_optimal(3, family, family, lpo);
  ASSERT_TRUE(plan.feasible);
  // {0, 1} is the only quorum avoiding the slow process; nearly all mass
  // must sit on it in both families.
  EXPECT_LT(plan.load[2], 0.2);
  EXPECT_GT(plan.load[0], 0.8);
  EXPECT_GT(plan.load[1], 0.8);
  EXPECT_LT(plan.utilization[2], 1.0);

  // And the plan's model latency beats the load-only plan's at the same
  // throughput — the head-to-head bench_strategy gates on, in miniature.
  planner_options load_only;
  const plan_result blind = plan_optimal(3, family, family, load_only);
  const double blind_latency = expected_response_time(
      blind.strategy, 3, lpo.arrival_rate, lpo.service_rates);
  EXPECT_LT(plan.expected_latency, blind_latency);
}

TEST(LatencyPlanner, MatchesMm1ClosedFormOnSingletons) {
  // One singleton quorum per family: load is 1 at process 0, and the
  // model must reduce to the plain M/M/1 response time 1/(μ − λ).
  const quorum_family only = {process_set{0}};
  latency_planner_options lpo;
  lpo.service_rates = {2.0};
  lpo.arrival_rate = 1.0;
  const latency_plan_result plan = plan_latency_optimal(1, only, only, lpo);
  ASSERT_TRUE(plan.feasible);
  EXPECT_NEAR(plan.expected_latency, 1.0 / (2.0 - 1.0), 1e-9);
  EXPECT_NEAR(
      expected_response_time(plan.strategy, 1, 1.0, lpo.service_rates),
      1.0, 1e-9);
  // Past saturation the model reports infinity.
  EXPECT_TRUE(std::isinf(
      expected_response_time(plan.strategy, 1, 2.5, lpo.service_rates)));
}

TEST(LatencyPlanner, RejectsBadInputs) {
  const quorum_family family = two_subsets_of_three();
  latency_planner_options lpo;
  EXPECT_THROW(plan_latency_optimal(3, family, family, lpo),
               std::invalid_argument);  // missing arrival rate
  lpo.arrival_rate = 0.1;
  lpo.service_rates = {1.0, 1.0};  // wrong size (not 1, not n)
  EXPECT_THROW(plan_latency_optimal(3, family, family, lpo),
               std::invalid_argument);
  lpo.service_rates = {1.0, 1.0, -1.0};
  EXPECT_THROW(plan_latency_optimal(3, family, family, lpo),
               std::invalid_argument);
}

TEST(LatencyPlanner, ParetoSweepIsMonotoneAndDominates) {
  const quorum_family family = two_subsets_of_three();
  pareto_sweep_options opts;
  opts.service_rates = {1.0, 1.0, 0.25};
  const auto sweep = latency_pareto_sweep(3, family, family, opts);
  ASSERT_EQ(sweep.size(), opts.utilizations.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const pareto_point& pt = sweep[i];
    EXPECT_TRUE(pt.feasible) << "utilization " << pt.utilization;
    EXPECT_GT(pt.arrival_rate, 0.0);
    EXPECT_GT(pt.network_cost, 0.0);
    // The latency-aware plan never loses to the load-only plan under the
    // model (the load-only plan is itself a candidate strategy).
    EXPECT_LE(pt.expected_latency, pt.load_only_latency * (1 + 1e-9))
        << "utilization " << pt.utilization;
    pt.strategy.validate();
    if (i > 0) {
      // More load, more latency: the frontier is monotone.
      EXPECT_GE(pt.arrival_rate, sweep[i - 1].arrival_rate);
      EXPECT_GE(pt.expected_latency, sweep[i - 1].expected_latency - 1e-9);
    }
  }
  // At high utilization the heterogeneity must actually bite.
  EXPECT_LT(sweep.back().expected_latency,
            sweep.back().load_only_latency);
}

// ---------- bit-for-bit pin of the planner outputs ----------

/// FNV-1a over the bit patterns of planner outputs.
struct output_digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void word(std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  }
  void real(double x) { word(std::bit_cast<std::uint64_t>(x)); }
  void reals(const std::vector<double>& xs) {
    word(xs.size());
    for (double x : xs) real(x);
  }
  void plan(const plan_result& p) {
    reals(p.strategy.reads.weights);
    reals(p.strategy.writes.weights);
    real(p.weighted_load);
    real(p.lower_bound);
    word(static_cast<std::uint64_t>(p.iterations));
    word(p.converged);
  }
  void plan(const pattern_plan& p) {
    word(p.pairs.size());
    reals(p.weights);
    real(p.weighted_load);
    real(p.lower_bound);
    word(p.converged);
  }
  void plan(const latency_plan_result& p) {
    reals(p.strategy.reads.weights);
    reals(p.strategy.writes.weights);
    real(p.weighted_load);
    real(p.expected_latency);
    word(static_cast<std::uint64_t>(p.iterations));
  }
};

TEST(Planner, OutputsPinnedBitForBit) {
  // Every planner result below is a pure function of its inputs, so a
  // rewrite of the planner's inner loops that keeps each floating-point
  // operation and its order must reproduce these digests exactly. The
  // constants pin x86-64 SSE2 arithmetic with glibc's libm; on another
  // platform, recompute them from an unmodified planner first.
  output_digest corpus, patterns;
  // Corpus witnesses shaped like the plan-corpus benchmark's: n >= 12,
  // |F| = 16, scenario capacities and the benchmark's 10,000-round budget,
  // which column generation never comes near.
  int planned = 0;
  for (const scenario_family& family : topology_corpus(24)) {
    if (family.params.topology.n < 12) continue;
    scenario_params params = family.params;
    params.patterns = 16;
    std::mt19937_64 rng(1);
    const auto witness = find_gqs(scenario_system(params, rng));
    if (!witness) continue;
    planner_options options;
    options.capacities = process_capacities(params);
    options.max_iterations = 10000;
    corpus.plan(plan_optimal(witness->system, options));
    patterns.plan(plan_for_pattern(witness->system, 0, options));
    ++planned;
  }
  ASSERT_EQ(planned, 19);

  const auto fig = make_figure1();
  output_digest figure1;
  figure1.plan(plan_optimal(fig.gqs));
  for (const pattern_plan& p : plan_all_patterns(fig.gqs)) patterns.plan(p);

  // The plan behind the svc-n8-targeted and smr-n8-congested selectors.
  const auto threshold = threshold_quorum_system(8, 2);
  planner_options read_mostly;
  read_mostly.read_ratio = 0.9;
  output_digest targeted;
  targeted.plan(plan_optimal(threshold, read_mostly));

  // bench_strategy's congested head-to-head: two starved ingress links.
  latency_planner_options congested;
  congested.read_ratio = 0.5;
  congested.arrival_rate = 0.05;
  congested.service_rates.assign(8, 4.0);
  congested.service_rates[6] = congested.service_rates[7] = 0.02;
  output_digest latency;
  latency.plan(
      plan_latency_optimal(8, threshold.reads, threshold.writes, congested));

  // A duplicated quorum and singleton quorums in both families.
  const quorum_family reads = {process_set{0, 1}, process_set{2},
                               process_set{0, 1}, process_set{1, 3}};
  const quorum_family writes = {process_set{0, 1, 2}, process_set{3},
                                process_set{0, 1, 2}};
  planner_options skewed;
  skewed.read_ratio = 0.7;
  skewed.capacities = {1.0, 2.0, 1.0, 0.5};
  latency_planner_options edge_latency;
  edge_latency.read_ratio = 0.7;
  edge_latency.arrival_rate = 0.4;
  edge_latency.service_rates = {1.0, 2.0, 1.0, 0.5};
  output_digest edge;
  edge.plan(plan_optimal(4, reads, writes, skewed));
  edge.plan(plan_latency_optimal(4, reads, writes, edge_latency));

  EXPECT_EQ(corpus.h, 0x1cabc90aa05eef24ull) << std::hex << corpus.h;
  EXPECT_EQ(figure1.h, 0x22c5a7e7cb41beb1ull) << std::hex << figure1.h;
  EXPECT_EQ(targeted.h, 0x713c82cbce7532adull) << std::hex << targeted.h;
  EXPECT_EQ(patterns.h, 0x6aaacf6cf102d376ull) << std::hex << patterns.h;
  EXPECT_EQ(latency.h, 0x8c3c614b75e2cf41ull) << std::hex << latency.h;
  EXPECT_EQ(edge.h, 0x0cd900b156491d52ull) << std::hex << edge.h;
}

}  // namespace
}  // namespace gqs
