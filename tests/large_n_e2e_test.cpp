// End-to-end coverage at n = 256 — four times the old single-word
// process_set ceiling. The existence solver, the strategy planner and the
// discrete-event simulator each run a 256-process structured scenario:
//
//   * find_gqs decides the 256-pattern single-crash system and returns a
//     valid witness (the solver's tables, domains and compatibility rows
//     are all multi-word sets here);
//   * the planner's measured system load for the structured constructions
//     obeys the documented c/√n bounds (grid c = 2, tree c = 2.5,
//     hierarchical clusters c = 3.5 — see core/factories.hpp);
//   * a grid-quorum keyed-register service runs a write/read round trip
//     over the 256-process simulated network and the read observes the
//     write.
#include <gtest/gtest.h>

#include <cmath>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "lincheck/wing_gong.hpp"
#include "quorum/quorum_service.hpp"
#include "register/keyed_register.hpp"
#include "register/keyed_register_client.hpp"
#include "workload/worlds.hpp"
#include "strategy/planner.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

constexpr process_id kBigN = 256;

TEST(LargeN, FindGqsDecides256ProcessSingleCrashSystem) {
  const auto fps = single_crash_fail_prone_system(kBigN);
  const auto witness = find_gqs(fps);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->system.system_size(), kBigN);
  EXPECT_TRUE(check_generalized(witness->system).ok);
  // Every residual is the complete graph on 255 correct processes, so the
  // chosen write quorum for pattern p is everyone but p.
  for (process_id p = 0; p < kBigN; ++p)
    EXPECT_EQ(witness->chosen_writes[p],
              process_set::singleton(p).complement_in(kBigN));
}

struct load_bound_case {
  const char* name;
  generalized_quorum_system (*make)(process_id);
  double c;  // documented constant: system load ≤ c/√n
};

TEST(LargeN, PlannerLoadMatchesDocumentedSqrtBounds) {
  const load_bound_case cases[] = {
      {"grid", grid_quorum_system, 2.0},
      {"tree", tree_quorum_system, 2.5},
      {"hierarchical", hierarchical_quorum_system, 3.5},
  };
  planner_options opts;
  opts.tolerance = 5e-3;
  for (const auto& c : cases) {
    for (process_id n : {16u, 64u, 144u, 256u}) {
      const auto qs = c.make(n);
      const auto plan = plan_optimal(qs, opts);
      const double bound = c.c / std::sqrt(static_cast<double>(n));
      EXPECT_LE(plan.system_load, bound)
          << c.name << " n=" << n << " load=" << plan.system_load;
      // And the bound is not vacuous: the optimum really is Θ(1/√n), not
      // Θ(1/n) — the certified lower bound stays above 1/(2n^0.63)
      // (n^-0.63 is the tree construction's asymptotic load exponent, the
      // smallest in the family).
      EXPECT_GE(plan.weighted_load,
                0.5 * std::pow(static_cast<double>(n), -0.63))
          << c.name << " n=" << n;
    }
  }
}

TEST(LargeN, GridAt256BeatsMajorityThresholdLoad) {
  // The analytic majority-threshold load is (⌊n/2⌋+1)/n ≈ 1/2 (threshold
  // families cannot be enumerated at n = 256, so the comparison point is
  // closed-form). The grid's measured load must be an order of magnitude
  // below it.
  const auto plan = plan_optimal(grid_quorum_system(kBigN));
  const double majority_load =
      (std::floor(kBigN / 2.0) + 1.0) / static_cast<double>(kBigN);
  EXPECT_LT(plan.system_load, majority_load / 5.0);
}

TEST(LargeN, GridQuorumServiceRoundTripAt256) {
  const auto qs = grid_quorum_system(kBigN);
  // Physical network: a hub-and-spoke star, not the complete graph, so
  // every broadcast relays over two hops (~2n sends). Channels outside the
  // star are down from t = 0, which also exercises the epoch/reachability
  // tables at full 256-process width.
  const digraph star = make_topology({topology_kind::star, kBigN});
  fault_plan faults(kBigN);
  for (process_id u = 0; u < kBigN; ++u)
    for (process_id v = 0; v < kBigN; ++v)
      if (u != v && !star.has_edge(u, v)) faults.disconnect(u, v, 0);
  world<keyed_register_node> w(kBigN, std::move(faults), /*seed=*/7, {},
                               /*keys=*/4, quorum_config::of(qs),
                               service_options{});
  simulation& sim = w.sim;
  keyed_register_client<keyed_register_node> client(sim, w.nodes);

  constexpr sim_time kLong = 600L * 1000 * 1000;
  auto settle = [&] {
    return sim.run_until_condition([&] { return client.all_complete(); },
                                   sim.now() + kLong);
  };

  client.invoke_write(/*process=*/0, /*key=*/2, /*value=*/4242);
  ASSERT_TRUE(settle());
  const auto ri = client.invoke_read(/*process=*/255, /*key=*/2);
  ASSERT_TRUE(settle());
  EXPECT_EQ(client.history().at(ri).op.value, 4242);
  const auto lin = check_linearizable(client.history_of(2));
  EXPECT_TRUE(lin.linearizable) << lin.reason;
}

}  // namespace
}  // namespace gqs
