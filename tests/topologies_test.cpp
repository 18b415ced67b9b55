// topologies_test — shapes of the scenario-corpus topologies and the
// failure families drawn over them.
#include "workload/topologies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/random_systems.hpp"

namespace gqs {
namespace {

topology_params make_params(topology_kind kind, process_id n) {
  topology_params p;
  p.kind = kind;
  p.n = n;
  return p;
}

TEST(Topologies, DirectedRingIsOneCycle) {
  auto p = make_params(topology_kind::ring, 6);
  p.bidirectional = false;
  const digraph g = make_topology(p);
  EXPECT_EQ(g.edge_count(), 6);
  for (process_id v = 0; v < 6; ++v) {
    EXPECT_EQ(g.out_neighbors(v), process_set::singleton((v + 1) % 6));
  }
  // A directed cycle is strongly connected...
  EXPECT_EQ(g.sccs().size(), 1u);
  // ...but removing one edge fractures it into singletons — the shape the
  // solver corpus leans on.
  digraph broken = g;
  broken.remove_edge(0, 1);
  EXPECT_EQ(broken.sccs().size(), 6u);
}

TEST(Topologies, BidirectionalRingHasBothDirections) {
  const digraph g = make_topology(make_params(topology_kind::ring, 5));
  EXPECT_EQ(g.edge_count(), 10);
  for (process_id v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.has_edge(v, (v + 1) % 5));
    EXPECT_TRUE(g.has_edge((v + 1) % 5, v));
  }
}

TEST(Topologies, CliqueIsComplete) {
  const digraph g = make_topology(make_params(topology_kind::clique, 7));
  EXPECT_EQ(g, digraph::complete(7));
}

TEST(Topologies, GridNineIsThreeByThree) {
  const digraph g = make_topology(make_params(topology_kind::grid, 9));
  EXPECT_EQ(g.edge_count(), 24);  // 12 undirected mesh edges
  // Corner, edge and center degrees.
  EXPECT_EQ(g.out_neighbors(0).size(), 2);  // corner
  EXPECT_EQ(g.out_neighbors(1).size(), 3);  // edge midpoint
  EXPECT_EQ(g.out_neighbors(4).size(), 4);  // center
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 4));  // no diagonals
  EXPECT_EQ(g.sccs().size(), 1u);
}

TEST(Topologies, GridHandlesNonSquareCounts) {
  // n = 7 → 2 rows × 4 cols with one missing cell; still connected.
  const digraph g = make_topology(make_params(topology_kind::grid, 7));
  EXPECT_EQ(g.sccs().size(), 1u);
}

TEST(Topologies, StarRoutesThroughHub) {
  const digraph g = make_topology(make_params(topology_kind::star, 6));
  EXPECT_EQ(g.out_neighbors(0).size(), 5);
  for (process_id v = 1; v < 6; ++v) {
    EXPECT_EQ(g.out_neighbors(v), process_set::singleton(0));
    EXPECT_TRUE(g.has_edge(0, v));
  }
  EXPECT_EQ(g.sccs().size(), 1u);
}

TEST(Topologies, ClustersAreCliquesLinkedByHeads) {
  auto p = make_params(topology_kind::clusters, 8);
  p.cluster_size = 4;
  const digraph g = make_topology(p);
  // Intra-cluster cliques.
  for (process_id u = 0; u < 4; ++u)
    for (process_id v = 0; v < 4; ++v) {
      if (u == v) continue;
      EXPECT_TRUE(g.has_edge(u, v));
    }
  for (process_id u = 4; u < 8; ++u)
    for (process_id v = 4; v < 8; ++v) {
      if (u == v) continue;
      EXPECT_TRUE(g.has_edge(u, v));
    }
  // Heads 0 and 4 are linked; non-heads across clusters are not.
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(4, 0));
  EXPECT_FALSE(g.has_edge(1, 5));
  EXPECT_EQ(g.sccs().size(), 1u);
}

TEST(Topologies, GeometricIsSeedDeterministicAndSymmetric) {
  auto p = make_params(topology_kind::geometric, 10);
  p.radius = 0.5;
  p.placement_seed = 42;
  const digraph a = make_topology(p);
  const digraph b = make_topology(p);
  EXPECT_EQ(a, b);
  for (const edge& e : a.edges()) EXPECT_TRUE(a.has_edge(e.to, e.from));
  // Radius √2 covers the unit square → complete; radius 0 → edgeless.
  p.radius = 1.5;
  EXPECT_EQ(make_topology(p), digraph::complete(10));
  p.radius = 0.0;
  EXPECT_EQ(make_topology(p).edge_count(), 0);
}

TEST(Topologies, RejectsBadParameters) {
  EXPECT_THROW(make_topology(make_params(topology_kind::ring, 0)),
               std::invalid_argument);
  EXPECT_THROW(make_topology(make_params(topology_kind::ring, 257)),
               std::invalid_argument);
  auto p = make_params(topology_kind::clusters, 8);
  p.cluster_size = 0;
  EXPECT_THROW(make_topology(p), std::invalid_argument);
  EXPECT_THROW(topology_corpus(3), std::invalid_argument);
}

TEST(Scenarios, PatternRealizesTopologyAsResidual) {
  scenario_params sp;
  sp.topology = make_params(topology_kind::ring, 8);
  sp.channel_fail_probability = 0.0;  // only the topology restriction
  sp.crash_probability = 0.3;
  const digraph network = make_topology(sp.topology);
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const failure_pattern f = scenario_failure_pattern(network, sp, rng);
    EXPECT_FALSE(f.correct().empty());
    const digraph residual = f.residual();
    // Residual = topology restricted to correct processes, exactly.
    for (process_id u : f.correct())
      for (process_id v : f.correct()) {
        if (u == v) continue;
        EXPECT_EQ(residual.has_edge(u, v), network.has_edge(u, v))
            << "(" << u << "," << v << ") trial " << trial;
      }
  }
}

TEST(Scenarios, ExtraChannelFailuresOnlyBreakTopologyEdges) {
  scenario_params sp;
  sp.topology = make_params(topology_kind::star, 8);
  sp.channel_fail_probability = 0.5;
  sp.crash_probability = 0.0;
  const digraph network = make_topology(sp.topology);
  std::mt19937_64 rng(11);
  const failure_pattern f = scenario_failure_pattern(network, sp, rng);
  const digraph residual = f.residual();
  for (const edge& e : residual.edges())
    EXPECT_TRUE(network.has_edge(e.from, e.to));
}

TEST(Scenarios, SystemHasRequestedShape) {
  scenario_params sp;
  sp.topology = make_params(topology_kind::grid, 9);
  sp.patterns = 5;
  std::mt19937_64 rng(3);
  const fail_prone_system fps = scenario_system(sp, rng);
  EXPECT_EQ(fps.system_size(), 9u);
  EXPECT_EQ(fps.size(), 5u);
}

// The generators as edge lists, one edge per faulty ordered pair: the
// oracle the row-built patterns must match pattern for pattern and draw
// for draw.
fail_prone_system reference_scenario_system(const scenario_params& params,
                                            std::mt19937_64& rng) {
  const digraph network = make_topology(params.topology);
  const process_id n = network.vertex_count();
  fail_prone_system fps(n);
  for (int i = 0; i < params.patterns; ++i) {
    std::bernoulli_distribution crash(params.crash_probability);
    std::bernoulli_distribution chan(params.channel_fail_probability);
    process_set crashed;
    for (process_id p = 0; p < n; ++p)
      if (crash(rng)) crashed.insert(p);
    if (params.keep_one_correct && crashed == process_set::full(n)) {
      std::uniform_int_distribution<process_id> pick(0, n - 1);
      crashed.erase(pick(rng));
    }
    const process_set correct = crashed.complement_in(n);
    std::vector<edge> faulty;
    for (process_id u : correct)
      for (process_id v : correct) {
        if (u == v) continue;
        if (!network.has_edge(u, v))
          faulty.push_back({u, v});
        else if (chan(rng))
          faulty.push_back({u, v});
      }
    fps.add(failure_pattern(n, crashed, faulty));
  }
  return fps;
}

fail_prone_system reference_random_system(const random_system_params& params,
                                          std::mt19937_64& rng) {
  fail_prone_system fps(params.n);
  for (int i = 0; i < params.patterns; ++i) {
    std::bernoulli_distribution crash(params.crash_probability);
    std::bernoulli_distribution chan(params.channel_fail_probability);
    process_set crashed;
    for (process_id p = 0; p < params.n; ++p)
      if (crash(rng)) crashed.insert(p);
    if (params.keep_one_correct && crashed == process_set::full(params.n)) {
      std::uniform_int_distribution<process_id> pick(0, params.n - 1);
      crashed.erase(pick(rng));
    }
    const process_set correct = crashed.complement_in(params.n);
    std::vector<edge> faulty;
    for (process_id u : correct)
      for (process_id v : correct)
        if (u != v && chan(rng)) faulty.push_back({u, v});
    fps.add(failure_pattern(params.n, crashed, faulty));
  }
  return fps;
}

TEST(Scenarios, RowsMatchEdgeListReference) {
  // operator== compares every pattern's rows of C in both directions; the
  // next draw of the two rngs agreeing shows the draw count is unchanged.
  for (const scenario_family& family : topology_corpus(256))
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      std::mt19937_64 rows_rng(seed), ref_rng(seed);
      EXPECT_EQ(scenario_system(family.params, rows_rng),
                reference_scenario_system(family.params, ref_rng))
          << family.name << " seed " << seed;
      EXPECT_EQ(rows_rng(), ref_rng()) << family.name << " seed " << seed;
    }
  for (process_id n : {1u, 2u, 63u, 64u, 65u, 200u, 256u})
    for (double chan_p : {0.0, 0.3, 1.0}) {
      random_system_params params;
      params.n = n;
      params.channel_fail_probability = chan_p;
      std::mt19937_64 rows_rng(n), ref_rng(n);
      EXPECT_EQ(random_fail_prone_system(params, rows_rng),
                reference_random_system(params, ref_rng))
          << "n " << n << " p " << chan_p;
      EXPECT_EQ(rows_rng(), ref_rng()) << "n " << n << " p " << chan_p;
    }
}

TEST(Corpus, NamesUniqueSizesBoundedAllKindsPresent) {
  const auto corpus = topology_corpus(64);
  ASSERT_FALSE(corpus.empty());
  std::set<std::string> names;
  std::set<std::string> kinds;
  for (const scenario_family& family : corpus) {
    EXPECT_TRUE(names.insert(family.name).second)
        << "duplicate name " << family.name;
    EXPECT_LE(family.params.topology.n, 64u);
    EXPECT_GE(family.params.topology.n, 4u);
    kinds.insert(to_string(family.params.topology.kind));
  }
  EXPECT_EQ(kinds.size(), 6u) << "every topology kind must appear";
  // Shrinking the bound shrinks the corpus but never empties it.
  const auto small = topology_corpus(4);
  EXPECT_FALSE(small.empty());
  EXPECT_LT(small.size(), corpus.size());
  for (const scenario_family& family : small)
    EXPECT_LE(family.params.topology.n, 4u);
}

TEST(Capacities, ProfilesRealizeExpectedShapes) {
  scenario_params sp;
  sp.topology = make_params(topology_kind::star, 5);

  sp.capacities = {capacity_profile::uniform, 1.0, 3.0};
  EXPECT_EQ(process_capacities(sp), (std::vector<double>{3, 3, 3, 3, 3}));

  sp.capacities = {capacity_profile::hub_heavy, 0.5, 2.0};
  EXPECT_EQ(process_capacities(sp),
            (std::vector<double>{2, 0.5, 0.5, 0.5, 0.5}));

  sp.capacities = {capacity_profile::linear, 1.0, 3.0};
  const std::vector<double> ramp = process_capacities(sp);
  ASSERT_EQ(ramp.size(), 5u);
  EXPECT_DOUBLE_EQ(ramp.front(), 1.0);
  EXPECT_DOUBLE_EQ(ramp.back(), 3.0);
  for (std::size_t p = 1; p < ramp.size(); ++p)
    EXPECT_GT(ramp[p], ramp[p - 1]);

  sp.capacities = {capacity_profile::linear, 0.0, 3.0};
  EXPECT_THROW(process_capacities(sp), std::invalid_argument);
}

TEST(Capacities, CorpusAttachesHeterogeneousVectors) {
  bool heterogeneous_seen = false;
  for (const scenario_family& family : topology_corpus(12)) {
    const std::vector<double> caps = process_capacities(family.params);
    ASSERT_EQ(caps.size(), family.params.topology.n) << family.name;
    for (double c : caps) EXPECT_GT(c, 0.0) << family.name;
    // Deterministic: realizing twice gives the same vector.
    EXPECT_EQ(caps, process_capacities(family.params)) << family.name;
    double lo = caps.front(), hi = caps.front();
    for (double c : caps) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    if (hi > lo) heterogeneous_seen = true;
    // The topologies the corpus marks heterogeneous really are.
    if (family.params.topology.kind == topology_kind::star ||
        family.params.topology.kind == topology_kind::clusters ||
        family.params.topology.kind == topology_kind::geometric) {
      EXPECT_GT(hi, lo) << family.name;
    }
  }
  EXPECT_TRUE(heterogeneous_seen);
}

TEST(Corpus, EveryFamilyProducesValidSystems) {
  for (const scenario_family& family : topology_corpus(8)) {
    std::mt19937_64 rng(1);
    const fail_prone_system fps = scenario_system(family.params, rng);
    EXPECT_EQ(fps.size(), static_cast<std::size_t>(family.params.patterns))
        << family.name;
    for (const failure_pattern& f : fps)
      EXPECT_FALSE(f.correct().empty()) << family.name;
  }
}

}  // namespace
}  // namespace gqs
