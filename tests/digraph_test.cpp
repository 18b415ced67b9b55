#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace gqs {
namespace {

digraph cycle(process_id n) {
  digraph g(n);
  for (process_id v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return g;
}

digraph chain(process_id n) {
  digraph g(n);
  for (process_id v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(Digraph, EmptyGraph) {
  digraph g(3);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.present(), process_set::full(3));
}

TEST(Digraph, AddRemoveEdge) {
  digraph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(Digraph, SelfLoopRejected) {
  digraph g(2);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Digraph, VertexRangeChecked) {
  digraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(g.has_edge(2, 0), std::out_of_range);
}

TEST(Digraph, CompleteGraph) {
  const digraph g = digraph::complete(4);
  EXPECT_EQ(g.edge_count(), 12);
  for (process_id u = 0; u < 4; ++u)
    for (process_id v = 0; v < 4; ++v)
      EXPECT_EQ(g.has_edge(u, v), u != v) << u << "->" << v;
}

TEST(Digraph, Neighbors) {
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 0);
  EXPECT_EQ(g.out_neighbors(0), (process_set{1, 2}));
  EXPECT_EQ(g.in_neighbors(0), process_set{3});
  EXPECT_EQ(g.in_neighbors(1), process_set{0});
  EXPECT_TRUE(g.out_neighbors(1).empty());
}

TEST(Digraph, EdgesSorted) {
  digraph g(3);
  g.add_edge(2, 0);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  const auto e = g.edges();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0], (edge{0, 1}));
  EXPECT_EQ(e[1], (edge{0, 2}));
  EXPECT_EQ(e[2], (edge{2, 0}));
}

TEST(Digraph, RemoveVerticesHidesEdges) {
  digraph g = digraph::complete(4);
  g.remove_vertices(process_set{3});
  EXPECT_EQ(g.present(), (process_set{0, 1, 2}));
  EXPECT_EQ(g.edge_count(), 6);
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(3, 0));
  EXPECT_FALSE(g.is_present(3));
}

TEST(Digraph, RemoveEdgesOf) {
  digraph g = digraph::complete(3);
  digraph cut(3);
  cut.add_edge(0, 1);
  cut.add_edge(1, 2);
  g.remove_edges_of(cut);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.edge_count(), 4);
}

TEST(Digraph, RemoveEdgesSizeMismatchThrows) {
  digraph g(3), cut(4);
  EXPECT_THROW(g.remove_edges_of(cut), std::invalid_argument);
}

TEST(Digraph, ReachabilityChain) {
  const digraph g = chain(5);
  EXPECT_EQ(g.reachable_from(0), process_set::full(5));
  EXPECT_EQ(g.reachable_from(3), (process_set{3, 4}));
  EXPECT_EQ(g.reachable_from(4), process_set{4});
  EXPECT_EQ(g.reaching(0), process_set{0});
  EXPECT_EQ(g.reaching(4), process_set::full(5));
}

TEST(Digraph, ReachabilityCycle) {
  const digraph g = cycle(4);
  for (process_id v = 0; v < 4; ++v) {
    EXPECT_EQ(g.reachable_from(v), process_set::full(4));
    EXPECT_EQ(g.reaching(v), process_set::full(4));
  }
}

TEST(Digraph, ReachabilityRespectsAbsentVertices) {
  digraph g = cycle(4);  // 0→1→2→3→0
  g.remove_vertices(process_set{2});
  EXPECT_EQ(g.reachable_from(0), (process_set{0, 1}));
  EXPECT_EQ(g.reachable_from(3), (process_set{3, 0, 1}));
  EXPECT_TRUE(g.reachable_from(2).empty());
}

TEST(Digraph, ReachesAll) {
  const digraph g = chain(4);
  EXPECT_TRUE(g.reaches_all(0, process_set{2, 3}));
  EXPECT_FALSE(g.reaches_all(2, process_set{0}));
  EXPECT_TRUE(g.reaches_all(2, process_set{}));  // vacuous
}

TEST(Digraph, ReachToAll) {
  // 0→1→2, 3→1. reach_to_all({1,2}) = {0,1,3}? 1 reaches 2 and itself;
  // 3 reaches 1 and 2; 2 reaches only itself.
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 1);
  EXPECT_EQ(g.reach_to_all(process_set{1, 2}), (process_set{0, 1, 3}));
  EXPECT_EQ(g.reach_to_all(process_set{2}), process_set::full(4));
}

TEST(Digraph, SccsOfCycle) {
  const auto comps = cycle(5).sccs();
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0], process_set::full(5));
}

TEST(Digraph, SccsOfChainAreSingletons) {
  const auto comps = chain(4).sccs();
  EXPECT_EQ(comps.size(), 4u);
  for (const auto& c : comps) EXPECT_EQ(c.size(), 1);
}

TEST(Digraph, SccsTwoComponents) {
  // {0,1} cycle and {2,3} cycle with a one-way bridge 1→2.
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  g.add_edge(1, 2);
  auto comps = g.sccs();
  ASSERT_EQ(comps.size(), 2u);
  std::sort(comps.begin(), comps.end());
  EXPECT_EQ(comps[0], (process_set{0, 1}));
  EXPECT_EQ(comps[1], (process_set{2, 3}));
}

TEST(Digraph, SccsReverseTopologicalOrder) {
  // Tarjan emits components in reverse topological order: sinks first.
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  const auto comps = g.sccs();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (process_set{2, 3}));  // sink component first
  EXPECT_EQ(comps[1], (process_set{0, 1}));
}

TEST(Digraph, SccOf) {
  digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.scc_of(1), (process_set{0, 1, 2}));
  EXPECT_EQ(g.scc_of(3), process_set{3});
  EXPECT_EQ(g.scc_of(4), process_set{4});
}

TEST(Digraph, SccOfAbsentVertexThrows) {
  digraph g(3);
  g.remove_vertices(process_set{1});
  EXPECT_THROW(g.scc_of(1), std::invalid_argument);
}

TEST(Digraph, StronglyConnectsViaOutsideVertex) {
  // 0→2→1 and 1→0: {0,1} is strongly connected *through* vertex 2.
  digraph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(1, 0);
  EXPECT_TRUE(g.strongly_connects(process_set{0, 1}));
  EXPECT_TRUE(g.strongly_connects(process_set{0, 1, 2}));
}

TEST(Digraph, StronglyConnectsTrivialCases) {
  digraph g(3);
  EXPECT_TRUE(g.strongly_connects(process_set{}));
  EXPECT_TRUE(g.strongly_connects(process_set{1}));
  EXPECT_FALSE(g.strongly_connects(process_set{0, 1}));
}

TEST(Digraph, StronglyConnectsFailsForAbsent) {
  digraph g = cycle(3);
  g.remove_vertices(process_set{1});
  EXPECT_FALSE(g.strongly_connects(process_set{0, 1}));
}

TEST(Digraph, TransitiveClosure) {
  const digraph closure = chain(4).transitive_closure();
  EXPECT_TRUE(closure.has_edge(0, 3));
  EXPECT_TRUE(closure.has_edge(0, 1));
  EXPECT_TRUE(closure.has_edge(1, 3));
  EXPECT_FALSE(closure.has_edge(3, 0));
  EXPECT_EQ(closure.edge_count(), 6);  // all forward pairs
}

TEST(Digraph, TransitiveClosureOfCycleIsComplete) {
  const digraph closure = cycle(4).transitive_closure();
  EXPECT_EQ(closure.edge_count(), 12);
}

TEST(Digraph, AbsentVertexHasNoNeighbors) {
  digraph g = digraph::complete(3);
  g.remove_vertices(process_set{1});
  EXPECT_TRUE(g.out_neighbors(1).empty());
  EXPECT_TRUE(g.in_neighbors(1).empty());
  EXPECT_TRUE(g.reachable_from(1).empty());
  EXPECT_TRUE(g.reaching(1).empty());
  // Present vertices no longer see 1.
  EXPECT_EQ(g.out_neighbors(0), process_set{2});
  EXPECT_EQ(g.in_neighbors(2), process_set{0});
}

TEST(Digraph, EdgesExcludeAbsentEndpoints) {
  digraph g = digraph::complete(3);
  g.remove_vertices(process_set{2});
  const auto e = g.edges();
  ASSERT_EQ(e.size(), 2u);
  for (const edge& ed : e) {
    EXPECT_NE(ed.from, 2u);
    EXPECT_NE(ed.to, 2u);
  }
}

TEST(Digraph, ReachToAllOfEmptySetIsEveryone) {
  const digraph g = chain(3);
  EXPECT_EQ(g.reach_to_all({}), process_set::full(3));  // vacuous truth
}

TEST(Digraph, DotOutputContainsEdges) {
  digraph g(2);
  g.add_edge(0, 1);
  const std::string dot = g.to_dot({"a", "b"});
  EXPECT_NE(dot.find("a -> b"), std::string::npos);
}

std::vector<process_set> random_rows(process_id n, double density,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution edge_flip(density);
  std::vector<process_set> rows(n);
  for (process_id u = 0; u < n; ++u)
    for (process_id v = 0; v < n; ++v)
      if (u != v && edge_flip(rng)) rows[u].insert(v);
  return rows;
}

TEST(Digraph, FromRowsMatchesAddEdge) {
  for (process_id n : {1u, 63u, 64u, 65u, 128u, 255u, 256u}) {
    const std::vector<process_set> rows = random_rows(n, 0.3, n);
    digraph expected(n);
    for (process_id u = 0; u < n; ++u)
      for (process_id v : rows[u]) expected.add_edge(u, v);
    // operator== compares the transposed in-rows too.
    EXPECT_EQ(digraph::from_rows(rows), expected) << "n " << n;
  }
}

TEST(Digraph, FromRowsRejectsWhatAddEdgeRejects) {
  std::vector<process_set> loop(3);
  loop[1].insert(1);
  EXPECT_THROW(digraph::from_rows(loop), std::invalid_argument);
  EXPECT_THROW(digraph(3).add_edge(1, 1), std::invalid_argument);

  std::vector<process_set> outside(3);
  outside[0].insert(3);
  EXPECT_THROW(digraph::from_rows(outside), std::out_of_range);
  EXPECT_THROW(digraph(3).add_edge(0, 3), std::out_of_range);

  EXPECT_THROW(digraph::from_rows(std::vector<process_set>(
                   process_set::max_processes + 1)),
               std::out_of_range);
}

TEST(Digraph, TransitiveClosureOfRandom200VertexGraph) {
  // Sparse enough that reachability stays partial; some vertices absent.
  const process_id n = 200;
  digraph g = digraph::from_rows(random_rows(n, 0.006, 200));
  g.remove_vertices(process_set{3, 64, 130, 199});
  digraph expected(n);
  expected.remove_vertices(process_set{3, 64, 130, 199});
  for (process_id v : g.present())
    for (process_id w : g.reachable_from(v))
      if (w != v) expected.add_edge(v, w);
  EXPECT_EQ(g.transitive_closure(), expected);
}

// Property sweep: SCCs of random graphs partition the present vertices and
// each component is indeed strongly connected; scc_of agrees with sccs().
class DigraphRandomSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DigraphRandomSweep, SccPartitionProperties) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> nd(2, 12);
  std::bernoulli_distribution ed(0.25);
  for (int trial = 0; trial < 20; ++trial) {
    const process_id n = static_cast<process_id>(nd(rng));
    digraph g(n);
    for (process_id u = 0; u < n; ++u)
      for (process_id v = 0; v < n; ++v)
        if (u != v && ed(rng)) g.add_edge(u, v);

    const auto comps = g.sccs();
    process_set covered;
    for (const auto& c : comps) {
      EXPECT_FALSE(c.empty());
      EXPECT_FALSE(covered.intersects(c)) << "components must be disjoint";
      covered |= c;
      EXPECT_TRUE(g.strongly_connects(c));
      for (process_id v : c) EXPECT_EQ(g.scc_of(v), c);
    }
    EXPECT_EQ(covered, g.present());
  }
}

// in_neighbors is answered from a reverse adjacency mask maintained in
// lockstep with the forward one; brute force over out_neighbors must agree
// after any interleaving of add/remove/bulk operations.
TEST_P(DigraphRandomSweep, ReverseAdjacencyMatchesBruteForce) {
  std::mt19937_64 rng(GetParam() + 5000);
  std::bernoulli_distribution ed(0.3), rm(0.2);
  const process_id n = 9;
  digraph g(n);
  auto check = [&](const char* stage) {
    for (process_id v = 0; v < n; ++v) {
      process_set brute;
      for (process_id u : g.present())
        if (g.has_edge(u, v)) brute.insert(u);
      EXPECT_EQ(g.in_neighbors(v), brute) << stage << ", v=" << v;
      // reaching() also rides the reverse masks: cross-check it.
      if (g.is_present(v)) {
        process_set reaching_brute;
        for (process_id u : g.present())
          if (g.reachable_from(u).contains(v)) reaching_brute.insert(u);
        EXPECT_EQ(g.reaching(v), reaching_brute) << stage << ", v=" << v;
      }
    }
  };

  for (process_id u = 0; u < n; ++u)
    for (process_id v = 0; v < n; ++v)
      if (u != v && ed(rng)) g.add_edge(u, v);
  check("after adds");

  for (process_id u = 0; u < n; ++u)
    for (process_id v = 0; v < n; ++v)
      if (u != v && rm(rng)) g.remove_edge(u, v);
  check("after removes");

  digraph cut(n);
  for (process_id u = 0; u < n; ++u)
    for (process_id v = 0; v < n; ++v)
      if (u != v && rm(rng)) cut.add_edge(u, v);
  g.remove_edges_of(cut);
  check("after remove_edges_of");

  g.remove_vertices(process_set{1, 4});
  check("after remove_vertices");

  const digraph closure = g.transitive_closure();
  for (process_id v = 0; v < n; ++v) {
    if (!closure.is_present(v)) continue;
    process_set brute;
    for (process_id u : closure.present())
      if (closure.has_edge(u, v)) brute.insert(u);
    EXPECT_EQ(closure.in_neighbors(v), brute) << "closure, v=" << v;
  }
}

TEST(Digraph, InNeighborsCompleteGraph) {
  const digraph g = digraph::complete(5);
  for (process_id v = 0; v < 5; ++v) {
    process_set expected = process_set::full(5);
    expected.erase(v);
    EXPECT_EQ(g.in_neighbors(v), expected);
  }
}

TEST_P(DigraphRandomSweep, ClosureMatchesReachability) {
  std::mt19937_64 rng(GetParam() + 1000);
  std::bernoulli_distribution ed(0.3);
  const process_id n = 8;
  digraph g(n);
  for (process_id u = 0; u < n; ++u)
    for (process_id v = 0; v < n; ++v)
      if (u != v && ed(rng)) g.add_edge(u, v);
  const digraph closure = g.transitive_closure();
  for (process_id u = 0; u < n; ++u) {
    process_set reach = g.reachable_from(u);
    reach.erase(u);
    EXPECT_EQ(closure.out_neighbors(u), reach);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigraphRandomSweep,
                         ::testing::Range(0u, 8u));

}  // namespace
}  // namespace gqs
