#include "core/failure_pattern.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/factories.hpp"
#include "core/pattern_table.hpp"
#include "core/random_systems.hpp"

namespace gqs {
namespace {

TEST(FailurePattern, NothingFails) {
  failure_pattern f(3);
  EXPECT_TRUE(f.crashable().empty());
  EXPECT_EQ(f.correct(), process_set::full(3));
  EXPECT_EQ(f.faulty_channels().edge_count(), 0);
  EXPECT_EQ(f.residual(), digraph::complete(3));
}

TEST(FailurePattern, EmptySystemRejected) {
  EXPECT_THROW(failure_pattern(0), std::invalid_argument);
  EXPECT_THROW(failure_pattern(0, {}, {}), std::invalid_argument);
}

TEST(FailurePattern, CrashOnly) {
  failure_pattern f(4, process_set{3}, {});
  EXPECT_EQ(f.crashable(), process_set{3});
  EXPECT_EQ(f.correct(), (process_set{0, 1, 2}));
  const digraph g = f.residual();
  EXPECT_EQ(g.present(), (process_set{0, 1, 2}));
  EXPECT_EQ(g.edge_count(), 6);
}

TEST(FailurePattern, ChannelOnly) {
  failure_pattern f(3, {}, {{0, 1}});
  EXPECT_TRUE(f.channel_may_fail(0, 1));
  EXPECT_FALSE(f.channel_may_fail(1, 0));
  EXPECT_FALSE(f.channel_reliable(0, 1));
  EXPECT_TRUE(f.channel_reliable(1, 0));
  const digraph g = f.residual();
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(FailurePattern, ChannelIncidentToFaultyProcessRejected) {
  // The paper requires C to contain only channels between correct
  // processes.
  EXPECT_THROW(failure_pattern(3, process_set{0}, {{0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(failure_pattern(3, process_set{1}, {{0, 1}}),
               std::invalid_argument);
}

TEST(FailurePattern, SelfLoopChannelRejected) {
  EXPECT_THROW(failure_pattern(3, {}, {{1, 1}}), std::invalid_argument);
}

TEST(FailurePattern, ChannelOutsideSystemRejected) {
  EXPECT_THROW(failure_pattern(3, {}, {{0, 3}}), std::invalid_argument);
}

TEST(FailurePattern, CrashablesOutsideSystemRejected) {
  EXPECT_THROW(failure_pattern(3, process_set{5}, {}), std::invalid_argument);
}

// The invalid_argument message a construction throws ("accepted" if none).
template <typename Make>
std::string rejection(Make&& make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

std::vector<process_set> rows_with(process_id n, edge e) {
  std::vector<process_set> rows(n);
  rows[e.from].insert(e.to);
  return rows;
}

TEST(FailurePattern, FromRowsRejectsWithEdgeListMessages) {
  struct bad_channel {
    process_set crashed;
    edge channel;
  };
  for (const bad_channel& bad : {bad_channel{process_set{0}, {0, 1}},
                                 bad_channel{process_set{1}, {0, 1}},
                                 bad_channel{{}, {1, 1}},
                                 bad_channel{{}, {0, 3}}}) {
    const std::string from_edges = rejection(
        [&] { failure_pattern(3, bad.crashed, {bad.channel}); });
    EXPECT_NE(from_edges, "accepted");
    EXPECT_EQ(rejection([&] {
                failure_pattern::from_rows(3, bad.crashed,
                                           rows_with(3, bad.channel));
              }),
              from_edges);
  }
  EXPECT_NE(rejection([] {
              failure_pattern::from_rows(3, {}, std::vector<process_set>(2));
            }),
            "accepted");
}

TEST(FailurePattern, RowAndEdgeListConstructorsAgree) {
  std::mt19937_64 rng(17);
  std::bernoulli_distribution flip(0.3);
  const process_id n = 70;
  const process_set crashed{2, 63, 64};
  std::vector<edge> channels;
  std::vector<process_set> rows(n);
  for (process_id u : crashed.complement_in(n))
    for (process_id v : crashed.complement_in(n))
      if (u != v && flip(rng)) {
        channels.push_back({u, v});
        rows[u].insert(v);
      }
  EXPECT_EQ(failure_pattern::from_rows(n, crashed, rows),
            failure_pattern(n, crashed, channels));
  EXPECT_EQ(failure_pattern::from_rows(n, crashed, std::vector<process_set>(n)),
            failure_pattern(n, crashed, {}));
}

TEST(FailurePattern, ChannelReliabilityRequiresCorrectEndpoints) {
  failure_pattern f(3, process_set{2}, {});
  EXPECT_FALSE(f.channel_reliable(0, 2));
  EXPECT_FALSE(f.channel_reliable(2, 0));
  EXPECT_TRUE(f.channel_reliable(0, 1));
}

TEST(FailurePattern, ResidualOfCustomNetwork) {
  digraph network(3);
  network.add_edge(0, 1);
  network.add_edge(1, 2);
  failure_pattern f(3, {}, {{1, 2}});
  const digraph g = f.residual_of(network);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(FailurePattern, ResidualNetworkSizeMismatch) {
  failure_pattern f(3);
  EXPECT_THROW(f.residual_of(digraph::complete(4)), std::invalid_argument);
}

TEST(FailurePattern, ToStringNames) {
  failure_pattern f(4, process_set{3}, {{0, 1}});
  const std::string s = f.to_string({"a", "b", "c", "d"});
  EXPECT_NE(s.find("d"), std::string::npos);
  EXPECT_NE(s.find("(a,b)"), std::string::npos);
}

TEST(FailProneSystem, AddAndIterate) {
  fail_prone_system fps(3);
  EXPECT_TRUE(fps.empty());
  fps.add(failure_pattern(3, process_set{0}, {}));
  fps.add(failure_pattern(3, process_set{1}, {}));
  EXPECT_EQ(fps.size(), 2u);
  int count = 0;
  for (const failure_pattern& f : fps) {
    EXPECT_EQ(f.system_size(), 3u);
    ++count;
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(fps[0].crashable(), process_set{0});
}

TEST(FailurePattern, TableCompiledOnFirstQueryAndSharedByCopies) {
  const failure_pattern f(4, process_set{3}, {{0, 1}});
  const failure_pattern copy = f;  // taken before any query
  EXPECT_FALSE(f.table_compiled());
  EXPECT_FALSE(copy.table_compiled());

  const pattern_table& t = copy.table();
  EXPECT_TRUE(f.table_compiled());
  EXPECT_EQ(&f.table(), &t);
  const failure_pattern later = f;  // taken after the query
  EXPECT_EQ(&later.table(), &t);
  EXPECT_EQ(t.correct, (process_set{0, 1, 2}));

  // An equal pattern built on its own has its own, uncompiled table, and
  // still compares equal: the table is not part of the pattern's value.
  const failure_pattern twin(4, process_set{3}, {{0, 1}});
  EXPECT_FALSE(twin.table_compiled());
  EXPECT_EQ(twin, f);
  EXPECT_EQ(f, twin);
  EXPECT_NE(&twin.table(), &t);
}

TEST(FailProneSystem, ConstructionCompilesNothing) {
  std::mt19937_64 rng(11);
  random_system_params params;
  params.n = 12;
  params.patterns = 8;
  const fail_prone_system fps = random_fail_prone_system(params, rng);
  const fail_prone_system copy = fps;
  for (const failure_pattern& f : copy) EXPECT_FALSE(f.table_compiled());
  EXPECT_EQ(&copy[3].table(), &fps[3].table());
  for (std::size_t k = 0; k < fps.size(); ++k)
    EXPECT_EQ(fps[k].table_compiled(), k == 3) << "pattern " << k;
}

TEST(FailProneSystem, AddAfterQueryLeavesCopiesIntact) {
  fail_prone_system fps(3);
  fps.add(failure_pattern(3, process_set{0}, {}));
  fps.add(failure_pattern(3, {}, {{1, 2}}));
  const pattern_table* first = &fps[0].table();
  const fail_prone_system copy = fps;
  for (process_id p = 0; p < 3; ++p)  // reallocates fps's patterns
    fps.add(failure_pattern(3, process_set{p}, {}));
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(fps.size(), 5u);
  EXPECT_EQ(copy[0], fps[0]);
  EXPECT_EQ(copy[1], fps[1]);
  EXPECT_EQ(&fps[0].table(), first);
  EXPECT_EQ(&copy[0].table(), first);
  EXPECT_FALSE(copy[1].table_compiled());
  EXPECT_EQ(&copy[1].table(), &fps[1].table());
}

TEST(FailProneSystem, SizeMismatchRejected) {
  fail_prone_system fps(3);
  EXPECT_THROW(fps.add(failure_pattern(4)), std::invalid_argument);
  EXPECT_THROW(fail_prone_system(3, {failure_pattern(4)}),
               std::invalid_argument);
}

TEST(FailurePattern, Figure1ResidualF1) {
  // Under f1 the residual graph has exactly the channels (c,a), (a,b),
  // (b,a) among {a, b, c}; d is absent.
  const auto fig = make_figure1();
  const failure_pattern& f1 = fig.gqs.fps[0];
  const digraph g = f1.residual();
  EXPECT_EQ(g.present(), (process_set{0, 1, 2}));
  EXPECT_TRUE(g.has_edge(2, 0));   // (c,a)
  EXPECT_TRUE(g.has_edge(0, 1));   // (a,b)
  EXPECT_TRUE(g.has_edge(1, 0));   // (b,a)
  EXPECT_EQ(g.edge_count(), 3);
}

TEST(FailurePattern, Figure1PatternsAreRotations) {
  const auto fig = make_figure1();
  // Each f_{i+1} is f_i with every process id shifted by +1 (mod 4).
  for (int i = 0; i < 3; ++i) {
    const failure_pattern& f = fig.gqs.fps[i];
    const failure_pattern& g = fig.gqs.fps[i + 1];
    process_set rotated_crash;
    for (process_id p : f.crashable()) rotated_crash.insert((p + 1) % 4);
    EXPECT_EQ(g.crashable(), rotated_crash) << "pattern " << i;
    for (const edge& e : f.faulty_channels().edges())
      EXPECT_TRUE(g.channel_may_fail((e.from + 1) % 4, (e.to + 1) % 4))
          << "pattern " << i;
  }
}

}  // namespace
}  // namespace gqs
