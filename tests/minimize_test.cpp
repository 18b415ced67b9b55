#include "core/minimize.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "core/random_systems.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

TEST(Minimize, RejectsInvalidInput) {
  fail_prone_system fps(3);
  fps.add(failure_pattern(3, process_set{2}, {}));
  generalized_quorum_system bad(fps, {process_set{0}}, {process_set{1, 2}});
  EXPECT_THROW(minimize_quorums(bad), std::invalid_argument);
}

TEST(Minimize, Figure1AlreadyMinimal) {
  // Figure 1's handcrafted quorums are 2-element; every member is needed
  // (dropping any breaks Consistency or Availability).
  const auto fig = make_figure1();
  const auto minimized = minimize_quorums(fig.gqs);
  EXPECT_EQ(total_quorum_size(minimized), total_quorum_size(fig.gqs));
}

TEST(Minimize, ShrinksSearchWitness) {
  // The search's maximal witness for Figure 1's F uses reach-to read
  // quorums of size 3; minimization recovers 2-element quorums.
  const auto fig = make_figure1();
  const auto witness = find_gqs(fig.gqs.fps);
  ASSERT_TRUE(witness.has_value());
  const int before = total_quorum_size(witness->system);
  const auto minimized = minimize_quorums(witness->system);
  const int after = total_quorum_size(minimized);
  EXPECT_LT(after, before);
  EXPECT_TRUE(check_generalized(minimized).ok);
  for (const process_set& r : minimized.reads) EXPECT_LE(r.size(), 2);
}

TEST(Minimize, ResultIsSingleRemovalMinimal) {
  const auto fig = make_figure1();
  const auto witness = find_gqs(fig.gqs.fps);
  ASSERT_TRUE(witness.has_value());
  generalized_quorum_system minimized = minimize_quorums(witness->system);
  // No single member of any quorum can be dropped.
  for (quorum_family* family : {&minimized.reads, &minimized.writes}) {
    for (process_set& quorum : *family) {
      const process_set original = quorum;
      for (process_id member : original) {
        process_set candidate = original;
        candidate.erase(member);
        if (candidate.empty()) continue;
        quorum = candidate;
        EXPECT_FALSE(check_generalized(minimized).ok)
            << "member " << member << " of " << original.to_string()
            << " is droppable";
        quorum = original;
      }
    }
  }
}

TEST(Minimize, PreservesUf) {
  // Minimization must not change the promised termination regions.
  const auto fig = make_figure1();
  const auto witness = find_gqs(fig.gqs.fps);
  ASSERT_TRUE(witness.has_value());
  const auto minimized = minimize_quorums(witness->system);
  for (std::size_t i = 0; i < fig.gqs.fps.size(); ++i)
    EXPECT_EQ(compute_u_f(minimized, fig.gqs.fps[i]),
              compute_u_f(witness->system, fig.gqs.fps[i]))
        << "pattern " << i;
}

TEST(Minimize, ThresholdWitnessShrinksTowardMinimalQuorums) {
  // For the crash-only threshold system the maximal witness uses all
  // correct processes; classical theory says read quorums of n−k and
  // write quorums of k+1 suffice.
  const auto fps = threshold_fail_prone_system(4, 1);
  const auto witness = find_gqs(fps);
  ASSERT_TRUE(witness.has_value());
  const auto minimized = minimize_quorums(witness->system);
  EXPECT_TRUE(check_generalized(minimized).ok);
  EXPECT_LT(total_quorum_size(minimized),
            total_quorum_size(witness->system));
}

class MinimizeSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MinimizeSweep, RandomWitnessesStayValidAndNeverGrow) {
  std::mt19937_64 rng(GetParam());
  random_system_params params;
  params.n = 5;
  params.patterns = 3;
  int found = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto witness = random_gqs(params, rng, 100);
    if (!witness) {
      // Attempts exhausted — now visible instead of a silent nullopt.
      EXPECT_TRUE(witness.exhausted);
      EXPECT_EQ(witness.attempts, witness.rejected);
      continue;
    }
    ++found;
    const auto minimized = minimize_quorums(witness->system);
    const auto check = check_generalized(minimized);
    EXPECT_TRUE(check.ok) << check.reason;
    EXPECT_LE(total_quorum_size(minimized),
              total_quorum_size(witness->system));
    for (std::size_t i = 0; i < witness->system.fps.size(); ++i)
      EXPECT_EQ(compute_u_f(minimized, witness->system.fps[i]),
                witness->max_termination[i]);
  }
  // The sweep must exercise at least one real witness per seed, or it
  // proves nothing.
  EXPECT_GT(found, 0) << "every trial exhausted its attempts";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeSweep, ::testing::Range(0u, 8u));

TEST(MinimizeSweep, CorpusDrawsKeepUfInTheDirectionalRegime) {
  // Ten draws from every topology_corpus(12) family with n >= 8. In most
  // of them some pattern reads from a wider set than it writes to (reads
  // rely on one-way reachability); minimization must keep every U_f
  // there too, as the header claims.
  int solved = 0;
  int directional = 0;
  for (const scenario_family& family : topology_corpus(12)) {
    if (family.params.topology.n < 8) continue;
    std::mt19937_64 rng(7);
    for (int draw = 0; draw < 10; ++draw) {
      const fail_prone_system fps = scenario_system(family.params, rng);
      const auto witness = find_gqs(fps);
      if (!witness) continue;
      ++solved;
      if (witness->chosen_reads != witness->chosen_writes) ++directional;
      const auto minimized = minimize_quorums(witness->system);
      const check_result check = check_generalized(minimized);
      EXPECT_TRUE(check.ok) << family.name << " draw " << draw << ": "
                            << check.reason;
      for (std::size_t i = 0; i < fps.size(); ++i)
        EXPECT_EQ(compute_u_f(minimized, fps[i]),
                  compute_u_f(witness->system, fps[i]))
            << family.name << " draw " << draw << " pattern " << i;
    }
  }
  EXPECT_GT(solved, 0);
  EXPECT_GT(directional, 0) << "no draw exercised the directional regime";
}

}  // namespace
}  // namespace gqs
