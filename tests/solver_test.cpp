// solver_test — the scalable existence solver (core/solver.hpp) against
// the exhaustive oracle and a plain backtracker, across the topology
// scenario corpus and the uniform random family, plus the parallel-search
// determinism contract.
#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <random>
#include <type_traits>
#include <vector>

#include "core/factories.hpp"
#include "core/random_systems.hpp"
#include "graph/digraph.hpp"
#include "sim/runner.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

TEST(Solver, Figure1Admits) {
  const auto fig = make_figure1();
  existence_solver solver(fig.gqs.fps);
  EXPECT_TRUE(solver.exists());
  const auto witness = solver.solve();
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(check_generalized(witness->system).ok);
  EXPECT_GT(solver.stats().nodes, 0u);
  // Figure 1 decides in the budgeted stage-1 search: no fan-out needed.
  EXPECT_EQ(solver.stats().escalations, 0u);
  EXPECT_EQ(solver.stats().branches, 0u);
}

TEST(Solver, Example9DoesNotAdmit) {
  // The solver keeps a reference: the system must outlive it.
  const auto fps = make_example9_variant();
  existence_solver solver(fps);
  EXPECT_FALSE(solver.exists());
  EXPECT_FALSE(solver.solve().has_value());
}

TEST(Solver, EmptySystemThrows) {
  const fail_prone_system empty(3);
  EXPECT_THROW(existence_solver{empty}, std::invalid_argument);
}

// The solver keeps a reference to its system, so a temporary is rejected
// at compile time rather than left dangling.
static_assert(
    !std::is_constructible_v<existence_solver, fail_prone_system&&>);
static_assert(
    !std::is_constructible_v<existence_solver, fail_prone_system&&,
                             solver_options>);

TEST(Solver, AgreesWithFindGqs) {
  // find_gqs routes through the solver with default options; an explicit
  // solver instance must produce the identical witness.
  const auto fig = make_figure1();
  const auto via_find = find_gqs(fig.gqs.fps);
  existence_solver solver(fig.gqs.fps);
  const auto via_solver = solver.solve();
  ASSERT_TRUE(via_find.has_value());
  ASSERT_TRUE(via_solver.has_value());
  EXPECT_EQ(via_find->chosen_writes, via_solver->chosen_writes);
  EXPECT_EQ(via_find->chosen_reads, via_solver->chosen_reads);
  EXPECT_EQ(via_find->max_termination, via_solver->max_termination);
}

// A plain backtracker, independent of the solver's machinery: per-pattern
// SCCs of the residual digraph sorted by size, their reach-to closures,
// then a depth-first search that re-tests pairwise consistency against
// every assigned pattern — no bitmatrix, no arc consistency, no variable
// ordering, no forward checking.
namespace plain_backtracker {

struct pattern_options {
  std::vector<process_set> components;
  std::vector<process_set> reach_to;
};

std::vector<pattern_options> collect_options(const fail_prone_system& fps) {
  std::vector<pattern_options> all;
  all.reserve(fps.size());
  for (const failure_pattern& f : fps) {
    const digraph residual = f.residual();
    pattern_options opts;
    opts.components = residual.sccs();
    std::sort(opts.components.begin(), opts.components.end(),
              [](process_set a, process_set b) { return a.size() > b.size(); });
    for (const process_set& s : opts.components)
      opts.reach_to.push_back(residual.reach_to_all(s));
    all.push_back(std::move(opts));
  }
  return all;
}

bool compatible(const pattern_options& a, std::size_t ia,
                const pattern_options& b, std::size_t ib) {
  return a.reach_to[ia].intersects(b.components[ib]) &&
         b.reach_to[ib].intersects(a.components[ia]);
}

bool search(const std::vector<pattern_options>& options, std::size_t depth,
            std::vector<std::size_t>& choice) {
  if (depth == options.size()) return true;
  const pattern_options& current = options[depth];
  for (std::size_t i = 0; i < current.components.size(); ++i) {
    bool ok = current.reach_to[i].intersects(current.components[i]);
    for (std::size_t d = 0; ok && d < depth; ++d)
      ok = compatible(options[d], choice[d], current, i);
    if (!ok) continue;
    choice[depth] = i;
    if (search(options, depth + 1, choice)) return true;
  }
  return false;
}

bool exists(const fail_prone_system& fps) {
  const auto options = collect_options(fps);
  std::vector<std::size_t> choice(options.size(), 0);
  return search(options, 0, choice);
}

}  // namespace plain_backtracker

// The full topology corpus at small n: the solver's verdict matches the
// exhaustive SCC-combination enumeration, and every witness passes the
// complete Definition 2 check.
TEST(Solver, CorpusCrossCheckAgainstExhaustive) {
  int instances = 0, sat = 0, unsat = 0;
  for (const scenario_family& family : topology_corpus(8)) {
    for (unsigned seed = 0; seed < 3; ++seed) {
      std::mt19937_64 rng(seed * 977 + 13);
      const auto fps = scenario_system(family.params, rng);
      const bool oracle = gqs_exists_exhaustive(fps);
      existence_solver solver(fps);
      const auto witness = solver.solve();
      EXPECT_EQ(witness.has_value(), oracle)
          << family.name << " seed " << seed;
      existence_solver decider(fps);
      EXPECT_EQ(decider.exists(), oracle) << family.name << " seed " << seed;
      ++instances;
      if (oracle) {
        ++sat;
        const auto check = check_generalized(witness->system);
        EXPECT_TRUE(check.ok)
            << family.name << " seed " << seed << ": " << check.reason;
      } else {
        ++unsat;
      }
    }
  }
  // The corpus must exercise both verdicts, or the cross-check is weak.
  EXPECT_GT(instances, 20);
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
}

// Past the exhaustive oracle's reach: the corpus the scaling bench times
// (n = 12..64, |F| = 16, four seeds per family) decided by the solver and
// by the plain backtracker above. Every verdict must agree, every witness
// must pass the complete Definition 2 check, and both verdicts must occur.
TEST(Solver, CorpusCrossCheckAgainstPlainBacktracker) {
  int sat = 0, unsat = 0;
  for (const scenario_family& family : topology_corpus(64)) {
    if (family.params.topology.n < 12) continue;
    scenario_params params = family.params;
    params.patterns = 16;
    for (int s = 0; s < 4; ++s) {
      std::mt19937_64 rng(1234 + s * 7919 + family.name.size());
      const auto fps = scenario_system(params, rng);
      const bool oracle = plain_backtracker::exists(fps);
      existence_solver solver(fps);
      const auto witness = solver.solve();
      ASSERT_EQ(witness.has_value(), oracle) << family.name << " seed " << s;
      EXPECT_EQ(existence_solver(fps).exists(), oracle)
          << family.name << " seed " << s;
      if (oracle) {
        ++sat;
        const auto check = check_generalized(witness->system);
        EXPECT_TRUE(check.ok)
            << family.name << " seed " << s << ": " << check.reason;
      } else {
        ++unsat;
      }
    }
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
}

// Every pruning feature disabled must not change any verdict — the
// stripped configuration is essentially the seed backtracker running on
// the bitmatrix.
TEST(Solver, AblationConfigsAgreeOnCorpus) {
  solver_options stripped;
  stripped.arc_consistency = false;
  stripped.forward_checking = false;
  stripped.most_constrained_first = false;
  solver_options mrv_only;
  mrv_only.arc_consistency = false;
  mrv_only.forward_checking = false;
  for (const scenario_family& family : topology_corpus(6)) {
    std::mt19937_64 rng(family.name.size() * 31 + 7);
    const auto fps = scenario_system(family.params, rng);
    existence_solver full(fps);
    const bool verdict = full.exists();
    EXPECT_EQ(existence_solver(fps, stripped).exists(), verdict)
        << family.name << " (stripped)";
    EXPECT_EQ(existence_solver(fps, mrv_only).exists(), verdict)
        << family.name << " (mrv only)";
  }
}

// Uniform random systems, as existence_test does for find_gqs — the
// solver is the same code path, but keep an independent net here.
TEST(Solver, UniformRandomCrossCheck) {
  random_system_params params;
  params.n = 5;
  params.patterns = 4;
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    const auto fps = random_fail_prone_system(params, rng);
    existence_solver solver(fps);
    EXPECT_EQ(solver.exists(), gqs_exists_exhaustive(fps)) << trial;
  }
}

// Determinism contract: the witness — quorum families, chosen components,
// termination mapping — is bit-identical for 1, 2 and 8 worker threads.
// stage1_node_budget = 1 forces the stage-2 escalation so the parallel
// fan-out (not just the sequential stage-1 search) is what's under test.
TEST(Solver, WitnessIdenticalForAnyThreadCount) {
  int compared = 0;
  for (const scenario_family& family : topology_corpus(12)) {
    std::mt19937_64 rng(family.name.size() * 131 + 5);
    const auto fps = scenario_system(family.params, rng);
    solver_options opts;
    opts.threads = 1;
    opts.stage1_node_budget = 1;
    existence_solver base(fps, opts);
    const auto reference = base.solve();
    EXPECT_GT(base.stats().escalations, 0u) << family.name;
    for (unsigned threads : {2u, 8u}) {
      solver_options par = opts;
      par.threads = threads;
      existence_solver solver(fps, par);
      const auto witness = solver.solve();
      ASSERT_EQ(witness.has_value(), reference.has_value())
          << family.name << " threads " << threads;
      if (!witness) continue;
      EXPECT_EQ(witness->chosen_writes, reference->chosen_writes)
          << family.name << " threads " << threads;
      EXPECT_EQ(witness->chosen_reads, reference->chosen_reads)
          << family.name << " threads " << threads;
      EXPECT_EQ(witness->max_termination, reference->max_termination)
          << family.name << " threads " << threads;
      EXPECT_EQ(witness->system.reads, reference->system.reads);
      EXPECT_EQ(witness->system.writes, reference->system.writes);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0) << "no satisfiable corpus instance exercised";
}

// The pattern tables the solver builds agree with the graph layer's
// ground truth: every field of `t` against the digraph reference for the
// residual `g`.
void expect_matches_reference(const pattern_table& t, const digraph& g) {
  const process_id n = g.vertex_count();
  EXPECT_EQ(t.correct, g.present());
  ASSERT_EQ(t.component_of.size(), n);
  const auto sccs = g.sccs();
  ASSERT_EQ(t.components.size(), sccs.size());
  ASSERT_EQ(t.reach_to.size(), sccs.size());
  // One BFS per vertex; reach_to is then reach_to_all's definition.
  std::vector<process_set> reach(n);
  for (process_id v : g.present()) reach[v] = g.reachable_from(v);
  process_set covered;
  for (std::size_t i = 0; i < t.components.size(); ++i) {
    covered |= t.components[i];
    EXPECT_NE(std::find(sccs.begin(), sccs.end(), t.components[i]),
              sccs.end());
    process_set readers;
    for (process_id u : g.present())
      if (t.components[i].is_subset_of(reach[u])) readers.insert(u);
    EXPECT_EQ(t.reach_to[i], readers);
    for (process_id v : t.components[i]) {
      EXPECT_EQ(t.scc(v), t.components[i]);
      EXPECT_EQ(t.component_of[v], i);
    }
  }
  EXPECT_EQ(covered, g.present());
  for (process_id v = 0; v < n; ++v) {
    if (!g.present().contains(v)) {
      EXPECT_EQ(t.component_of[v], 0);
      continue;
    }
    // What v reaches, read off the table: the components whose reach_to
    // holds v.
    process_set from;
    for (std::size_t i = 0; i < t.components.size(); ++i)
      if (t.reach_to[i].contains(v)) from |= t.components[i];
    EXPECT_EQ(from, reach[v]);
  }
  // Sorted by size descending, set value ascending.
  for (std::size_t i = 1; i < t.components.size(); ++i) {
    const auto &prev = t.components[i - 1], &cur = t.components[i];
    EXPECT_TRUE(prev.size() > cur.size() ||
                (prev.size() == cur.size() && prev < cur));
  }
}

void expect_same_table(const pattern_table& a, const pattern_table& b) {
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.components, b.components);
  EXPECT_EQ(a.reach_to, b.reach_to);
  EXPECT_EQ(a.component_of, b.component_of);
}

TEST(PatternTable, MatchesDigraphGroundTruth) {
  // Each pattern's own table (the one every query reads) and a fresh
  // build of it.
  for (const failure_pattern& f : make_figure1().gqs.fps) {
    expect_matches_reference(f.table(), f.residual());
    expect_same_table(build_pattern_table(f), f.table());
  }

  // One |F| = 16 draw per corpus family, up to n = 256 (four words).
  std::uint64_t seed = 1;
  for (scenario_family family : topology_corpus(256)) {
    SCOPED_TRACE(family.name);
    family.params.patterns = 16;
    std::mt19937_64 rng(seed++);
    for (const failure_pattern& f : scenario_system(family.params, rng)) {
      expect_matches_reference(f.table(), f.residual());
      expect_same_table(build_pattern_table(f), f.table());
    }
  }

  // Seeded random digraphs through the (network, live) overload, on both
  // sides of each word boundary, from edgeless to complete.
  std::mt19937_64 rng(7);
  for (process_id n : {1u, 63u, 64u, 65u, 128u, 256u}) {
    for (double degree : {0.0, 0.5, 1.0, 1.5, 3.0, 0.25 * n, 1.0 * n}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " degree " << degree);
      std::bernoulli_distribution edge(std::min(1.0, degree / n));
      std::bernoulli_distribution alive(0.85);
      std::vector<process_set> rows(n);
      process_set live;
      for (process_id u = 0; u < n; ++u) {
        if (alive(rng)) live.insert(u);
        for (process_id v = 0; v < n; ++v)
          if (u != v && edge(rng)) rows[u].insert(v);
      }
      const digraph network = digraph::from_rows(rows);
      digraph residual = network;
      residual.remove_vertices(network.present() - live);
      expect_matches_reference(build_pattern_table(network, live), residual);
    }
  }

  // One table rebuilt in place across sizes: nothing of the n = 256 build
  // may leak into the n = 12 one, or back. Half the processes crash, so
  // each build crashes low ids the previous one kept.
  random_system_params big;
  big.n = 256;
  big.crash_probability = 0.5;
  big.channel_fail_probability = 0.99;
  random_system_params small;
  small.n = 12;
  small.crash_probability = 0.5;
  pattern_table t;
  for (const random_system_params& params : {big, small, big}) {
    SCOPED_TRACE(testing::Message() << "rebuilt at n " << params.n);
    const failure_pattern f = random_failure_pattern(params, rng);
    build_pattern_table_into(f, t);
    expect_same_table(t, build_pattern_table(f));
    expect_matches_reference(t, f.residual());
  }
}

// Four threads ask one uncompiled pattern for its table at once: one
// compile, one table object, the same contents a fresh build gives. Run
// under TSAN (the solver_test binary is in the CI tsan job).
TEST(PatternTable, ConcurrentFirstQueriesShareOneTable) {
  constexpr std::size_t kThreads = 4;
  std::mt19937_64 rng(5);
  random_system_params params;
  params.n = 256;
  params.crash_probability = 0.1;
  params.channel_fail_probability = 0.9;
  for (int round = 0; round < 8; ++round) {
    const failure_pattern f = random_failure_pattern(params, rng);
    ASSERT_FALSE(f.table_compiled());
    std::latch start(kThreads);
    std::vector<const pattern_table*> seen(kThreads);
    std::vector<pattern_table> contents(kThreads);
    std::vector<run_spec> specs;
    for (std::size_t k = 0; k < kThreads; ++k)
      specs.push_back({"query" + std::to_string(k), [&, k] {
                         const failure_pattern copy = f;
                         start.arrive_and_wait();
                         seen[k] = &copy.table();
                         contents[k] = *seen[k];
                         return run_result{};
                       }});
    for (const run_result& r : experiment_runner(kThreads).run_all(specs))
      ASSERT_TRUE(r.ok) << r.error;
    const pattern_table fresh = build_pattern_table(f);
    for (std::size_t k = 0; k < kThreads; ++k) {
      EXPECT_EQ(seen[k], &f.table()) << "thread " << k;
      expect_same_table(contents[k], fresh);
    }
  }
}

// The witness's copy of F shares the tables the solver searched, so
// checking the witness compiles nothing: a plan-corpus instance builds
// |F| tables, not 2|F|.
TEST(Solver, WitnessSharesTheSearchedTables) {
  solver_options opts;
  opts.threads = 1;
  int sat = 0;
  for (const scenario_family& family : topology_corpus(64)) {
    if (family.params.topology.n < 12) continue;
    SCOPED_TRACE(family.name);
    scenario_params params = family.params;
    params.patterns = 16;
    std::mt19937_64 rng(2);
    const auto fps = scenario_system(params, rng);
    for (const failure_pattern& f : fps) ASSERT_FALSE(f.table_compiled());
    existence_solver solver(fps, opts);
    const auto witness = solver.solve();
    ASSERT_EQ(solver.tables().size(), fps.size());
    if (!witness) continue;
    ++sat;
    std::vector<const pattern_table*> distinct;
    for (std::size_t k = 0; k < fps.size(); ++k) {
      EXPECT_EQ(solver.tables()[k], &fps[k].table());
      EXPECT_EQ(&witness->system.fps[k].table(), solver.tables()[k]);
      distinct.push_back(solver.tables()[k]);
    }
    EXPECT_TRUE(check_generalized(witness->system).ok);
    std::sort(distinct.begin(), distinct.end());
    EXPECT_EQ(std::unique(distinct.begin(), distinct.end()) - distinct.begin(),
              16);
  }
  EXPECT_GT(sat, 0);
}

TEST(Solver, StagedSearchAgreesWhenEscalationForced) {
  // Forcing the stage-2 escalation (bitmatrix + arc consistency) must not
  // change any verdict; Example 9 stays non-admitting and reports the
  // escalation in its stats.
  solver_options forced;
  forced.stage1_node_budget = 1;
  const auto example9_fps = make_example9_variant();
  existence_solver example9(example9_fps, forced);
  EXPECT_FALSE(example9.exists());
  EXPECT_EQ(example9.stats().escalations, 1u);
  for (const scenario_family& family : topology_corpus(8)) {
    std::mt19937_64 rng(family.name.size() * 17 + 3);
    const auto fps = scenario_system(family.params, rng);
    existence_solver staged(fps);
    existence_solver escalated(fps, forced);
    EXPECT_EQ(staged.exists(), escalated.exists()) << family.name;
  }
}

// Bit-for-bit pin of the witnesses: a rewrite of the candidate tables or of
// the Definition 2 / Proposition 1 queries behind witness assembly must
// reproduce this digest exactly. The draw is shaped like the plan-corpus
// benchmark's: topology_corpus(64) families with n >= 12, |F| = 16.
TEST(Solver, WitnessPinnedBitForBit) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  auto mix_sets = [&mix](const std::vector<process_set>& sets) {
    mix(sets.size());
    for (const process_set& s : sets)
      s.for_each_word([&mix](std::size_t, std::uint64_t w) { mix(w); });
  };
  solver_options opts;
  opts.threads = 1;
  int solved = 0, sat = 0;
  for (const scenario_family& family : topology_corpus(64)) {
    if (family.params.topology.n < 12) continue;
    scenario_params params = family.params;
    params.patterns = 16;
    std::mt19937_64 rng(1);
    const auto fps = scenario_system(params, rng);
    existence_solver solver(fps, opts);
    const auto witness = solver.solve();
    ++solved;
    mix(witness.has_value());
    if (!witness) continue;
    ++sat;
    mix_sets(witness->chosen_writes);
    mix_sets(witness->chosen_reads);
    mix_sets(witness->max_termination);
    mix(check_generalized(witness->system).ok);
  }
  ASSERT_EQ(solved, 42);
  EXPECT_EQ(sat, 40);  // both verdicts are pinned
  EXPECT_EQ(h, 0x2d4aa19819cdc04aull) << std::hex << h;
}

TEST(Solver, WitnessIdenticalAcrossStages) {
  // A witness found by the budgeted stage-1 search and one found via the
  // forced stage-2 fan-out are both valid; both must pass Definition 2
  // even when they differ in shape.
  for (const scenario_family& family : topology_corpus(8)) {
    std::mt19937_64 rng(family.name.size() * 311 + 1);
    const auto fps = scenario_system(family.params, rng);
    solver_options forced;
    forced.stage1_node_budget = 1;
    existence_solver stage1(fps);
    existence_solver stage2(fps, forced);
    const auto w1 = stage1.solve();
    const auto w2 = stage2.solve();
    ASSERT_EQ(w1.has_value(), w2.has_value()) << family.name;
    if (w1) {
      EXPECT_TRUE(check_generalized(w1->system).ok) << family.name;
      EXPECT_TRUE(check_generalized(w2->system).ok) << family.name;
    }
  }
}

}  // namespace
}  // namespace gqs
