// lincheck_differential_test — differential testing of the two
// linearizability checkers: Wing–Gong black-box search and the white-box
// Appendix-B history_checker (batch + streaming). Valid histories come
// from real protocol runs (Figure 1 and the topology scenario corpus) and
// from the seeded synthetic generator; invalid ones from the shared
// mutation corpus, and histories of either verdict from seeded random
// tag/value perturbations. Batch and streaming must agree on every
// verdict, and white-box SAT must imply Wing–Gong SAT. Any disagreement
// dumps the full history.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/random_systems.hpp"
#include "history_mutations.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/history_gen.hpp"
#include "lincheck/wing_gong.hpp"
#include "workload/topologies.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

std::string dump_history(const register_history& h) {
  std::ostringstream out;
  for (std::size_t i = 0; i < h.size(); ++i)
    out << "  #" << i << " " << h[i].to_string() << " stamps ["
        << h[i].invoked_stamp << "," << h[i].returned_stamp << "]\n";
  return out.str();
}

struct verdict_tally {
  unsigned sat = 0;
  unsigned unsat = 0;
  unsigned wing_gong = 0;  ///< SAT histories Wing–Gong also checked
};

/// Runs every checker on `h` and enforces the differential contract:
///   * batch verdict == streaming-replay verdict,
///   * white-box SAT ⇒ Wing–Gong SAT for histories of at most `wg_ops`
///     ops (the converse need not hold: W-G never sees version tags and
///     may let a pending write take effect, so some white-box UNSAT
///     histories are black-box SAT).
/// The full history is dumped on any disagreement.
void expect_agreement(const register_history& h, const std::string& what,
                      verdict_tally& tally, std::size_t wg_ops = 64) {
  const auto fast = check_history(h);
  streaming_checker stream(1);
  const auto& live = replay_streaming(stream, h);
  if (fast.linearizable != live.linearizable) {
    ADD_FAILURE() << what << ": checkers disagree — batch="
                  << (fast.linearizable ? "SAT" : fast.reason)
                  << " | streaming="
                  << (live.linearizable ? "SAT" : live.reason)
                  << "\nhistory:\n"
                  << dump_history(h);
    return;
  }
  fast.linearizable ? ++tally.sat : ++tally.unsat;
  if (h.size() <= wg_ops && fast.linearizable) {
    ++tally.wing_gong;
    const auto wg = check_linearizable(h);
    EXPECT_TRUE(wg.linearizable)
        << what << ": white-box checker accepts but Wing–Gong rejects: "
        << wg.reason << "\nhistory:\n"
        << dump_history(h);
  }
}

/// Valid history + every applicable corpus mutation of it.
void sweep_history(const register_history& valid, const std::string& what,
                   verdict_tally& tally) {
  expect_agreement(valid, what + " (valid)", tally);
  for (const history_mutator& m : history_mutations()) {
    for (std::uint64_t pick = 0; pick < 2; ++pick) {
      register_history mutated = valid;
      const auto touched = m.apply(mutated, pick);
      if (touched.empty()) continue;
      const std::string ctx =
          what + " + " + m.name + " pick " + std::to_string(pick);
      expect_agreement(mutated, ctx, tally);
      // Every mutation in the corpus is white-box detectable.
      EXPECT_FALSE(check_history(mutated).linearizable) << ctx;
    }
  }
}

class DifferentialSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialSweep, SyntheticHistoriesAgree) {
  const unsigned seed = GetParam();
  verdict_tally tally;
  for (const std::size_t ops : {24u, 48u, 160u}) {
    for (const unsigned overlap : {2u, 4u}) {
      synthetic_history_options o;
      o.ops = ops;
      o.procs = 4;
      o.overlap = overlap;
      o.read_permille = 550;
      const auto h = make_synthetic_history(seed * 977 + ops * 7 + overlap, o);
      sweep_history(h, "synthetic ops=" + std::to_string(ops) + " overlap=" +
                           std::to_string(overlap),
                    tally);
    }
  }
  EXPECT_GT(tally.sat, 0u);
  EXPECT_GT(tally.unsat, 0u);
}

/// A complete, linearizable history from the real Figure 1 protocol run:
/// rounds of write-then-read across the two U_f1 members under pattern f1.
register_history figure1_history(std::uint64_t seed) {
  const auto fig = make_figure1();
  register_world<gqs_register_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), seed,
      network_options{}, quorum_config::of(fig.gqs), reg_state{},
      push_qaf_options{});
  for (int round = 0; round < 4; ++round) {
    const auto wi = w.client.invoke_write(0, 10 + round);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); }, w.sim.now() + 600'000'000L));
    const auto ri = w.client.invoke_read(1);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(ri); }, w.sim.now() + 600'000'000L));
  }
  return w.client.history();
}

TEST_P(DifferentialSweep, RealEngineHistoriesAgree) {
  const unsigned seed = GetParam();
  verdict_tally tally;
  const auto h = figure1_history(seed);
  ASSERT_GE(h.size(), 8u);
  sweep_history(h, "figure1 seed " + std::to_string(seed), tally);
  EXPECT_GT(tally.sat, 0u);
  EXPECT_GT(tally.unsat, 0u);
}

TEST_P(DifferentialSweep, TopologyCorpusHistoriesAgree) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(seed + 4242);
  scenario_params sp;
  const topology_kind kinds[] = {topology_kind::star, topology_kind::ring,
                                 topology_kind::clusters};
  sp.topology.kind = kinds[seed % 3];
  sp.topology.n = 5;
  sp.topology.cluster_size = 3;
  sp.patterns = 1;
  sp.crash_probability = 0.15;
  sp.channel_fail_probability = 0.1;

  const auto witness =
      random_gqs_from([&] { return scenario_system(sp, rng); }, 300);
  ASSERT_TRUE(witness.has_value())
      << to_string(sp.topology.kind) << ": attempts exhausted after "
      << witness.attempts << " draws";
  const auto& system = witness->system;
  const process_set u_f = witness->max_termination[0];
  ASSERT_FALSE(u_f.empty());

  register_world<gqs_register_node> w(
      sp.topology.n, fault_plan::from_pattern(system.fps[0], 0),
      seed * 23 + 1, network_options{}, quorum_config::of(system),
      reg_state{}, push_qaf_options{});
  int value = 1;
  for (process_id p : u_f) {
    const auto wi = w.client.invoke_write(p, value++);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); },
        w.sim.now() + 600L * 1000 * 1000));
    const auto ri = w.client.invoke_read(p);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(ri); },
        w.sim.now() + 600L * 1000 * 1000));
  }

  verdict_tally tally;
  sweep_history(w.client.history(),
                std::string("topology ") + to_string(sp.topology.kind) +
                    " seed " + std::to_string(seed),
                tally);
  EXPECT_GT(tally.sat, 0u);
  EXPECT_GT(tally.unsat, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep, ::testing::Range(0u, 4u));

/// One seeded tag/value perturbation of a completed op of `h`: copy
/// another op's (version, value), swap two ops' (version, value), or reset
/// a read to the initial version. Unlike the mutation corpus, the result
/// may stay linearizable. Returns false when the draw changes nothing.
bool perturb(register_history& h, std::uint64_t& rng) {
  std::vector<std::size_t> done, reads;
  for (std::size_t i = 0; i < h.size(); ++i)
    if (h[i].complete()) {
      done.push_back(i);
      if (h[i].kind == reg_op_kind::read) reads.push_back(i);
    }
  if (done.size() < 2) return false;
  const auto pick = [&](const std::vector<std::size_t>& from) {
    return from[splitmix64(rng) % from.size()];
  };
  switch (splitmix64(rng) % 3) {
    case 0: {
      const std::size_t a = pick(done), b = pick(done);
      if (a == b) return false;
      h[a].version = h[b].version;
      h[a].value = h[b].value;
      return true;
    }
    case 1: {
      const std::size_t a = pick(done), b = pick(done);
      if (h[a].version == h[b].version) return false;
      std::swap(h[a].version, h[b].version);
      std::swap(h[a].value, h[b].value);
      return true;
    }
    default: {
      if (reads.empty()) return false;
      const std::size_t r = pick(reads);
      if (h[r].version == reg_version{}) return false;
      h[r].version = reg_version{};
      h[r].value = 0;
      return true;
    }
  }
}

TEST(DifferentialPerturbation, RandomTagPerturbationsAgree) {
  constexpr unsigned kSeeds = 300;
  constexpr int kPerturbations = 8;
  const std::size_t sizes[] = {12, 24, 40, 64, 160};
  verdict_tally tally;
  for (unsigned seed = 0; seed < kSeeds; ++seed) {
    synthetic_history_options o;
    o.ops = sizes[seed % 5];
    o.procs = 4;
    o.overlap = 1 + seed % 4;
    o.read_permille = 550;
    const register_history valid = make_synthetic_history(seed * 7919 + 3, o);
    std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 17;
    for (int k = 0; k < kPerturbations; ++k) {
      register_history h = valid;
      if (!perturb(h, rng)) continue;
      expect_agreement(h,
                       "seed " + std::to_string(seed) + " perturbation " +
                           std::to_string(k),
                       tally, /*wg_ops=*/40);
    }
  }
  // Both verdicts occur: the perturbations reach linearizable histories,
  // which the all-UNSAT mutation corpus never produces, and Wing–Gong
  // cross-checks some of them.
  EXPECT_GT(tally.sat, 0u);
  EXPECT_GT(tally.unsat, 0u);
  EXPECT_GT(tally.wing_gong, 0u);
}

}  // namespace
}  // namespace gqs
