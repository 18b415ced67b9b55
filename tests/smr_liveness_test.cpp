// Seeded liveness probes for the sharded SMR (smr/smr_service.hpp) and the
// quorum service (quorum/quorum_service.hpp): Theorem 1 checked over
// random corpus systems with a failure striking mid-run. Each draw takes a
// topology_corpus(12) family, draws |F| = 4 patterns, picks f ∈ F and a
// strike instant in [0, 500 ms), and solves the system. At 2 s every U_f
// member then runs its operations, and each must complete within 120 s of
// simulated time.
//
// SMR: every U_f member writes once; the replicas must agree. The default
// tier runs 3,000 broadcast draws. The `slow` run (skipped unless
// GQS_SLOW_TESTS=1) covers at least 20,000 solvable draws in each of
// broadcast/1-shard and targeted/4-shard mode.
//
// Quorum service: every U_f member p writes key p mod 4 and then reads it
// back; the keyed history must linearize. The default tier runs 500
// draws, the `slow` run at least 3,000 solvable ones.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/existence.hpp"
#include "core/quorum_system.hpp"
#include "lincheck/history_checker.hpp"
#include "register/keyed_register.hpp"
#include "register/keyed_register_client.hpp"
#include "strategy/shard_plan.hpp"
#include "workload/smr_workload.hpp"
#include "workload/topologies.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

constexpr sim_time kWriteAt = 2L * 1000 * 1000;      // 2 s
constexpr sim_time kHorizon = 120L * 1000 * 1000;    // 120 s
constexpr sim_time kStrikeWindow = 500L * 1000;      // 500 ms
constexpr service_key kKeys = 4;

struct probe_stats {
  int draws = 0;
  int solvable = 0;
  std::vector<std::string> stalls;  ///< "draw i" of each stalled run
  std::vector<std::string> unsafe;  ///< safety-check failures
};

bool slow_tests_enabled() {
  const char* slow = std::getenv("GQS_SLOW_TESTS");
  return slow != nullptr && *slow != '\0' && std::string(slow) != "0";
}

/// One SMR draw: every U_f member writes once at kWriteAt; returns whether
/// all of them applied their write within kHorizon.
bool run_smr_draw(bool targeted, const gqs_witness& witness,
                  const failure_pattern& f, sim_time strike,
                  std::uint64_t seed, probe_stats& stats, int draw) {
  const generalized_quorum_system& system = witness.system;
  smr_options opts;
  if (targeted) {
    shard_plan_options spo;
    spo.shards = 4;
    const shard_plan plan = plan_shards(system, spo);
    opts.shards = spo.shards;
    opts.shard_selectors = plan.selectors;
    opts.leaders = plan.leaders;
  }
  smr_world w(system, fault_plan::from_pattern(f, strike), seed, kKeys,
              opts);
  const process_set u_f = compute_u_f(system, f);
  std::size_t done = 0;
  for (const process_id p : u_f)
    w.sim.post_after(p, kWriteAt, [&w, &done, p] {
      w.nodes[p]->submit_write(static_cast<service_key>(p % kKeys),
                               pack_client_value(p, 0),
                               [&done](reg_version) { ++done; });
    });
  const bool live = w.sim.run_until_condition(
      [&] { return done == static_cast<std::size_t>(u_f.size()); },
      kHorizon);
  const lincheck_result agreement = check_smr_agreement(w.replicas());
  if (!agreement.linearizable)
    stats.unsafe.push_back("draw " + std::to_string(draw) + ": " +
                           agreement.reason);
  return live;
}

/// One quorum-service draw: at kWriteAt every U_f member p writes key
/// p mod kKeys, and reads it back at the instant its write returns.
/// Returns whether every operation completed within kHorizon.
bool run_service_draw(const gqs_witness& witness, const failure_pattern& f,
                      sim_time strike, std::uint64_t seed, probe_stats& stats,
                      int draw) {
  const generalized_quorum_system& system = witness.system;
  world<keyed_register_node> w(system.system_size(),
                               fault_plan::from_pattern(f, strike), seed,
                               network_options{}, kKeys,
                               quorum_config::of(system), service_options{});
  keyed_register_client<keyed_register_node> client(w.sim, w.nodes);
  struct member {
    process_id p;
    std::size_t write;
    bool read_issued = false;
  };
  std::vector<member> members;
  w.sim.run_until(kWriteAt);
  for (const process_id p : compute_u_f(system, f))
    members.push_back({p, client.invoke_write(p, p % kKeys,
                                              static_cast<reg_value>(p) + 1)});
  // The condition runs after every event, so each read is invoked at the
  // instant its member's write returns.
  const bool live = w.sim.run_until_condition(
      [&] {
        std::size_t issued = 0;
        for (member& m : members) {
          if (!m.read_issued && client.complete(m.write)) {
            client.invoke_read(m.p, m.p % kKeys);
            m.read_issued = true;
          }
          issued += m.read_issued;
        }
        return issued == members.size() && client.all_complete();
      },
      kHorizon);
  const lincheck_result lin = check_keyed_history(client.history(), kKeys);
  if (!lin.linearizable)
    stats.unsafe.push_back("draw " + std::to_string(draw) + ": " + lin.reason);
  return live;
}

/// Draws until `draws` draws or `solvable` solvable ones, whichever the
/// caller bounds (the other is left at its maximum), and runs each solvable
/// one through `run(witness, f, strike, seed, stats, draw)`. Every random
/// choice of a draw comes off the rng before solving, so the stream does
/// not depend on the solver; draw i simulates with seed 1000 + i.
template <class Run>
probe_stats probe(int max_draws, int min_solvable, Run&& run) {
  const std::vector<scenario_family> corpus = topology_corpus(12);
  std::mt19937_64 rng(7);
  probe_stats stats;
  while (stats.draws < max_draws && stats.solvable < min_solvable) {
    const int draw = stats.draws++;
    scenario_params params = corpus[rng() % corpus.size()].params;
    params.patterns = 4;
    const fail_prone_system fps = scenario_system(params, rng);
    const std::size_t fi = rng() % fps.size();
    const sim_time strike = static_cast<sim_time>(rng() % kStrikeWindow);
    const std::optional<gqs_witness> witness = find_gqs(fps);
    if (!witness) continue;
    ++stats.solvable;
    if (!run(*witness, fps[fi], strike,
             1000 + static_cast<std::uint64_t>(draw), stats, draw))
      stats.stalls.push_back("draw " + std::to_string(draw));
  }
  return stats;
}

void expect_live_and_safe(const probe_stats& stats) {
  EXPECT_TRUE(stats.stalls.empty())
      << stats.stalls.size() << " of " << stats.solvable
      << " solvable draws stalled, first " << stats.stalls.front();
  EXPECT_TRUE(stats.unsafe.empty()) << stats.unsafe.front();
}

/// The SMR probe in one mode.
probe_stats probe_smr(bool targeted, int max_draws, int min_solvable) {
  return probe(max_draws, min_solvable, [targeted](auto&&... args) {
    return run_smr_draw(targeted, args...);
  });
}

TEST(SmrLiveness, MidRunFailuresCommitEveryUfWrite) {
  const probe_stats stats =
      probe_smr(/*targeted=*/false, /*max_draws=*/3000, /*min_solvable=*/3000);
  EXPECT_GT(stats.solvable, 1000);
  expect_live_and_safe(stats);
}

TEST(SmrLiveness, MidRunFailuresCommitEveryUfWriteAtScale) {
  if (!slow_tests_enabled())
    GTEST_SKIP() << "set GQS_SLOW_TESTS=1 to run 20,000 solvable draws "
                    "per mode";
  for (const bool targeted : {false, true}) {
    SCOPED_TRACE(targeted ? "targeted, 4 shards" : "broadcast, 1 shard");
    const probe_stats stats = probe_smr(targeted, /*max_draws=*/1 << 30,
                                        /*min_solvable=*/20000);
    EXPECT_GE(stats.solvable, 20000);
    expect_live_and_safe(stats);
  }
}

TEST(ServiceLiveness, MidRunFailuresCompleteEveryUfWriteAndRead) {
  const probe_stats stats =
      probe(/*max_draws=*/500, /*min_solvable=*/500, run_service_draw);
  EXPECT_GT(stats.solvable, 400);
  expect_live_and_safe(stats);
}

TEST(ServiceLiveness, MidRunFailuresCompleteEveryUfWriteAndReadAtScale) {
  if (!slow_tests_enabled())
    GTEST_SKIP() << "set GQS_SLOW_TESTS=1 to run 3,000 solvable draws";
  const probe_stats stats =
      probe(/*max_draws=*/1 << 30, /*min_solvable=*/3000, run_service_draw);
  EXPECT_GE(stats.solvable, 3000);
  expect_live_and_safe(stats);
}

}  // namespace
}  // namespace gqs
