// Contention tests for replicated_log_node's retry-on-lost-slot path
// (smr/replicated_log.hpp): multiple submitters race for the same slot
// concurrently — under no faults and under every Figure-1 failure
// pattern — and the converged prefix must contain every submitted
// command exactly once (losers retry onto later slots, nothing is lost
// or duplicated) while replicas never disagree on a slot.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/factories.hpp"
#include "core/quorum_system.hpp"
#include "sim/time.hpp"
#include "smr/replicated_log.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct log_world : world<replicated_log_node> {
  std::vector<replicated_log_node*>& replicas = nodes;

  log_world(const generalized_quorum_system& gqs, fault_plan faults,
            std::uint64_t seed, std::size_t slots = 8)
      : world(gqs.system_size(), std::move(faults), seed,
              consensus_world::partial_sync(), gqs.system_size(),
              quorum_config::of(gqs), slots) {}

  std::vector<const replicated_log_node*> replica_views() const {
    return {replicas.begin(), replicas.end()};
  }
};

/// All members of `submitters` submit one command at the same instant
/// (racing for slot 0); returns true when every submission completed and
/// every submitter's committed prefix covers them all.
void race_and_verify(log_world& w, const process_set& submitters,
                     std::uint64_t seed_payload) {
  const std::size_t count = static_cast<std::size_t>(submitters.size());
  std::map<process_id, std::size_t> landed;  // submitter -> slot
  for (const process_id p : submitters) {
    w.sim.post(p, [&w, &landed, p, seed_payload] {
      const std::int32_t payload =
          static_cast<std::int32_t>(seed_payload + 1000 * p);
      w.replicas[p]->submit(payload,
                            [&landed, p](std::size_t s) { landed[p] = s; });
    });
  }
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        if (landed.size() < count) return false;
        for (const process_id p : submitters)
          if (w.replicas[p]->committed_prefix() < count) return false;
        return true;
      },
      600_s))
      << "submissions did not all land within the horizon";

  // No two replicas disagree on any slot.
  ASSERT_TRUE(check_log_agreement(w.replica_views()).linearizable);

  // Each submitter's converged prefix holds every racing command exactly
  // once: losers retried onto later slots, nothing lost, nothing doubled.
  for (const process_id reader : submitters) {
    const auto& log = w.replicas[reader]->log();
    std::map<std::pair<process_id, std::uint32_t>, int> seen;
    for (std::size_t s = 0; s < count; ++s) {
      ASSERT_TRUE(log[s].has_value()) << "hole at slot " << s;
      ++seen[{log[s]->submitter, log[s]->submit_seq}];
    }
    EXPECT_EQ(seen.size(), count) << "a command is missing or duplicated";
    for (const auto& [cmd, times] : seen)
      EXPECT_EQ(times, 1) << "command of process " << cmd.first
                          << " appears " << times << " times";
    for (const process_id p : submitters)
      EXPECT_TRUE(seen.count({p, 0u}))
          << "command of process " << p << " lost from the prefix";
  }
}

TEST(ReplicatedLogContention, AllProcessesRaceWithoutFaults) {
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 21);
  race_and_verify(w, process_set::full(4), 100);
}

TEST(ReplicatedLogContention, UfMembersRaceUnderEveryFigure1Pattern) {
  const auto fig = make_figure1();
  for (std::size_t i = 0; i < fig.gqs.fps.size(); ++i) {
    SCOPED_TRACE("failure pattern f" + std::to_string(i + 1));
    const auto& f = fig.gqs.fps[i];
    const process_set u_f = compute_u_f(fig.gqs, f);
    ASSERT_GT(u_f.size(), 1) << "pattern leaves no contention to test";
    log_world w(fig.gqs, fault_plan::from_pattern(f, 0),
                /*seed=*/31 + i);
    race_and_verify(w, u_f, 500 + 100 * static_cast<std::uint64_t>(i));
  }
}

TEST(ReplicatedLogContention, RepeatedRoundsKeepPrefixExactlyOnce) {
  // Two back-to-back contention rounds: the second round's commands must
  // slot in after the first round's without disturbing it.
  const auto fig = make_figure1();
  log_world w(fig.gqs, fault_plan::none(4), 41);
  race_and_verify(w, process_set::full(4), 100);
  std::map<process_id, std::size_t> landed;
  for (process_id p = 0; p < 4; ++p) {
    w.sim.post(p, [&w, &landed, p] {
      w.replicas[p]->submit(9000 + 1000 * p,
                            [&landed, p](std::size_t s) { landed[p] = s; });
    });
  }
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        if (landed.size() < 4) return false;
        for (process_id p = 0; p < 4; ++p)
          if (w.replicas[p]->committed_prefix() < 8) return false;
        return true;
      },
      600_s));
  ASSERT_TRUE(check_log_agreement(w.replica_views()).linearizable);
  // 8 distinct commands across the 8 slots, each exactly once.
  std::map<std::pair<process_id, std::uint32_t>, int> seen;
  for (std::size_t s = 0; s < 8; ++s) ++seen[{w.replicas[0]->log()[s]->submitter,
                                              w.replicas[0]->log()[s]->submit_seq}];
  EXPECT_EQ(seen.size(), 8u);
}

}  // namespace
}  // namespace gqs
