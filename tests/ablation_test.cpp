// Regression tests for the ablation study (bench_ablation_clocks): the
// published Figure 3 protocol is safe in the adversarial scenarios, and
// each weakened variant is *observed* to violate linearizability there —
// pinning down that both clock waits are load-bearing.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "lincheck/wing_gong.hpp"
#include "qaf_worlds.hpp"
#include "quorum/qaf_ablation.hpp"
#include "register/atomic_register.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

/// Scenario C of the bench (disjoint_scenario_config).
struct disjoint_world : register_world<gqs_register_node> {
  disjoint_world(std::uint64_t seed, bool use_get_cutoff,
                 bool use_set_confirmation)
      : register_world(
            4, disjoint_scenario_faults(), seed, network_options{},
            [&](process_id p) {
              push_qaf_options opts;
              opts.use_get_cutoff = use_get_cutoff;
              opts.use_set_confirmation = use_set_confirmation;
              if (p == 1) opts.initial_clock = 1000;
              return std::make_unique<gqs_register_node>(
                  disjoint_scenario_config(), reg_state{}, opts);
            }) {}

  /// Runs `rounds` of write-at-0-then-read-at-3; returns false on stall.
  bool run_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const auto wi = client.invoke_write(0, 1000 + round);
      if (!sim.run_until_condition([&] { return client.complete(wi); },
                                   sim.now() + 600L * 1000 * 1000))
        return false;
      const auto ri = client.invoke_read(3);
      if (!sim.run_until_condition([&] { return client.complete(ri); },
                                   sim.now() + 600L * 1000 * 1000))
        return false;
    }
    return true;
  }
};

TEST(Ablation, FullProtocolSafeInDisjointScenario) {
  // The crafted scenario cannot break the published protocol — Theorem 3
  // holds for arbitrary clock offsets.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    disjoint_world w(seed, true, true);
    ASSERT_TRUE(w.run_rounds(4)) << "seed " << seed;
    const auto r = check_linearizable(w.client.history());
    EXPECT_TRUE(r.linearizable) << "seed " << seed << ": " << r.reason;
  }
}

TEST(Ablation, DroppingSetConfirmationViolatesSomewhere) {
  // Lemma 1 is necessary: without the set's read-quorum confirmation, the
  // scenario produces at least one non-linearizable history across seeds.
  // A violating delay schedule is rare (27 of seeds 0..255, the first at
  // seed 30), so the sweep is wide and stops at the first catch.
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 256 && !caught; ++seed) {
    disjoint_world w(seed, true, false);
    if (!w.run_rounds(4)) continue;
    caught = !check_linearizable(w.client.history()).linearizable;
  }
  EXPECT_TRUE(caught);
}

TEST(Ablation, DroppingGetCutoffViolatesSomewhere) {
  // The clock cutoff of quorum_get is necessary: accepting arbitrarily
  // stale gossip loses completed writes under Figure 1's f1.
  const auto fig = make_figure1();
  const quorum_config qc = quorum_config::of(fig.gqs);
  int violations = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    push_qaf_options opts;
    opts.use_get_cutoff = false;
    register_world<gqs_register_node> w(
        4, fault_plan::from_pattern(fig.gqs.fps[0], 0), seed,
        network_options{}, qc, reg_state{}, opts);
    bool ok = true;
    for (int round = 0; round < 6 && ok; ++round) {
      const auto wi = w.client.invoke_write(0, 100 + round);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                      w.sim.now() + 600L * 1000 * 1000);
      if (!ok) break;
      const auto ri = w.client.invoke_read(1);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                      w.sim.now() + 600L * 1000 * 1000);
    }
    if (!ok) continue;
    violations += !check_linearizable(w.client.history()).linearizable;
  }
  EXPECT_GT(violations, 0);
}

/// Runs Figure 1 under f1 with the get cutoff dropped at every process and
/// pipelines operations at a, some started from completion callbacks (an
/// ablated get re-enters the freshness check from inside one). Returns the
/// completions as "label@time:states" in the order they happened.
std::string ablated_completion_sequence(bool use_set_confirmation) {
  using testing::insert_update;
  using testing::int_set;
  const auto fig = make_figure1();
  push_qaf_options opts;
  opts.use_get_cutoff = false;
  opts.use_set_confirmation = use_set_confirmation;
  world<push_qaf<int_set>> w(4, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                             17, network_options{},
                             quorum_config::of(fig.gqs), int_set{}, opts);
  push_qaf<int_set>& a = *w.nodes[0];
  std::string seq;
  const auto note = [&](const std::string& label,
                        const std::vector<int_set>* states) {
    seq += label;
    seq += "@";
    seq += std::to_string(w.sim.now());
    if (states) {
      seq += ":";
      for (const int_set& s : *states) {
        seq += "{";
        for (const int x : s) {
          seq += std::to_string(x);
          seq += ",";
        }
        seq += "}";
      }
    }
    seq += " ";
  };
  int started = 0;
  std::function<void(const std::string&, int)> get =
      [&](const std::string& label, int depth) {
        ++started;
        a.quorum_get([&, label, depth](std::vector<int_set> states) {
          note(label, &states);
          if (depth == 0) return;
          // Started from inside the completion: completes in this same
          // freshness check when the cache already holds a read quorum.
          get(label + "g", depth - 1);
          a.quorum_set(insert_update(100 * depth + started),
                       [&, label] { note(label + "s", nullptr); });
        });
      };
  get("g1", 2);
  a.quorum_set(insert_update(1), [&] {
    note("s1", nullptr);
    get("s1g", 1);
  });
  a.quorum_set(insert_update(2), [&] { note("s2", nullptr); });
  get("g2", 1);
  w.sim.run_until(w.sim.now() + 200000);
  return seq;
}

TEST(Ablation, CallbackStartedOpsCompleteInPinnedOrder) {
  // Pinned bit for bit: ready gets complete before ready sets, each in
  // ascending sequence, also when a completion starts the next operation.
  EXPECT_EQ(ablated_completion_sequence(true),
            "g1@12553:{1,2,}{} g2@12553:{1,2,}{} g1g@12553:{1,2,}{} "
            "g2g@12553:{1,2,}{} g1gg@12553:{1,2,}{} s2@18574 s1@19835 "
            "s1g@19835:{1,2,105,205,}{} s1gg@19835:{1,2,105,205,}{} "
            "g1gs@44249 g1s@44249 g2s@45670 s1gs@64866 ");
  EXPECT_EQ(ablated_completion_sequence(false),
            "s2@8548 s1@8595 g1@12553:{1,2,}{} g2@12553:{1,2,}{} "
            "s1g@12553:{1,2,}{} g1g@12553:{1,2,}{} g2g@12553:{1,2,}{} "
            "s1gg@12553:{1,2,}{} g1gg@12553:{1,2,}{} s1gs@18103 "
            "g1gs@21384 g2s@22576 g1s@26590 ");
}

TEST(Ablation, BothSwitchesOnMatchesPublishedProtocol) {
  // Sanity: the ablated implementation with both waits enabled behaves
  // like the real one on the Figure 1 scenario (ops complete, histories
  // linearizable).
  const auto fig = make_figure1();
  const quorum_config qc = quorum_config::of(fig.gqs);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    push_qaf_options opts;  // defaults: both on
    register_world<gqs_register_node> w(
        4, fault_plan::from_pattern(fig.gqs.fps[0], 0), seed,
        network_options{}, qc, reg_state{}, opts);
    const auto wi = w.client.invoke_write(0, 5);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); }, 600L * 1000 * 1000));
    const auto ri = w.client.invoke_read(1);
    ASSERT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(ri); }, 1200L * 1000 * 1000));
    EXPECT_EQ(w.client.history()[ri].value, 5);
    EXPECT_TRUE(check_linearizable(w.client.history()).linearizable);
  }
}

}  // namespace
}  // namespace gqs
