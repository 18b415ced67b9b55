// Tests for the multi-object quorum service: engine mechanics (batching,
// shared gossip, stream freshness, tick-only clocks), the
// keyed register built on it, per-key linearizability of multi-key traces
// under failures, the mutation checks that dropping either Figure 3
// clock wait produces a history the Wing–Gong checker catches, and
// convergence and runner-thread determinism of a zipfian keyed workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/factories.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "quorum/qaf_ablation.hpp"
#include "quorum/quorum_service.hpp"
#include "register/keyed_register.hpp"
#include "register/keyed_register_client.hpp"
#include "sim/runner.hpp"
#include "strategy/planner.hpp"
#include "workload/clients.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

constexpr sim_time kLong = 600L * 1000 * 1000;

struct service_world : world<keyed_register_node> {
  keyed_register_client<keyed_register_node> client{sim, nodes};

  service_world(service_key keys, const generalized_quorum_system& gqs,
                fault_plan faults, std::uint64_t seed,
                service_options opts = {}, network_options net = {})
      : world(gqs.system_size(), std::move(faults), seed, net, keys,
              quorum_config::of(gqs), opts) {}

  bool settle() {
    return sim.run_until_condition([&] { return client.all_complete(); },
                                   sim.now() + kLong);
  }
};

// ---------- gossip_stream unit tests ----------

TEST(GossipStream, InOrderAdvancesFreshness) {
  gossip_stream s;
  EXPECT_EQ(s.freshness(), 0u);
  EXPECT_TRUE(s.observe(1, 10));
  EXPECT_TRUE(s.observe(2, 11));
  EXPECT_EQ(s.freshness(), 11u);
  EXPECT_EQ(s.backlog(), 0u);
}

TEST(GossipStream, GapBuffersUntilFilled) {
  gossip_stream s;
  EXPECT_FALSE(s.observe(2, 11));  // gap: 1 missing
  EXPECT_EQ(s.freshness(), 0u);
  EXPECT_EQ(s.backlog(), 1u);
  EXPECT_TRUE(s.observe(1, 10));  // fills the gap, drains 2
  EXPECT_EQ(s.freshness(), 11u);
  EXPECT_EQ(s.backlog(), 0u);
}

TEST(GossipStream, DuplicatesIgnored) {
  gossip_stream s;
  EXPECT_TRUE(s.observe(1, 10));
  EXPECT_FALSE(s.observe(1, 10));
  EXPECT_FALSE(s.observe(1, 99));
  EXPECT_EQ(s.freshness(), 10u);
}

// ---------- engine mechanics ----------

TEST(QuorumService, SingleKeyRoundTrip) {
  const auto fig = make_figure1();
  service_world w(4, fig.gqs, fault_plan::none(4), 1);
  w.client.invoke_write(0, 2, 42);
  ASSERT_TRUE(w.settle());
  const auto ri = w.client.invoke_read(1, 2);
  ASSERT_TRUE(w.settle());
  EXPECT_EQ(w.client.history().at(ri).op.value, 42);
  EXPECT_EQ(w.client.history().at(ri).op.version,
            (reg_version{1, 0}));
}

TEST(QuorumService, OperationsCoalesceIntoSharedBatches) {
  const auto fig = make_figure1();
  service_world w(16, fig.gqs, fault_plan::none(4), 2);
  // 8 writes issued at the same instant at process 0: the service must
  // flush them as ONE set batch behind ONE clock probe (each write is a
  // get phase then a set phase; phases of concurrent ops coalesce).
  for (service_key k = 0; k < 8; ++k)
    w.client.invoke_write(0, k, 100 + static_cast<reg_value>(k));
  ASSERT_TRUE(w.settle());
  const auto& c = w.nodes[0]->counters();
  EXPECT_EQ(c.ops_started, 16u);  // 8 gets + 8 sets
  EXPECT_EQ(c.ops_completed, 16u);
  EXPECT_EQ(c.probes_sent, 1u) << "get phases must share one CLOCK probe";
  // The 8 set phases start when their get phases complete; gets complete
  // together (same cutoff, same gossip tick), so the sets coalesce too.
  EXPECT_LE(c.set_batches_sent, 2u);
  EXPECT_EQ(c.set_entries_sent, 8u);
}

TEST(QuorumService, GossipCarriesOnlyDirtyKeys) {
  const auto fig = make_figure1();
  service_world w(64, fig.gqs, fault_plan::none(4), 3);
  w.client.invoke_write(0, 5, 7);
  ASSERT_TRUE(w.settle());
  w.sim.run_until(w.sim.now() + 200000);  // ~40 idle gossip periods
  for (process_id p = 0; p < 4; ++p) {
    const auto& c = w.nodes[p]->counters();
    EXPECT_GE(c.gossip_batches_sent, 30u) << "process " << p;
    // Only the written key (and only while dirty) ever rides a batch; an
    // idle 64-key service must NOT broadcast 64 entries per period.
    EXPECT_LE(c.gossip_entries_sent, 4u) << "process " << p;
  }
}

TEST(QuorumService, ReplicasConvergeAndKeyClocksTrack) {
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::none(4), 4);
  for (process_id p = 0; p < 4; ++p)
    w.client.invoke_write(p, p, 1000 + p);
  ASSERT_TRUE(w.settle());
  w.sim.run_until(w.sim.now() + 100000);  // let gossip settle
  for (process_id p = 0; p < 4; ++p)
    for (service_key k = 0; k < 4; ++k)
      EXPECT_EQ(w.nodes[p]->local_state(k).value, 1000 + k)
          << "process " << p << " key " << k;
}

TEST(QuorumService, PipelinedOpsOnDistinctKeysOverlap) {
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::none(4), 5);
  // 4 concurrent writes at one process, distinct keys — all must complete
  // (the seed path would require 4 sequential round trips).
  for (service_key k = 0; k < 4; ++k)
    w.client.invoke_write(2, k, static_cast<reg_value>(k));
  ASSERT_TRUE(w.settle());
  EXPECT_EQ(w.client.pending_count(), 0u);
}

TEST(QuorumService, PipelinedFlushCompletesInPinnedOrder) {
  // Gets and sets staged in one instant at a and at b under f1 share a
  // flush; callbacks start more operations into later flushes. The
  // completion order, times and returned versions are pinned bit for bit.
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                  23);
  std::string seq;
  const auto note = [&](process_id p, const std::string& label,
                        const std::vector<reg_state>* states) {
    seq += std::to_string(p);
    seq += label;
    seq += "@";
    seq += std::to_string(w.sim.now());
    if (states) {
      seq += ":";
      for (const reg_state& s : *states) {
        seq += std::to_string(s.version.number);
        seq += ".";
        seq += std::to_string(s.version.writer);
        seq += ",";
      }
    }
    seq += " ";
  };
  const auto wave = [&](process_id p, std::uint64_t round) {
    keyed_register_node& n = *w.nodes[p];
    for (service_key k = 0; k < 4; ++k) {
      std::string label = "r";
      label += std::to_string(round);
      label += "k";
      label += std::to_string(k);
      if ((k + p) % 2 == 0) {
        n.quorum_get(k, [&, p, k, round,
                         label](std::vector<reg_state> states) {
          note(p, label + "g", &states);
          // A follow-up set from the completion lands in a later flush.
          w.nodes[p]->quorum_set(
              k + 4, reg_state{static_cast<reg_value>(k), {round + 1, p}},
              [&, p, label] { note(p, label + "fs", nullptr); });
        });
      } else {
        n.quorum_set(k, reg_state{static_cast<reg_value>(k), {round + 1, p}},
                     [&, p, label] { note(p, label + "s", nullptr); });
      }
    }
  };
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (process_id p = 0; p < 2; ++p)
      w.sim.post(p, [&, p, round] { wave(p, round); });
    w.sim.run_until(w.sim.now() + 40000);
  }
  w.sim.run_until(w.sim.now() + 100000);
  EXPECT_EQ(seq,
            "0r0k0g@5800:0.0,0.0, 0r0k2g@5800:0.0,0.0, 0r0k1s@13060 "
            "0r0k3s@13060 1r0k1g@17631:1.0,0.0, 1r0k3g@17631:1.0,0.0, "
            "1r0k0s@17631 1r0k2s@17631 0r0k0fs@23457 0r0k2fs@23457 "
            "1r0k1fs@32980 1r0k3fs@32980 0r1k0g@48855:2.1,0.0, "
            "0r1k2g@48855:2.1,0.0, 0r1k1s@53122 0r1k3s@53122 "
            "1r1k1g@57318:2.0,0.0, 1r1k3g@57318:2.0,0.0, 1r1k0s@57318 "
            "1r1k2s@57318 0r1k0fs@67163 0r1k2fs@67163 1r1k1fs@72217 "
            "1r1k3fs@72217 0r2k1s@89667 0r2k3s@89667 "
            "0r2k0g@90773:3.1,0.0, 0r2k2g@90773:3.1,0.0, "
            "1r2k1g@93022:3.0,0.0, 1r2k3g@93022:3.0,0.0, 1r2k0s@97469 "
            "1r2k2s@97469 0r2k0fs@109753 0r2k2fs@109753 1r2k1fs@119009 "
            "1r2k3fs@119009 ");
}

// ---------- stream gaps ----------

/// Exposes deliver() so the test can inject a crafted out-of-order
/// gossip (a gap that regular traffic closes only slowly).
struct open_register : keyed_register_node {
  using keyed_register_node::keyed_register_node;
  using keyed_register_node::deliver;
};

TEST(QuorumService, InjectedGossipGapClosesWithoutRepair) {
  const auto fig = make_figure1();
  world<open_register> w(4, fault_plan::none(4), 6, network_options{}, 4,
                         quorum_config::of(fig.gqs), service_options{});
  simulation& sim = w.sim;
  std::vector<open_register*>& nodes = w.nodes;
  // Inject gossip seq 6 from origin 1 into process 0: a 5-deep gap that
  // regular gossip closes within 5 periods, since every channel delivers.
  using gossip_msg = quorum_service<reg_value>::gossip_msg;
  using gossip_entry = quorum_service<reg_value>::gossip_entry;
  sim.post(0, [&] {
    std::vector<gossip_entry> entries;
    nodes[0]->deliver(1, make_message<gossip_msg>(
                             6, 6,
                             pooled_batch<gossip_entry>(std::move(entries),
                                                        nullptr)));
  });
  // Regular gossip reaches seq 5-6 and the backlog drains.
  EXPECT_TRUE(sim.run_until_condition(
      [&] { return nodes[0]->gossip_backlog() == 0; }, 400000));
}

TEST(PooledBatch, StorageReturnsToPoolOnceAfterLastReceiver) {
  // A batch message shared by three receivers hands its entry vector back
  // to the pool when the last handle goes, and only then.
  using gossip_msg = quorum_service<reg_value>::gossip_msg;
  using gossip_entry = quorum_service<reg_value>::gossip_entry;
  auto pool = std::make_shared<batch_pool<gossip_entry>>();
  std::vector<gossip_entry> entries(3);
  const gossip_entry* storage = entries.data();
  message_ptr wire = make_message<gossip_msg>(
      1, 1, pooled_batch<gossip_entry>(std::move(entries), pool));
  std::vector<message_ptr> receivers(3, wire);
  wire = nullptr;
  for (std::size_t r = 0; r + 1 < receivers.size(); ++r) {
    receivers[r] = nullptr;
    EXPECT_EQ(pool->free_count(), 0u) << "after receiver " << r;
  }
  EXPECT_EQ(message_cast<gossip_msg>(receivers.back())->entries.size(), 3u);
  receivers.back() = nullptr;
  ASSERT_EQ(pool->free_count(), 1u);
  const std::vector<gossip_entry> reused = pool->acquire();
  EXPECT_EQ(reused.data(), storage);  // the same buffer, emptied
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(pool->free_count(), 0u);
}

// ---------- tick-only clocks: freshness waits stay flat ----------

/// Runs `ops` keyed operations at each process of `clients`, `window` in
/// flight per client: slot s of client p owns key p * window + s and
/// alternates writing and reading it. Returns every latency in completion
/// order, or nothing if the run did not finish within kLong.
std::vector<sim_time> run_windowed(service_world& w,
                                   const process_set& clients, int ops,
                                   int window) {
  std::vector<sim_time> latencies;
  std::function<void(process_id, service_key, int)> issue =
      [&](process_id p, service_key key, int i) {
        const sim_time t0 = w.sim.now();
        const auto next = [&, p, key, i, t0] {
          latencies.push_back(w.sim.now() - t0);
          if (i + window < ops) issue(p, key, i + window);
        };
        if ((i / window) % 2 == 0)
          w.nodes[p]->write(key, i, [next](reg_version) { next(); });
        else
          w.nodes[p]->read(key, [next](reg_value, reg_version) { next(); });
      };
  for (process_id p : clients)
    for (int s = 0; s < window; ++s)
      w.sim.post(p, [&, p, s] {
        issue(p, static_cast<service_key>(p * window + s), s);
      });
  const std::size_t total = clients.size() * static_cast<std::size_t>(ops);
  if (!w.sim.run_until_condition([&] { return latencies.size() == total; },
                                 w.sim.now() + kLong))
    return {};
  return latencies;
}

/// Every live process's clock moved exactly once per gossip it sent.
void expect_tick_only_clocks(const service_world& w, const process_set& live,
                             std::uint64_t initial_clock) {
  for (process_id p : live)
    EXPECT_EQ(w.nodes[p]->engine_clock(),
              initial_clock + w.nodes[p]->counters().gossip_batches_sent)
        << "process " << p;
}

TEST(QuorumService, FreshnessWaitDoesNotGrowWithHistory) {
  // Under f1 only R1 = {a, c} is a usable read quorum and c never receives
  // a SET, so its clock moves on gossip ticks alone. Every cutoff must
  // therefore be reachable by gossip ticks alone: a clock that also
  // counted applied SET entries would put each cutoff one tick further
  // ahead of c per entry so far, and the waits would grow with history.
  const auto fig = make_figure1();
  const failure_pattern& f1 = fig.gqs.fps[0];
  const process_set clients = compute_u_f(fig.gqs, f1);
  service_options opts;
  opts.initial_clock = 100;
  service_world w(8, fig.gqs, fault_plan::from_pattern(f1, 0), 11, opts);
  const std::vector<sim_time> latencies = run_windowed(w, clients, 500, 4);
  ASSERT_EQ(latencies.size(), 1000u);
  const sim_time slowest_tail =
      *std::max_element(latencies.end() - 100, latencies.end());
  EXPECT_LE(slowest_tail, 100000) << "the last 100 ops waited too long";
  expect_tick_only_clocks(w, f1.correct(), opts.initial_clock);

  // The strategy-driven fast path: targeting changes which processes
  // apply a SET, never how fast any clock moves.
  opts.selector = std::make_shared<const quorum_selector>(
      plan_optimal(fig.gqs).strategy, 3);
  service_world t(8, fig.gqs, fault_plan::from_pattern(f1, 0), 12, opts);
  ASSERT_EQ(run_windowed(t, clients, 500, 4).size(), 1000u);
  EXPECT_GT(t.nodes[0]->counters().targeted_set_batches, 0u);
  expect_tick_only_clocks(t, f1.correct(), opts.initial_clock);
}

TEST(QuorumService, SetAckWaitsForTheGossipThatCarriesIt) {
  // A 200 ms gossip period dwarfs the 1-10 ms network delays, so a write
  // and the read after it usually fit between two ticks. The SET ack must
  // carry the next gossip's clock: an ack at the current clock would let
  // the write's confirmation, and then the read's cutoff, be met by the
  // gossip sent *before* the apply, and the read would return the old
  // value. Under the real protocol each write waits for the tick that
  // carries it.
  const auto fig = make_figure1();
  service_options opts;
  opts.gossip_period = 200000;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    service_world w(1, fig.gqs, fault_plan::none(4), seed, opts);
    for (int round = 0; round < 4; ++round) {
      const process_id writer = static_cast<process_id>(round % 4);
      w.client.invoke_write(writer, 0, 10 * round + 1);
      ASSERT_TRUE(w.settle());
      const auto ri = w.client.invoke_read((writer + 1) % 4, 0);
      ASSERT_TRUE(w.settle());
      EXPECT_EQ(w.client.history().at(ri).op.value, 10 * round + 1)
          << "seed " << seed << " round " << round;
    }
    const auto r = check_linearizable(w.client.history_of(0));
    EXPECT_TRUE(r.linearizable) << "seed " << seed << ": " << r.reason;
  }
}

// ---------- multi-key traces: per-key linearizability ----------

/// A mixed multi-key run under a Figure 1 failure pattern; every per-key
/// projection must independently linearize (black-box Wing–Gong and the
/// white-box Appendix-B checker both accept).
TEST(QuorumService, MultiKeyTracesLinearizePerKey) {
  const auto fig = make_figure1();
  for (int pattern = 0; pattern < 4; ++pattern) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      service_world w(4, fig.gqs,
                      fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                      seed * 977 + static_cast<std::uint64_t>(pattern));
      // Interleave writers and readers over U_f only (the paper's
      // (F, τ)-wait-freedom promises termination there, not at every
      // correct process — under f1, c pushes but never hears back); key p
      // is written by p and concurrently read by two other processes.
      std::vector<process_id> procs;
      for (process_id p : compute_u_f(fig.gqs, fig.gqs.fps[pattern]))
        procs.push_back(p);
      const std::size_t m = procs.size();
      ASSERT_GE(m, 2u);
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < m; ++i) {
          const process_id p = procs[i];
          w.client.invoke_write(p, p,
                                100 * (round + 1) + static_cast<int>(p));
          w.client.invoke_read(procs[(i + 1) % m], p);
          if (m >= 3) w.client.invoke_read(procs[(i + 2) % m], p);
        }
        ASSERT_TRUE(w.settle()) << "pattern " << pattern << " seed " << seed
                                << " round " << round;
      }
      for (service_key k = 0; k < 4; ++k) {
        const register_history h = w.client.history_of(k);
        ASSERT_LE(h.size(), 64u);
        const auto wing_gong = check_linearizable(h);
        EXPECT_TRUE(wing_gong.linearizable)
            << "pattern " << pattern << " seed " << seed << " key " << k
            << ": " << wing_gong.reason;
        const auto white_box = check_history(h);
        EXPECT_TRUE(white_box.linearizable)
            << "pattern " << pattern << " seed " << seed << " key " << k
            << ": " << white_box.reason;
      }
    }
  }
}

// ---------- mutation: a stale read must be caught ----------

TEST(QuorumService, AblatedGetCutoffProducesCaughtStaleRead) {
  // With the Figure 3 get cutoff disabled, a quorum_get completes from
  // arbitrarily stale cached gossip: a read started right after a
  // completed write returns the old value somewhere across seeds, and the
  // Wing–Gong checker must flag the history. (The mirror image of the
  // single-object ablation tests — proving the multi-key engine kept the
  // clock mechanism load-bearing, and that the checker would catch a
  // regression in it.)
  const auto fig = make_figure1();
  service_options ablated;
  ablated.use_get_cutoff = false;
  int violations = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    service_world w(2, fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                    seed, ablated);
    bool ok = true;
    for (int round = 0; round < 6 && ok; ++round) {
      const auto wi = w.client.invoke_write(0, 1, 100 + round);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                      w.sim.now() + kLong);
      if (!ok) break;
      const auto ri = w.client.invoke_read(1, 1);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                      w.sim.now() + kLong);
    }
    if (!ok) continue;
    violations +=
        !check_linearizable(w.client.history_of(1)).linearizable;
  }
  EXPECT_GT(violations, 0);
}

TEST(QuorumService, FullProtocolSafeWhereAblationViolates) {
  // Control for the mutation test: the same scenario under the published
  // protocol stays linearizable for every seed.
  const auto fig = make_figure1();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    service_world w(2, fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                    seed);
    bool ok = true;
    for (int round = 0; round < 6 && ok; ++round) {
      const auto wi = w.client.invoke_write(0, 1, 100 + round);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(wi); },
                                      w.sim.now() + kLong);
      if (!ok) break;
      const auto ri = w.client.invoke_read(1, 1);
      ok &= w.sim.run_until_condition([&] { return w.client.complete(ri); },
                                      w.sim.now() + kLong);
    }
    ASSERT_TRUE(ok) << "seed " << seed;
    const auto r = check_linearizable(w.client.history_of(1));
    EXPECT_TRUE(r.linearizable) << "seed " << seed << ": " << r.reason;
  }
}

// ---------- mutation: the set-confirmation wait is load-bearing ----------

/// The ablation study's disjoint scenario (disjoint_scenario_config)
/// on the keyed register, with p1's clock 1000 ticks ahead: one key,
/// written at 0 and read at 3.
struct disjoint_service_world : world<keyed_register_node> {
  keyed_register_client<keyed_register_node> client{sim, nodes};

  disjoint_service_world(std::uint64_t seed, bool use_set_confirmation)
      : world(4, disjoint_scenario_faults(), seed, network_options{},
              [&](process_id p) {
                service_options opts;
                opts.use_set_confirmation = use_set_confirmation;
                if (p == 1) opts.initial_clock = 1000;
                return std::make_unique<keyed_register_node>(
                    1, disjoint_scenario_config(), opts);
              }) {}

  /// Runs `rounds` of write-at-0-then-read-at-3; returns false on stall.
  bool run_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const auto wi = client.invoke_write(0, 0, 1000 + round);
      if (!sim.run_until_condition([&] { return client.complete(wi); },
                                   sim.now() + kLong))
        return false;
      const auto ri = client.invoke_read(3, 0);
      if (!sim.run_until_condition([&] { return client.complete(ri); },
                                   sim.now() + kLong))
        return false;
    }
    return true;
  }
};

TEST(QuorumService, DroppingSetConfirmationViolatesSomewhere) {
  // Without the set's read-quorum confirmation, a write completes while
  // only {0, 1} hold it; the reader's cutoff then resolves through {2, 3}
  // and the read quorum {1, 2} can answer from pre-write gossip. Some
  // delay schedule in seeds 0..255 must produce a non-linearizable
  // history (about one in six does).
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 256 && !caught; ++seed) {
    disjoint_service_world w(seed, false);
    if (!w.run_rounds(4)) continue;
    caught = !check_linearizable(w.client.history_of(0)).linearizable;
  }
  EXPECT_TRUE(caught);
}

TEST(QuorumService, FullProtocolSafeInDisjointScenario) {
  // Control: the published protocol is safe there for every seed.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    disjoint_service_world w(seed, true);
    ASSERT_TRUE(w.run_rounds(4)) << "seed " << seed;
    const auto r = check_linearizable(w.client.history_of(0));
    EXPECT_TRUE(r.linearizable) << "seed " << seed << ": " << r.reason;
  }
}

TEST(QuorumService, CompletesAndStaysLinearizableOnCongestedLinks) {
  // Per-link bandwidth on: every probe, set batch and gossip pays
  // serialization time and queues FIFO behind earlier traffic; congestion
  // delays but never loses protocol messages.
  network_options net;
  net.channel.bytes_per_us = 0.5;
  const auto fig = make_figure1();
  service_world w(8, fig.gqs, fault_plan::none(4), /*seed=*/5, {}, net);
  for (int round = 0; round < 4; ++round) {
    for (process_id p = 0; p < 4; ++p)
      w.client.invoke_write(p, p % 8, 10 * round + p);
    ASSERT_TRUE(w.settle()) << "round " << round;
    for (process_id p = 0; p < 4; ++p)
      w.client.invoke_read((p + 1) % 4, p % 8);
    ASSERT_TRUE(w.settle()) << "round " << round;
  }
  for (service_key k = 0; k < 8; ++k) {
    const auto r = check_linearizable(w.client.history_of(k));
    EXPECT_TRUE(r.linearizable) << "key " << k << ": " << r.reason;
  }
  EXPECT_GT(w.sim.metrics().bytes_sent, 0u);
  EXPECT_GT(w.sim.metrics().max_link_queue_depth, 0u);
}

/// One cell of the Figure-1 keyed workload: 256 zipfian keys, 4 processes
/// x 120 ops, window 4, writes partitioned per process (so each key's
/// final state is a pure function of the schedule), no failures. After a
/// gossip quiesce, every process must hold the freshest (value, version)
/// of every key; the cell fingerprints those finals.
run_result service_cell(std::uint64_t seed) {
  constexpr service_key kKeys = 256;
  const auto fig = make_figure1();
  world<keyed_register_node> w(4, fault_plan::none(4), seed,
                               network_options{}, kKeys,
                               quorum_config::of(fig.gqs), service_options{});
  client_workload_options load;
  load.keys = kKeys;
  load.zipf_theta = 0.99;
  load.read_ratio = 0.5;
  load.ops_per_process = 120;
  load.inflight_window = 4;
  load.partition_writes = true;
  load.seed = 20250730;
  workload_driver<keyed_node_adapter<keyed_register_node>> driver(
      w.sim, keyed_node_adapter<keyed_register_node>{w.nodes}, load);
  driver.launch();
  run_result out;
  out.ok = w.sim.run_until_condition([&] { return driver.done(); }, kLong);
  if (!out.ok) {
    out.error = "workload did not complete";
    return out;
  }
  w.sim.run_until(w.sim.now() + 200000);  // gossip quiesce
  out.metrics = w.sim.metrics();
  out.latencies_us = driver.latencies_us();
  out.stats["completed"] = static_cast<double>(driver.completed());
  out.stats["linearizable"] =
      check_keyed_history(driver.history(), kKeys).linearizable ? 1 : 0;
  // FNV-1a over every key's freshest (value, version), 52 bits.
  std::uint64_t digest = 14695981039346656037ull;
  for (service_key k = 0; k < kKeys; ++k) {
    reg_state freshest;
    for (const keyed_register_node* n : w.nodes)
      if (n->local_state(k).version >= freshest.version)
        freshest = n->local_state(k);
    for (const keyed_register_node* n : w.nodes)
      if (!(n->local_state(k) == freshest)) ++out.stats["diverged_keys"];
    for (const std::uint64_t x :
         {static_cast<std::uint64_t>(freshest.value), freshest.version.number,
          std::uint64_t{freshest.version.writer}}) {
      digest ^= x;
      digest *= 1099511628211ull;
    }
  }
  out.stats["finals_digest"] = static_cast<double>(digest >> 12);
  return out;
}

TEST(QuorumService, RunnerThreadsLeaveServiceCellsUnchanged) {
  // Pooled gossip batches count their references without atomics, so
  // each simulation must keep its batches to its own thread: three cells
  // on a 2-thread runner come back equal to the 1-thread run (under TSAN,
  // without a report), and each converges.
  std::vector<run_spec> specs;
  for (std::uint64_t seed = 2; seed <= 4; ++seed)
    specs.push_back({"svc seed " + std::to_string(seed),
                     [seed] { return service_cell(seed); }});
  const determinism_report report = check_determinism(specs, {1, 2});
  EXPECT_TRUE(report.ok()) << report.error;
  ASSERT_EQ(report.results.size(), 3u);
  for (const run_result& r : report.results) {
    EXPECT_EQ(stat_or(r, "completed"), 4 * 120);
    EXPECT_EQ(stat_or(r, "diverged_keys"), 0);
    EXPECT_EQ(stat_or(r, "linearizable"), 1);
  }
  // Partitioned writes make the finals a pure function of the schedule,
  // which the network seed does not change.
  EXPECT_EQ(stat_or(report.results[0], "finals_digest"),
            stat_or(report.results[2], "finals_digest"));
}

}  // namespace
}  // namespace gqs
