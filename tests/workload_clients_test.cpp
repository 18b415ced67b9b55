// Tests for the keyed workload drivers (workload/clients.hpp): schedule
// determinism, zipf sampling, closed/open-loop execution over the quorum
// service, engine-independent final states, and per-key history
// linearizability of driver-generated traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <type_traits>

#include "core/factories.hpp"
#include "lincheck/wing_gong.hpp"
#include "register/keyed_register.hpp"
#include "workload/clients.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

constexpr sim_time kLong = 600L * 1000 * 1000;

TEST(ZipfSampler, UniformAtThetaZero) {
  zipf_sampler z(8, 0.0);
  std::mt19937_64 rng(7);
  std::map<service_key, int> counts;
  for (int i = 0; i < 8000; ++i) ++counts[z(rng)];
  for (service_key k = 0; k < 8; ++k) {
    EXPECT_GT(counts[k], 800) << "key " << k;
    EXPECT_LT(counts[k], 1200) << "key " << k;
  }
}

TEST(ZipfSampler, SkewsTowardLowKeys) {
  zipf_sampler z(256, 0.99);
  std::mt19937_64 rng(7);
  std::map<service_key, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[z(rng)];
  EXPECT_GT(counts[0], counts[128] * 4);
  EXPECT_GT(counts[0], 1000);  // the hot key draws a large share
}

TEST(Schedules, DeterministicAndWellFormed) {
  client_workload_options opts;
  opts.keys = 32;
  opts.ops_per_process = 100;
  opts.seed = 42;
  const auto a = make_schedules(4, opts);
  const auto b = make_schedules(4, opts);
  ASSERT_EQ(a.size(), 4u);
  for (process_id p = 0; p < 4; ++p) {
    ASSERT_EQ(a[p].size(), 100u);
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_EQ(a[p][i].is_read, b[p][i].is_read);
      EXPECT_EQ(a[p][i].key, b[p][i].key);
      EXPECT_EQ(a[p][i].value, b[p][i].value);
      EXPECT_LT(a[p][i].key, 32u);
      // partition_writes: every write of process p lands on a key ≡ p.
      if (!a[p][i].is_read) {
        EXPECT_EQ(a[p][i].key % 4, p);
      }
    }
  }
  // Different seeds give different schedules.
  opts.seed = 43;
  const auto c = make_schedules(4, opts);
  bool differs = false;
  for (std::size_t i = 0; i < 100; ++i)
    differs |= c[0][i].key != a[0][i].key ||
               c[0][i].is_read != a[0][i].is_read;
  EXPECT_TRUE(differs);
}

TEST(Schedules, PartitionedWritesStayInRangeWithTruncatedTopBlock) {
  // keys not a multiple of n: the top block is truncated, and high-ranked
  // draws must still land on an in-range key of the writer's partition.
  client_workload_options opts;
  opts.keys = 10;  // blocks {0..3} {4..7} {8,9}
  opts.ops_per_process = 400;
  opts.zipf_theta = 0.0;  // uniform: the top block is actually drawn
  opts.seed = 3;
  const auto s = make_schedules(4, opts);
  for (process_id p = 0; p < 4; ++p)
    for (const client_op& op : s[p])
      if (!op.is_read) {
        ASSERT_LT(op.key, opts.keys);
        EXPECT_EQ(op.key % 4, p);
      }
  // Fewer keys than processes cannot satisfy one-partition-per-process.
  opts.keys = 3;
  EXPECT_THROW(make_schedules(4, opts), std::invalid_argument);
}

TEST(Schedules, ReadRatioRespected) {
  client_workload_options opts;
  opts.keys = 16;
  opts.ops_per_process = 1000;
  opts.read_ratio = 0.75;
  const auto s = make_schedules(2, opts);
  int reads = 0;
  for (const client_op& op : s[0]) reads += op.is_read;
  EXPECT_GT(reads, 650);
  EXPECT_LT(reads, 850);
}

TEST(Schedules, StreamFrontPeeksTheNextPop) {
  client_workload_options opts;
  opts.keys = 10;
  opts.ops_per_process = 50;
  opts.zipf_theta = 0.5;
  opts.seed = 9;
  const schedule_samplers samplers(opts);
  schedule_stream stream(1, 3, opts, samplers);
  for (std::uint64_t i = 0; i < opts.ops_per_process; ++i) {
    ASSERT_FALSE(stream.empty());
    const client_op peeked = stream.front();
    const client_op got = stream.pop();
    EXPECT_EQ(peeked.is_read, got.is_read);
    EXPECT_EQ(peeked.key, got.key);
    EXPECT_EQ(peeked.value, got.value);
  }
  EXPECT_TRUE(stream.empty());
  opts.ops_per_process = 0;
  EXPECT_TRUE(schedule_stream(0, 3, opts, samplers).empty());
}

// ---------- drivers over the quorum service ----------

using register_driver =
    workload_driver<keyed_node_adapter<keyed_register_node>>;
static_assert(!std::is_move_constructible_v<register_driver>);
static_assert(!std::is_copy_constructible_v<register_driver>);

struct driver_world : world<keyed_register_node> {
  register_driver driver;

  driver_world(const client_workload_options& opts, std::uint64_t sim_seed,
               service_options svc = {})
      : world(4, fault_plan::none(4), sim_seed, network_options{}, opts.keys,
              quorum_config::of(make_figure1().gqs), svc),
        driver(sim, keyed_node_adapter<keyed_register_node>{nodes}, opts) {}

  bool run() {
    driver.launch();
    return sim.run_until_condition([&] { return driver.done(); },
                                   sim.now() + kLong);
  }
};

client_workload_options small_workload() {
  client_workload_options opts;
  opts.keys = 8;
  opts.ops_per_process = 12;
  opts.zipf_theta = 0.99;
  opts.read_ratio = 0.5;
  opts.inflight_window = 4;
  opts.seed = 11;
  return opts;
}

/// Expected final per-key states: with partitioned writes, key k is
/// written only by process k mod n, in schedule order — the last write
/// wins with version (#writes, owner).
std::map<service_key, std::pair<reg_value, reg_version>> expected_finals(
    process_id n, const client_workload_options& opts) {
  const auto schedules = make_schedules(n, opts);
  std::map<service_key, std::pair<reg_value, reg_version>> out;
  std::map<service_key, std::uint64_t> writes;
  for (process_id p = 0; p < n; ++p)
    for (const client_op& op : schedules[p])
      if (!op.is_read) ++writes[op.key];
  for (process_id p = 0; p < n; ++p)
    for (const client_op& op : schedules[p])
      if (!op.is_read)
        out[op.key] = {op.value, reg_version{writes[op.key], p}};
  return out;
}

TEST(WorkloadDriver, ClosedLoopCompletesAndLinearizesPerKey) {
  const auto opts = small_workload();
  driver_world w(opts, 5);
  ASSERT_TRUE(w.run());
  EXPECT_EQ(w.driver.completed(), 4u * opts.ops_per_process);
  for (service_key k = 0; k < opts.keys; ++k) {
    const register_history h = w.driver.history_of(k);
    if (h.empty()) continue;
    ASSERT_LE(h.size(), 64u);
    const auto r = check_linearizable(h);
    EXPECT_TRUE(r.linearizable) << "key " << k << ": " << r.reason;
  }
}

TEST(WorkloadDriver, HistoryReservedForEveryScheduledOp) {
  const auto opts = small_workload();
  driver_world w(opts, 5);
  std::size_t scheduled = 0;
  for (const auto& s : make_schedules(4, opts)) scheduled += s.size();
  EXPECT_EQ(w.driver.history().capacity(), scheduled);
  w.driver.launch();
  const auto* buffer = w.driver.history().data();
  ASSERT_TRUE(w.sim.run_until_condition([&] { return w.driver.done(); },
                                        w.sim.now() + kLong));
  EXPECT_EQ(w.driver.history().size(), scheduled);
  EXPECT_EQ(w.driver.history().data(), buffer);
  EXPECT_EQ(w.driver.history().capacity(), scheduled);
}

TEST(WorkloadDriver, FinalStatesMatchScheduleDerivation) {
  const auto opts = small_workload();
  driver_world w(opts, 6);
  ASSERT_TRUE(w.run());
  w.sim.run_until(w.sim.now() + 200000);  // let the last write-backs gossip
  const auto finals = expected_finals(4, opts);
  for (const auto& [key, expect] : finals) {
    for (process_id p = 0; p < 4; ++p) {
      const auto& s = w.nodes[p]->local_state(key);
      EXPECT_EQ(s.value, expect.first) << "key " << key << " at " << p;
      EXPECT_EQ(s.version, expect.second) << "key " << key << " at " << p;
    }
  }
}

TEST(WorkloadDriver, FinalStatesEngineTimingIndependent) {
  // The same schedule driven with different in-flight windows, think
  // times and simulation seeds must land every key in the same final
  // state — the property the service-vs-seed bench cross-check rests on.
  auto opts = small_workload();
  driver_world base(opts, 7);
  ASSERT_TRUE(base.run());
  base.sim.run_until(base.sim.now() + 200000);

  auto sequential = opts;
  sequential.inflight_window = 1;
  sequential.think_time = 3000;
  driver_world other(sequential, 8);
  ASSERT_TRUE(other.run());
  other.sim.run_until(other.sim.now() + 200000);

  for (service_key k = 0; k < opts.keys; ++k) {
    EXPECT_EQ(base.nodes[0]->local_state(k).value,
              other.nodes[0]->local_state(k).value)
        << "key " << k;
    EXPECT_EQ(base.nodes[0]->local_state(k).version,
              other.nodes[0]->local_state(k).version)
        << "key " << k;
  }
}

TEST(WorkloadDriver, OpenLoopCompletes) {
  auto opts = small_workload();
  opts.open_interval = 2000;  // one arrival per 2 ms per process
  driver_world w(opts, 9);
  ASSERT_TRUE(w.run());
  EXPECT_EQ(w.driver.completed(), 4u * opts.ops_per_process);
  for (service_key k = 0; k < opts.keys; ++k) {
    const register_history h = w.driver.history_of(k);
    if (h.empty()) continue;
    const auto r = check_linearizable(h);
    EXPECT_TRUE(r.linearizable) << "key " << k << ": " << r.reason;
  }
}

/// What a history record says was scheduled: (kind, key, write value).
using scheduled_op = std::tuple<bool, service_key, reg_value>;

scheduled_op as_scheduled(const client_op& op) {
  return {op.is_read, op.key, op.is_read ? 0 : op.value};
}

/// Process p's issued operations, in issue order.
std::vector<scheduled_op> issued_by(
    const std::vector<keyed_register_op>& history, process_id p) {
  std::vector<scheduled_op> out;
  for (const keyed_register_op& rec : history)
    if (rec.op.proc == p) {
      const bool read = rec.op.kind == reg_op_kind::read;
      out.emplace_back(read, rec.key, read ? 0 : rec.op.value);
    }
  return out;
}

TEST(WorkloadDriver, ClosedLoopIssuesTheScheduleInOrder) {
  const auto opts = small_workload();
  ASSERT_EQ(opts.inflight_window, 4);
  driver_world w(opts, 12);
  ASSERT_TRUE(w.run());
  const auto schedules = make_schedules(4, opts);
  for (process_id p = 0; p < 4; ++p) {
    std::vector<scheduled_op> want;
    for (const client_op& op : schedules[p]) want.push_back(as_scheduled(op));
    EXPECT_EQ(issued_by(w.driver.history(), p), want) << "process " << p;
  }
}

TEST(WorkloadDriver, OpenLoopKeepsPerKeyScheduleOrderAcrossDeferrals) {
  auto opts = small_workload();
  opts.ops_per_process = 40;
  opts.open_interval = 10;  // arrivals far faster than operations finish
  driver_world w(opts, 13);
  ASSERT_TRUE(w.run());
  const auto schedules = make_schedules(4, opts);
  int reordered = 0;
  for (process_id p = 0; p < 4; ++p) {
    std::vector<scheduled_op> want;
    for (const client_op& op : schedules[p]) want.push_back(as_scheduled(op));
    std::vector<scheduled_op> got = issued_by(w.driver.history(), p);
    // Without a deferral, issue order is arrival order.
    reordered += got != want;
    for (service_key k = 0; k < opts.keys; ++k) {
      std::vector<scheduled_op> want_k, got_k;
      for (const scheduled_op& op : want)
        if (std::get<1>(op) == k) want_k.push_back(op);
      for (const scheduled_op& op : got)
        if (std::get<1>(op) == k) got_k.push_back(op);
      EXPECT_EQ(got_k, want_k) << "process " << p << " key " << k;
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "process " << p;
  }
  EXPECT_GE(reordered, 1);
}

TEST(WorkloadDriver, ConstructionValidatesOptions) {
  auto opts = small_workload();
  opts.keys = 3;  // fewer keys than processes, writes partitioned
  EXPECT_THROW(driver_world(opts, 5), std::invalid_argument);
  opts = small_workload();
  opts.inflight_window = 0;
  EXPECT_THROW(driver_world(opts, 5), std::invalid_argument);
}

TEST(WorkloadDriver, PerKeyLoadAndLatenciesRecorded) {
  const auto opts = small_workload();
  driver_world w(opts, 10);
  ASSERT_TRUE(w.run());
  const auto loads = w.driver.per_key_ops();
  std::uint64_t total = 0;
  for (std::uint64_t c : loads) total += c;
  EXPECT_EQ(total, 4u * opts.ops_per_process);
  const auto lat = w.driver.latencies_us();
  EXPECT_EQ(lat.size(), 4u * opts.ops_per_process);
  sample_accumulator acc;
  acc.add(lat);
  const auto s = acc.summary();
  EXPECT_GT(s.p50, 0.0);
  EXPECT_GE(s.p95, s.p50);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_GE(s.max, s.p99);
}

}  // namespace
}  // namespace gqs
