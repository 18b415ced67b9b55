// Tests for the parallel experiment runner (sim/runner.hpp): results must
// be bit-identical for any thread count, land in spec order, capture cell
// exceptions, and aggregate correctly; the count env knobs parse strictly.
#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <locale>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/factories.hpp"
#include "lincheck/wing_gong.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

/// Everything deterministic about a run_result (wall_ms excluded).
void expect_same_result(const run_result& a, const run_result& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.sim_end, b.sim_end);
  EXPECT_EQ(a.latencies_us, b.latencies_us);
  EXPECT_EQ(a.stats, b.stats);
}

/// A real protocol cell: a register world driving writes+reads under a
/// Figure 1 pattern. Returns per-op latencies and the final metrics.
run_result register_cell(int pattern, std::uint64_t seed) {
  const auto fig = make_figure1();
  register_world<gqs_register_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[pattern], 0), seed,
      network_options{}, quorum_config::of(fig.gqs), reg_state{},
      generalized_qaf_options{});
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  run_result out;
  const process_id p = u_f.first();
  for (int i = 0; i < 3; ++i) {
    const sim_time begin = w.sim.now();
    const std::size_t wi = w.client.invoke_write(p, 10 + i);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); }, begin + 600L * 1000 * 1000));
    out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
  }
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["linearizable"] =
      check_linearizable(w.client.history()).linearizable ? 1 : 0;
  return out;
}

std::vector<run_spec> register_grid() {
  std::vector<run_spec> specs;
  for (int pattern = 0; pattern < 4; ++pattern)
    for (std::size_t rep = 0; rep < 2; ++rep) {
      const std::uint64_t seed = grid_seed(99, 0, pattern, rep);
      specs.push_back({"f" + std::to_string(pattern + 1) + "/r" +
                           std::to_string(rep),
                       [pattern, seed] {
                         return register_cell(pattern, seed);
                       }});
    }
  return specs;
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  const auto r1 = experiment_runner(1).run_all(register_grid());
  const auto r4 = experiment_runner(4).run_all(register_grid());
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_TRUE(r1[i].ok);
    EXPECT_EQ(r1[i].stats.at("linearizable"), 1);
    expect_same_result(r1[i], r4[i]);
  }
}

TEST(Runner, RepeatedRunsIdentical) {
  const experiment_runner runner(3);
  const auto a = runner.run_all(register_grid());
  const auto b = runner.run_all(register_grid());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_result(a[i], b[i]);
}

TEST(Runner, ResultsInSpecOrder) {
  std::vector<run_spec> specs;
  for (int i = 0; i < 20; ++i)
    specs.push_back({"cell" + std::to_string(i), [i] {
                       run_result r;
                       r.stats["index"] = i;
                       return r;
                     }});
  const auto results = experiment_runner(8).run_all(specs);
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(results[i].stats.at("index"), i) << "cell " << i;
}

TEST(Runner, ExceptionsCapturedPerCell) {
  std::vector<run_spec> specs;
  specs.push_back({"ok", [] { return run_result{}; }});
  specs.push_back(
      {"throws", []() -> run_result { throw std::runtime_error("boom"); }});
  const auto results = experiment_runner(2).run_all(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error, "boom");
}

// The benches' determinism gate: a clean grid passes with the first
// thread count's results; a cell that fails at every thread count (so it
// "agrees" with itself) and a cell whose output changes between runs are
// each rejected by label.
TEST(Runner, DeterminismCheckRejectsFailedAndDivergentCells) {
  const std::vector<run_spec> clean = register_grid();
  const determinism_report pass = check_determinism(clean, {1, 2});
  EXPECT_TRUE(pass.ok()) << pass.error;
  const auto serial = experiment_runner(1).run_all(clean);
  ASSERT_EQ(pass.results.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_same_result(pass.results[i], serial[i]);

  std::vector<run_spec> failing = clean;
  failing.insert(failing.begin() + 1, {"timed-out", [] {
                                         run_result r;
                                         r.ok = false;
                                         r.error = "horizon passed";
                                         return r;
                                       }});
  const determinism_report failed = check_determinism(failing, {1, 2});
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.error.find("timed-out"), std::string::npos)
      << failed.error;
  EXPECT_NE(failed.error.find("horizon passed"), std::string::npos)
      << failed.error;

  auto calls = std::make_shared<int>(0);
  std::vector<run_spec> divergent = clean;
  divergent.push_back({"counter", [calls] {
                         run_result r;
                         r.stats["call"] = ++*calls;
                         return r;
                       }});
  const determinism_report differs = check_determinism(divergent, {1, 2});
  EXPECT_FALSE(differs.ok());
  EXPECT_NE(differs.error.find("counter"), std::string::npos)
      << differs.error;
  EXPECT_NE(differs.error.find("stats"), std::string::npos) << differs.error;
  EXPECT_EQ(*calls, 2);
}

TEST(Runner, EmptyGrid) {
  EXPECT_TRUE(experiment_runner(4).run_all({}).empty());
}

TEST(Runner, AggregateFoldsMetricsAndLatencies) {
  std::vector<run_result> results(2);
  results[0].metrics.messages_sent = 10;
  results[0].metrics.events_processed = 100;
  results[0].latencies_us = {1.0, 3.0};
  results[0].wall_ms = 50;
  results[1].metrics.messages_sent = 5;
  results[1].metrics.events_processed = 60;
  results[1].latencies_us = {2.0};
  results[1].wall_ms = 50;
  results[1].ok = false;

  const run_aggregate a = aggregate(results);
  EXPECT_EQ(a.runs, 2u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_EQ(a.totals.messages_sent, 15u);
  EXPECT_EQ(a.totals.events_processed, 160u);
  EXPECT_EQ(a.latency_us.count, 3u);
  EXPECT_DOUBLE_EQ(a.latency_us.mean, 2.0);
  EXPECT_DOUBLE_EQ(a.wall_ms, 100.0);
  EXPECT_DOUBLE_EQ(a.events_per_sec, 1600.0);  // 160 events / 0.1 s
}

TEST(Runner, AggregateRendersJson) {
  const std::string json = to_json(aggregate({}));
  EXPECT_NE(json.find("\"runs\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\": 0"), std::string::npos);
}

TEST(Runner, JsonCarriesMeanAndMax) {
  run_result r;
  r.latencies_us = {1.5, 2.5, 10.0};
  const std::string json = to_json(aggregate({r}));
  // Load-imbalance records need both ends of the sample, not just the
  // percentiles.
  EXPECT_NE(json.find("\"mean\": "), std::string::npos);
  EXPECT_NE(json.find("\"min\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
}

TEST(Runner, AggregateFoldsChannelMetricsAndLinkBytes) {
  std::vector<run_result> results(2);
  results[0].metrics.bytes_sent = 1000;
  results[0].metrics.bytes_delivered = 900;
  results[0].metrics.dropped_queue_full = 3;
  results[0].metrics.max_link_queue_depth = 7;
  results[0].link_bytes = {400.0, 600.0};
  results[1].metrics.bytes_sent = 500;
  results[1].metrics.bytes_delivered = 500;
  results[1].metrics.max_link_queue_depth = 2;
  results[1].link_bytes = {500.0};

  const run_aggregate a = aggregate(results);
  EXPECT_EQ(a.totals.bytes_sent, 1500u);
  EXPECT_EQ(a.totals.bytes_delivered, 1400u);
  EXPECT_EQ(a.totals.dropped_queue_full, 3u);
  EXPECT_EQ(a.totals.max_link_queue_depth, 7u);  // max, not sum
  EXPECT_EQ(a.link_bytes.count, 3u);
  EXPECT_DOUBLE_EQ(a.link_bytes.mean, 500.0);
  EXPECT_DOUBLE_EQ(a.link_bytes.max, 600.0);

  const std::string json = to_json(a);
  EXPECT_NE(json.find("\"bytes_sent\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_delivered\": 1400"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_queue_full\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"max_link_queue_depth\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"link_bytes\": {\"count\": 3"), std::string::npos);
}

/// A silent node whose sends the test drives: the channel layer's queue
/// depth then peaks at the size of a burst.
class burst_node : public node {
 public:
  void on_message(process_id, const message_ptr&) override {}
  using node::send;
};

/// One telemetry-on run: `burst` 64-byte messages onto one slow link at
/// once, so that link's queue peaks at `burst`.
run_result burst_cell(int burst) {
  network_options net;
  net.channel.bytes_per_us = 0.001;  // 64 ms per message: nothing drains
  net.telemetry = true;
  simulation sim(2, net, fault_plan::none(2), 1);
  auto sender = std::make_unique<burst_node>();
  burst_node* from = sender.get();
  sim.set_node(0, std::move(sender));
  sim.set_node(1, std::make_unique<burst_node>());
  sim.start();
  sim.run_until(0);
  for (int i = 0; i < burst; ++i) from->send(1, make_message<message>());
  sim.run_until(1_s);
  run_result r;
  r.metrics = sim.metrics();
  r.obs = sim.obs().metrics.snapshot();
  return r;
}

// The summed snapshot and the typed totals are one surface: every sim.*
// row is exactly its totals field, and the per-run peak, which the totals
// fold by max, has no summed row.
TEST(Runner, ObsAggregateAgreesWithTotals) {
  const std::vector<run_result> results = {burst_cell(3), burst_cell(5)};
  ASSERT_EQ(results[0].metrics.max_link_queue_depth, 3u);
  ASSERT_EQ(results[1].metrics.max_link_queue_depth, 5u);
  const run_aggregate a = aggregate(results);
  EXPECT_EQ(a.totals.max_link_queue_depth, 5u);
  EXPECT_EQ(a.totals.messages_delivered, 8u);

  std::map<std::string, std::uint64_t> fields;
  sim_metrics::for_each_counter([&](const char* name, auto field) {
    fields[std::string("sim.") + name] = a.totals.*field;
  });
  std::size_t sim_rows = 0;
  for (const metric_row& row : a.obs.rows) {
    if (row.name.rfind("sim.", 0) != 0) continue;
    ++sim_rows;
    const auto it = fields.find(row.name);
    ASSERT_NE(it, fields.end()) << row.name << " has no totals field";
    EXPECT_EQ(row.value, it->second) << row.name;
  }
  EXPECT_EQ(sim_rows, fields.size());
}

namespace {

/// A numpunct facet with a comma decimal separator — the shape of locale
/// that corrupts naive iostream-rendered JSON.
class comma_numpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

}  // namespace

TEST(Runner, JsonIsLocaleIndependent) {
  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new comma_numpunct));
  std::string json;
  try {
    run_result r;
    r.latencies_us = {1234.5, 2.25};
    r.wall_ms = 1.5;
    json = to_json(aggregate({r}));
  } catch (...) {
    std::locale::global(previous);
    throw;
  }
  std::locale::global(previous);
  // No comma decimal points, no thousands grouping: every double must
  // render with '.' exactly as under the classic locale.
  EXPECT_EQ(json.find(','), json.find(", "))
      << "first ',' must start a field separator, not a decimal: " << json;
  EXPECT_NE(json.find("\"mean\": 618.375"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 1234.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_ms\": 1.5"), std::string::npos) << json;
}

TEST(Runner, GridSeedStableAndDecorrelated) {
  EXPECT_EQ(grid_seed(1, 2, 3, 4), grid_seed(1, 2, 3, 4));
  EXPECT_NE(grid_seed(1, 2, 3, 4), grid_seed(1, 2, 3, 5));
  EXPECT_NE(grid_seed(1, 2, 3, 4), grid_seed(1, 2, 4, 4));
  EXPECT_NE(grid_seed(1, 2, 3, 4), grid_seed(2, 2, 3, 4));
}

TEST(Runner, ThreadCountResolution) {
  EXPECT_EQ(experiment_runner(7).threads(), 7u);
  EXPECT_GE(experiment_runner(0).threads(), 1u);
}

/// Sets (or, with a null value, unsets) an environment variable for one
/// scope and restores its previous state afterwards.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~scoped_env() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  scoped_env(const scoped_env&) = delete;
  scoped_env& operator=(const scoped_env&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// The thread-count knob parses strictly: a sign, letters or a suffix is an
// error naming the variable (never UINT_MAX threads or a silent default),
// an empty value means unset, and a plain count is taken as is.
TEST(Runner, CountKnobsParseStrictly) {
  constexpr const char* kName = "GQS_RUNNER_THREADS";
  const auto resolve = [] { return experiment_runner().threads(); };
  for (const char* bad : {"-1", "abc", "8x"}) {
    const scoped_env env(kName, bad);
    try {
      const unsigned threads = resolve();
      ADD_FAILURE() << kName << "=" << bad << " resolved to " << threads
                    << " threads";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(kName), std::string::npos)
          << e.what();
    }
  }
  unsigned unset = 0;
  {
    const scoped_env env(kName, nullptr);
    unset = resolve();
  }
  {
    const scoped_env env(kName, "");
    EXPECT_EQ(resolve(), unset);
  }
  const scoped_env env(kName, "3");
  EXPECT_EQ(resolve(), 3u);
}

TEST(Runner, EnvCountBoundsAndDefaults) {
  constexpr const char* kName = "GQS_TEST_ENV_COUNT";
  {
    const scoped_env env(kName, nullptr);
    EXPECT_EQ(env_count(kName), std::nullopt);
  }
  {
    const scoped_env env(kName, "18446744073709551615");
    EXPECT_EQ(env_count(kName), std::uint64_t{18446744073709551615ull});
  }
  {
    const scoped_env env(kName, "18446744073709551616");  // overflows
    EXPECT_THROW(env_count(kName), std::invalid_argument);
  }
  {
    const scoped_env env(kName, "5000000000");
    EXPECT_THROW(env_count(kName, 4294967295u), std::invalid_argument);
  }
  for (const char* bad : {" 3", "3 ", "+3", "0x10", "1e3"}) {
    const scoped_env env(kName, bad);
    EXPECT_THROW(env_count(kName), std::invalid_argument) << bad;
  }
  const scoped_env env(kName, "0");
  EXPECT_EQ(env_count(kName), std::uint64_t{0});
}

}  // namespace
}  // namespace gqs
