// Tests for the workload utilities backing the bench harness (table
// rendering, summary statistics and the world builder) — they are public
// API too.
#include <gtest/gtest.h>

#include <sstream>

#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

TEST(TextTable, RejectsEmptyAndMismatchedRows) {
  EXPECT_THROW(text_table({}), std::invalid_argument);
  text_table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  text_table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23"});
  const std::string s = t.to_string();
  std::istringstream lines(s);
  std::string header, separator, row1, row2;
  std::getline(lines, header);
  std::getline(lines, separator);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_NE(header.find("name"), std::string::npos);
  EXPECT_NE(header.find("value"), std::string::npos);
  EXPECT_EQ(separator.find_first_not_of('-'), std::string::npos);
  // All rows padded to the same width.
  EXPECT_EQ(header.size(), row1.size());
  EXPECT_EQ(row1.size(), row2.size());
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, PrintWritesToStream) {
  text_table t({"h"});
  t.add_row({"v"});
  std::ostringstream out;
  t.print(out);
  EXPECT_EQ(out.str(), t.to_string());
}

TEST(Format, Milliseconds) {
  EXPECT_EQ(fmt_ms(0), "0.00 ms");
  EXPECT_EQ(fmt_ms(1234), "1.23 ms");
  EXPECT_EQ(fmt_ms(1000000), "1000.00 ms");
}

TEST(Format, Doubles) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Format, CountsWithSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
}

TEST(Stats, EmptySample) {
  const sample_summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0);
  EXPECT_EQ(s.p50, 0);
}

TEST(Stats, SingleValue) {
  const sample_summary s = summarize({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 42.0);
  EXPECT_EQ(s.p50, 42.0);
  EXPECT_EQ(s.p95, 42.0);
  EXPECT_EQ(s.min, 42.0);
  EXPECT_EQ(s.max, 42.0);
}

TEST(Stats, KnownDistribution) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const sample_summary s = summarize(std::move(values));
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.51);
  EXPECT_NEAR(s.p95, 95.05, 0.06);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(Stats, UnsortedInputHandled) {
  const sample_summary s = summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.p50, 3.0);
}

TEST(Stats, LatencySummaryFormat) {
  sample_summary s;
  s.mean = 12'345;  // microseconds
  s.p50 = 10'000;
  s.p95 = 20'000;
  EXPECT_EQ(fmt_latency_summary(s), "12.3 / 10.0 / 20.0 ms");
}

// ---------- world<Node> ----------

struct hello : message {};

/// Broadcasts a hello at start; logs (when, from) of every hello heard.
class greeter : public component {
 public:
  bool started = false;
  std::vector<std::pair<sim_time, process_id>> heard;
  void start() override { started = true; broadcast(make_message<hello>()); }
  void deliver(process_id from, const message_ptr&) override {
    heard.emplace_back(now(), from);
  }
};

struct quiet_node : flooding_node {
  void on_deliver(process_id, const message_ptr&) override {}
};

TEST(Worlds, ComponentsHostedNodesInstalledDirectly) {
  world<greeter> hosted(3, fault_plan::none(3), 1, network_options{});
  world<quiet_node> direct(3, fault_plan::none(3), 1, network_options{});
  for (process_id p = 0; p < 3; ++p) {
    auto& host = dynamic_cast<single_host&>(hosted.sim.node_at(p));
    EXPECT_EQ(&host.as<greeter>(), hosted.nodes[p]);
    EXPECT_EQ(&direct.sim.node_at(p), direct.nodes[p]);
  }
}

TEST(Worlds, FactorySeesEachProcessOnceInAscendingOrder) {
  std::vector<process_id> asked;
  world<greeter> w(5, fault_plan::none(5), 1, network_options{},
                   [&](process_id p) {
                     asked.push_back(p);
                     return std::make_unique<greeter>();
                   });
  EXPECT_EQ(asked, (std::vector<process_id>{0, 1, 2, 3, 4}));
}

TEST(Worlds, TimeZeroEventsRunBeforeConstructorReturns) {
  world<greeter> w(3, fault_plan::none(3), 1, network_options{});
  EXPECT_TRUE(w.sim.idle_before(0));
  for (const greeter* g : w.nodes) EXPECT_TRUE(g->started);
}

TEST(Worlds, SameSpecAndSeedGiveIdenticalDeliveryLogs) {
  const auto logs = [](std::uint64_t seed) {
    world<greeter> w(4, fault_plan::none(4), seed, network_options{});
    w.sim.run_until(1'000'000);
    std::vector<std::vector<std::pair<sim_time, process_id>>> out;
    for (const greeter* g : w.nodes) out.push_back(g->heard);
    return out;
  };
  EXPECT_EQ(logs(3), logs(3));
  EXPECT_EQ(logs(3)[0].size(), 4u);  // every hello, its own included
  EXPECT_NE(logs(3), logs(4));       // and the seed steers the delays
}

}  // namespace
}  // namespace gqs
