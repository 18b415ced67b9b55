// Tests for the observability subsystem (src/obs): the counter registry
// and its deterministic snapshot/merge pipeline through the experiment
// runner, the snapshot rows of real worlds against their counter structs,
// the time-series sampler, the span recorder's well-formedness contract,
// and an end-to-end SMR trace whose commit spans causally follow phase 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/factories.hpp"
#include "obs/obs.hpp"
#include "register/atomic_register.hpp"
#include "register/keyed_register.hpp"
#include "sim/runner.hpp"
#include "strategy/selector.hpp"
#include "workload/smr_workload.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

// ---------------------------------------------------------------------
// metrics_registry / metrics_snapshot

/// A two-field counter struct listed the way the real ones are.
struct demo_counters {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;

  template <class F>
  static void for_each_counter(F&& f) {
    f("ops", &demo_counters::ops);
    f("bytes", &demo_counters::bytes);
  }
};

TEST(MetricsRegistry, DisabledHandlesAreNoOps) {
  // A registry that was never enabled drops every registration.
  metrics_registry reg;
  demo_counters c{1, 2};
  reg.observe_counters("demo.", c);
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.snapshot().to_json(), "{}");
}

TEST(MetricsRegistry, ObserversSumUnderOneKey) {
  metrics_registry reg;
  reg.enable();
  // Per-node structs under one prefix sum field by field.
  demo_counters a{1, 100}, b{2, 200};
  reg.observe_counters("demo.", a);
  reg.observe_counters("demo.", b);
  reg.observe_counters("x.", a);

  metrics_snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_value("demo.ops"), 3u);
  EXPECT_EQ(s.counter_value("demo.bytes"), 300u);
  EXPECT_EQ(s.counter_value("x.ops"), 1u);
  EXPECT_EQ(s.counter_value("absent"), 0u);
  // One row per name, sorted by name: the determinism invariant.
  ASSERT_EQ(s.rows.size(), 4u);
  for (std::size_t i = 1; i < s.rows.size(); ++i)
    EXPECT_LT(s.rows[i - 1].name, s.rows[i].name);

  a.ops = 5;  // live reads at snapshot time
  s = reg.snapshot();
  EXPECT_EQ(s.counter_value("demo.ops"), 7u);
  EXPECT_EQ(s.counter_value("x.ops"), 5u);
}

TEST(MetricsSnapshot, MergeAddsAndUnions) {
  demo_counters ca{2, 4}, cb{3, 1};
  metrics_registry ra, rb;
  ra.enable();
  rb.enable();
  ra.observe_counters("", ca);
  rb.observe_counters("", cb);
  rb.observe_counters("b.", cb);

  metrics_snapshot m = ra.snapshot();
  m.merge(rb.snapshot());
  EXPECT_EQ(m.counter_value("ops"), 5u);
  EXPECT_EQ(m.counter_value("bytes"), 5u);
  EXPECT_EQ(m.counter_value("b.ops"), 3u);  // only in rb: unioned
  ASSERT_EQ(m.rows.size(), 4u);
  EXPECT_EQ(m.rows[0].name, "b.bytes");
  EXPECT_EQ(m.rows[3].name, "ops");

  // Merging into an empty snapshot copies; merging an empty one is inert.
  metrics_snapshot copy;
  copy.merge(m);
  EXPECT_EQ(copy, m);
  copy.merge(metrics_snapshot{});
  EXPECT_EQ(copy, m);

  // Digest and JSON are pure functions of the rows: equal snapshots agree,
  // distinct ones differ, and the rendering is pinned.
  metrics_snapshot again = ra.snapshot();
  again.merge(rb.snapshot());
  EXPECT_EQ(again.digest(), m.digest());
  EXPECT_NE(m.digest(), ra.snapshot().digest());
  EXPECT_NE((metrics_snapshot{{{"ab", 1}, {"c", 1}}}).digest(),
            (metrics_snapshot{{{"a", 1}, {"bc", 1}}}).digest());
  EXPECT_EQ(m.to_json(),
            "{\"counters\":{\"b.bytes\":1,\"b.ops\":3,\"bytes\":5,"
            "\"ops\":5}}");
  EXPECT_EQ(again.to_json(), m.to_json());
}

// ---------------------------------------------------------------------
// timeseries_sampler

TEST(TimeseriesSampler, PeriodicPointsWithSumAndMaxFolding) {
  timeseries_sampler s;
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.next_due(), sim_time_never);
  s.configure(10);
  ASSERT_TRUE(s.enabled());
  EXPECT_EQ(s.next_due(), 10);

  std::int64_t depth_a = 1, depth_b = 2, view = 3;
  s.add_probe("depth", [&depth_a] { return depth_a; });
  s.add_probe("depth", [&depth_b] { return depth_b; });  // same series: sum
  s.add_probe("view", [&view] { return view; }, timeseries_sampler::agg::max);

  s.sample_due(10);
  depth_a = 5;
  view = 9;
  s.sample_due(25);  // due instants 20 only (latest <= 25)
  EXPECT_EQ(s.next_due(), 30);

  ASSERT_EQ(s.all().size(), 2u);
  const auto& depth = s.all()[0];
  EXPECT_EQ(depth.name, "depth");
  ASSERT_EQ(depth.points.size(), 2u);
  EXPECT_EQ(depth.points[0].at, 10);
  EXPECT_EQ(depth.points[0].value, 3);  // 1 + 2
  EXPECT_EQ(depth.points[1].at, 20);
  EXPECT_EQ(depth.points[1].value, 7);  // 5 + 2
  const auto& views = s.all()[1];
  EXPECT_EQ(views.points[1].value, 9);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"period_us\":10"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("[20,7]"), std::string::npos);
}

TEST(TimeseriesSampler, DisabledSamplerDropsProbes) {
  timeseries_sampler s;  // not configured
  s.add_probe("x", [] { return std::int64_t{1}; });
  s.sample_due(100);
  EXPECT_TRUE(s.all().empty());
}

// ---------------------------------------------------------------------
// trace_recorder

TEST(TraceRecorder, SpansOnlyWhenRecording) {
  trace_recorder rec;
  EXPECT_FALSE(rec.active());
  EXPECT_FALSE(rec.begin_span("op", "t", 0, {}, 5).valid());
  rec.start_recording();
  EXPECT_TRUE(rec.active());
  const span_ref s = rec.begin_span("op", "t", 0, {}, 5);
  ASSERT_TRUE(s.valid());
  rec.end_span(s, 9);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].start, 5);
  EXPECT_EQ(rec.spans()[0].end, 9);
}

TEST(TraceRecorder, FinalizeClosesAndWidensParents) {
  trace_recorder rec;
  rec.start_recording();
  const span_ref root = rec.begin_span("root", "t", 0, {}, 10);
  const span_ref child = rec.begin_span("child", "t", 1, root, 20);
  rec.end_span(child, 80);
  rec.end_span(root, 50);  // closed before its child ends
  const span_ref late = rec.begin_span("late", "t", 0, root, 30);
  (void)late;  // left open
  rec.finalize(100);
  for (const span_rec& s : rec.spans()) {
    EXPECT_GE(s.end, s.start) << s.name;  // everything closed
    if (s.parent != 0) {
      ASSERT_LT(s.parent, s.id);  // parents precede children
      const span_rec& p = rec.spans()[s.parent - 1];
      EXPECT_LE(p.start, s.start) << s.name;
      EXPECT_GE(p.end, s.end) << s.name;  // parent covers the child
    }
  }
  const std::string json = rec.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
}

TEST(TraceRecorder, NetworkEventsFeedSinkAndSpanLayer) {
  trace_recorder rec;
  std::vector<trace_event> sunk;
  rec.set_event_sink([&sunk](const trace_event& ev) { sunk.push_back(ev); });
  rec.start_recording();
  trace_event ev;
  ev.what = trace_event::kind::send;
  ev.at = 4;
  ev.from = 1;
  ev.to = 2;
  rec.network_event(ev, {});
  ASSERT_EQ(sunk.size(), 1u);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].name, "net.send");
  EXPECT_EQ(rec.spans()[0].process, 1u);  // send attributed to the sender
  EXPECT_EQ(rec.spans()[0].start, 4);
}

// ---------------------------------------------------------------------
// end-to-end: SMR world under full telemetry

constexpr sim_time kLong = 600L * 1000 * 1000;

struct telemetry_run {
  metrics_snapshot obs;
  std::vector<timeseries_sampler::series> series;
  std::vector<span_rec> spans;
  std::uint64_t completed = 0;
};

telemetry_run run_smr_telemetry(std::uint64_t seed, bool spans = true) {
  const auto gqs = threshold_quorum_system(4, 1);
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;  // finite links: queueing sub-spans
  net.telemetry = true;
  net.record_spans = spans;
  net.sample_period = 5000;
  smr_world w(gqs, fault_plan::none(4), seed, /*keys=*/8, {}, net);

  telemetry_run out;
  for (process_id p = 0; p < 4; ++p) {
    w.sim.post(p, [&w, &out, p] {
      for (std::uint64_t i = 0; i < 6; ++i)
        w.nodes[p]->submit_write(static_cast<service_key>((p * 6 + i) % 8),
                                 pack_client_value(p, i),
                                 [&out](reg_version) { ++out.completed; });
    });
  }
  EXPECT_TRUE(w.sim.run_until_condition([&] { return out.completed == 24; },
                                        kLong));
  // Drain commit broadcasts so submit spans close at every submitter.
  EXPECT_TRUE(w.sim.run_until_condition(
      [&] {
        for (const smr_service* r : w.nodes)
          if (r->counters().commands_applied < 24) return false;
        return true;
      },
      kLong));
  obs_bundle& o = w.sim.obs();
  o.tracer.finalize(w.sim.now());
  out.obs = o.metrics.snapshot();
  out.series = o.sampler.all();
  out.spans = o.tracer.spans();
  return out;
}

TEST(ObsEndToEnd, SmrTraceIsWellFormed) {
  const telemetry_run run = run_smr_telemetry(21);
  ASSERT_FALSE(run.spans.empty());

  // Every span: closed, parent exists, opened before and closed after it.
  for (const span_rec& s : run.spans) {
    EXPECT_GE(s.end, s.start) << s.name;
    if (s.parent != 0) {
      ASSERT_LT(s.parent, s.id) << s.name;
      const span_rec& p = run.spans[s.parent - 1];
      EXPECT_LE(p.start, s.start) << s.name << " under " << p.name;
      EXPECT_GE(p.end, s.end) << s.name << " under " << p.name;
    }
  }

  // Commit decomposition: some smr.slot root holds both a phase-2 child
  // and a commit child, and the commit starts no earlier than phase 2
  // ends (the commit announcement causally follows the quorum win).
  std::map<std::uint32_t, sim_time> phase2_end, commit_start;
  std::size_t net_under_smr = 0;
  for (const span_rec& s : run.spans) {
    if (s.name == "smr.phase2") phase2_end[s.parent] = s.end;
    if (s.name == "smr.commit") commit_start[s.parent] = s.start;
    if (s.category == "net" && s.parent != 0 &&
        run.spans[s.parent - 1].category == "smr")
      ++net_under_smr;
  }
  std::size_t decomposed = 0;
  for (const auto& [root, p2_end] : phase2_end) {
    ASSERT_NE(root, 0u);
    EXPECT_EQ(run.spans[root - 1].name, "smr.slot");
    const auto c = commit_start.find(root);
    if (c == commit_start.end()) continue;
    EXPECT_GE(c->second, p2_end) << "commit before phase-2 completion";
    ++decomposed;
  }
  EXPECT_GT(decomposed, 0u);
  EXPECT_GT(net_under_smr, 0u);  // wire traffic hangs off protocol spans

  // Registry saw the run through the bridges.
  EXPECT_GE(run.obs.counter_value("smr.commands_applied"), 4u * 24u);
  EXPECT_GT(run.obs.counter_value("sim.messages_delivered"), 0u);
  // Sampler produced series (net gauge + smr probes registered).
  EXPECT_FALSE(run.series.empty());
  std::size_t points = 0;
  for (const auto& s : run.series) points += s.points.size();
  EXPECT_GT(points, 0u);
}

TEST(ObsEndToEnd, TraceIsAPureFunctionOfTheRun) {
  const telemetry_run a = run_smr_telemetry(33);
  const telemetry_run b = run_smr_telemetry(33);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i)
    ASSERT_EQ(a.spans[i], b.spans[i]) << "span " << i;
  EXPECT_EQ(a.obs, b.obs);
  EXPECT_EQ(a.obs.digest(), b.obs.digest());
}

// Registry aggregation through the experiment runner is bit-identical at
// any worker thread count: snapshots fold in spec order.
TEST(ObsEndToEnd, RunnerAggregatesBitIdenticalAcrossThreadCounts) {
  auto cell = [](std::uint64_t seed) {
    return [seed] {
      const telemetry_run t = run_smr_telemetry(seed, /*spans=*/false);
      run_result r;
      r.obs = t.obs;
      r.stats["completed"] = static_cast<double>(t.completed);
      return r;
    };
  };
  std::vector<run_spec> specs;
  for (std::uint64_t s = 50; s < 54; ++s)
    specs.push_back({"cell-" + std::to_string(s), cell(s)});

  const auto r1 = experiment_runner(1).run_all(specs);
  const auto r2 = experiment_runner(2).run_all(specs);
  const auto r8 = experiment_runner(8).run_all(specs);
  const run_aggregate a1 = aggregate(r1);
  const run_aggregate a2 = aggregate(r2);
  const run_aggregate a8 = aggregate(r8);
  EXPECT_EQ(a1.obs, a2.obs);
  EXPECT_EQ(a1.obs, a8.obs);
  EXPECT_EQ(a1.obs.digest(), a8.obs.digest());
  EXPECT_EQ(to_json(a1).substr(0, to_json(a1).rfind("\"wall_ms\"")),
            to_json(a8).substr(0, to_json(a8).rfind("\"wall_ms\"")));
  EXPECT_FALSE(a1.obs.empty());
  EXPECT_NE(to_json(a1).find("\"obs\""), std::string::npos);
}

// ---------------------------------------------------------------------
// counter surface: every struct field, summed over nodes, is its row

bool has_row(const metrics_snapshot& snap, const std::string& name) {
  return std::any_of(snap.rows.begin(), snap.rows.end(),
                     [&](const metric_row& r) { return r.name == name; });
}

/// Every field C lists has a row `prefix + field` equal to the field
/// summed over `structs` (one per node).
template <class C>
void expect_rows_equal_fields(const metrics_snapshot& snap,
                              const std::string& prefix,
                              const std::vector<const C*>& structs) {
  C::for_each_counter([&](const char* name, auto field) {
    std::uint64_t sum = 0;
    for (const C* c : structs) sum += c->*field;
    EXPECT_TRUE(has_row(snap, prefix + name)) << prefix << name;
    EXPECT_EQ(snap.counter_value(prefix + name), sum) << prefix << name;
  });
}

template <class C, class Node>
std::vector<const C*> counters_of(const std::vector<Node*>& nodes) {
  std::vector<const C*> out;
  for (const Node* n : nodes) out.push_back(&n->counters());
  return out;
}

/// C's visitor lists each of its fields once: distinct names, distinct
/// cells, and every uint64 field of the struct except `unlisted` ones.
template <class C>
void expect_visitor_lists_every_field(std::size_t unlisted = 0) {
  const C c{};
  std::set<std::string> names;
  std::set<const std::uint64_t*> cells;
  C::for_each_counter([&](const char* name, auto field) {
    names.insert(name);
    cells.insert(&(c.*field));
  });
  EXPECT_EQ(names.size(), cells.size());
  EXPECT_EQ((cells.size() + unlisted) * sizeof(std::uint64_t), sizeof(C));
}

TEST(CounterSurface, VisitorsListEveryField) {
  expect_visitor_lists_every_field<sim_metrics>(/*max_link_queue_depth*/ 1);
  expect_visitor_lists_every_field<service_counters>();
  expect_visitor_lists_every_field<smr_counters>();
  expect_visitor_lists_every_field<push_qaf_counters>();
}

network_options telemetry_on() {
  network_options net;
  net.telemetry = true;
  return net;
}

/// Every write targets W3 = {c, d}. Under Figure 1's f1 (d crashed, c
/// unreachable from a) a's targeted rounds are lost and finish only
/// through escalation, so the escalation counters move.
selector_ptr unreachable_write_quorum(const generalized_quorum_system& gqs) {
  read_write_strategy s;
  s.reads = quorum_strategy::uniform(gqs.reads);
  s.writes = quorum_strategy::pure(process_set{2, 3});  // {c, d}
  return std::make_shared<const quorum_selector>(std::move(s), 1);
}

TEST(CounterSurface, QuorumServiceRowsEqualSummedFields) {
  const auto fig = make_figure1();
  service_options options;
  options.selector = unreachable_write_quorum(fig.gqs);
  component_world<keyed_register_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 7, telemetry_on(),
      service_key{4}, quorum_config::of(fig.gqs), options);

  int done = 0;
  w.sim.post(0, [&] {
    for (service_key k = 0; k < 4; ++k)
      w.nodes[0]->write(k, 10 + k, [&, k](reg_version) {
        w.nodes[0]->read(k, [&](reg_value, reg_version) { ++done; });
      });
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return done == 4; }, kLong));
  w.sim.run_until(w.sim.now() + 100000);  // gossip keeps counting

  const metrics_snapshot snap = w.sim.obs().metrics.snapshot();
  expect_rows_equal_fields(snap, "svc.",
                           counters_of<service_counters>(w.nodes));
  expect_rows_equal_fields<sim_metrics>(snap, "sim.", {&w.sim.metrics()});
  EXPECT_GT(snap.counter_value("svc.set_entries_sent"), 0u);
  EXPECT_GT(snap.counter_value("svc.gossip_entries_sent"), 0u);
  EXPECT_GT(snap.counter_value("svc.escalations"), 0u);
}

TEST(CounterSurface, PushQafRowsEqualSummedFields) {
  using targeted_register = atomic_register<generalized_qaf<reg_state>>;
  const auto fig = make_figure1();
  generalized_qaf_options options;
  options.selector = unreachable_write_quorum(fig.gqs);
  component_world<targeted_register> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 21, telemetry_on(),
      quorum_config::of(fig.gqs), reg_state{}, options);

  bool done = false;
  w.sim.post(0, [&] {
    w.nodes[0]->write(41, [&](reg_version) {
      w.nodes[0]->read([&](reg_value, reg_version) { done = true; });
    });
  });
  ASSERT_TRUE(w.sim.run_until_condition([&] { return done; }, kLong));

  const metrics_snapshot snap = w.sim.obs().metrics.snapshot();
  expect_rows_equal_fields(snap, "qaf.",
                           counters_of<push_qaf_counters>(w.nodes));
  expect_rows_equal_fields<sim_metrics>(snap, "sim.", {&w.sim.metrics()});
  EXPECT_GT(snap.counter_value("qaf.escalations"), 0u);
}

}  // namespace
}  // namespace gqs
