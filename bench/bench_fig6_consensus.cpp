// bench_fig6_consensus — Experiment E8
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// The Figure 6 consensus protocol under partial synchrony: decision
// latency at every U_f member per Figure 1 pattern, a sweep of the view
// duration constant C, and a sweep of GST (how long the network stays
// asynchronous). Safety (Agreement/Validity) and termination within U_f
// are checked on every run.
//
// Every (pattern | C | GST) × seed cell is an independent simulation, so
// the three sweeps fan out across the experiment runner and aggregate
// per sweep point afterwards.
#include "bench_main.hpp"

#include <iostream>

#include "sim/runner.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;

run_result run(int pattern, sim_time gst, consensus_options opts,
               std::uint64_t seed, sim_time horizon) {
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  consensus_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                    seed, consensus_world::partial_sync(gst), opts);
  std::int64_t v = 1;
  for (process_id p : u_f) w.client.invoke_propose(p, v++);
  run_result out;
  const bool all_decided = w.sim.run_until_condition(
      [&] { return w.client.all_decided(u_f); }, horizon);
  const bool safe =
      check_consensus(w.client.outcomes(), all_decided ? u_f : process_set{})
          .linearizable;
  if (all_decided)
    for (process_id p : u_f)
      out.latencies_us.push_back(static_cast<double>(w.client.decide_time(p)));
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["decided"] = all_decided ? 1 : 0;
  out.stats["safe"] = safe ? 1 : 0;
  return out;
}

/// Merges one sweep point's seeds: decided/safe conjunction, mean message
/// count, decide-time means pooled across decided seeds.
struct point_summary {
  bool decided = true;
  bool safe = true;
  double msgs = 0;
  sample_accumulator decide_means;
};

point_summary summarize_point(const std::vector<run_result>& results,
                              std::size_t begin, std::size_t count) {
  point_summary s;
  for (std::size_t i = begin; i < begin + count; ++i) {
    const run_result& r = results[i];
    s.decided &= stat_or(r, "decided") == 1;
    s.safe &= stat_or(r, "safe") == 1;
    s.msgs += static_cast<double>(r.metrics.messages_sent) /
              static_cast<double>(count);
    if (stat_or(r, "decided") == 1)
      s.decide_means.add(summarize(r.latencies_us).mean);
  }
  return s;
}

constexpr std::size_t kSeeds = 5;

}  // namespace

int bench_entry() {
  std::cout << "bench_fig6_consensus — Figure 6 under partial synchrony\n";
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});

  print_heading(
      "Decision latency per pattern (GST = 0, C = 50 ms, proposals at all "
      "U_f members at t = 0; mean over 5 seeds)");
  {
    std::vector<run_spec> specs;
    for (int pattern = 0; pattern < 4; ++pattern)
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed)
        specs.push_back({"f" + std::to_string(pattern + 1) + "/seed" +
                             std::to_string(seed),
                         [pattern, seed] {
                           return run(pattern, 0, {}, seed,
                                      600L * 1000 * 1000);
                         }});
    const auto results = runner.run_all(specs);

    text_table t({"pattern", "decided", "safe", "decide time mean/p50/p95",
                  "msgs (whole run)"});
    for (int pattern = 0; pattern < 4; ++pattern) {
      const point_summary s =
          summarize_point(results, pattern * kSeeds, kSeeds);
      t.add_row({"f" + std::to_string(pattern + 1), s.decided ? "yes" : "NO",
                 s.safe ? "yes" : "NO",
                 fmt_latency_summary(s.decide_means.summary()),
                 fmt_count(static_cast<std::uint64_t>(s.msgs))});
    }
    t.print();
    gqs_bench::record_json("patterns", to_json(aggregate(results)));
  }

  print_heading("View-duration constant C sweep (pattern f1, GST = 0)");
  {
    const sim_time c_values[] = {10, 25, 50, 100, 200};
    std::vector<run_spec> specs;
    for (sim_time c_ms : c_values)
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed)
        specs.push_back({"C" + std::to_string(c_ms) + "/seed" +
                             std::to_string(seed),
                         [c_ms, seed] {
                           consensus_options opts;
                           opts.view_duration_unit = c_ms * 1000;
                           return run(0, 0, opts, 100 + seed,
                                      1800L * 1000 * 1000);
                         }});
    const auto results = runner.run_all(specs);

    text_table t({"C", "decided", "decide time mean/p50/p95"});
    for (std::size_t i = 0; i < std::size(c_values); ++i) {
      const point_summary s = summarize_point(results, i * kSeeds, kSeeds);
      t.add_row({std::to_string(c_values[i]) + " ms", s.decided ? "yes" : "NO",
                 fmt_latency_summary(s.decide_means.summary())});
    }
    t.print();
    gqs_bench::record_json("c_sweep", to_json(aggregate(results)));
    std::cout << "\nShape check: too-small C wastes early views (leaders\n"
                 "cannot assemble quorums in time), large C pays the full\n"
                 "view length before the first useful leader — decision\n"
                 "time is mildly U-shaped in C.\n";
  }

  print_heading("GST sweep (pattern f1, C = 50 ms)");
  {
    const sim_time gst_values[] = {0, 250, 500, 1000, 2000};
    std::vector<run_spec> specs;
    for (sim_time gst_ms : gst_values)
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed)
        specs.push_back({"gst" + std::to_string(gst_ms) + "/seed" +
                             std::to_string(seed),
                         [gst_ms, seed] {
                           return run(0, gst_ms * 1000, {}, 200 + seed,
                                      3600L * 1000 * 1000);
                         }});
    const auto results = runner.run_all(specs);

    text_table t({"GST", "decided", "decide time mean/p50/p95"});
    for (std::size_t i = 0; i < std::size(gst_values); ++i) {
      const point_summary s = summarize_point(results, i * kSeeds, kSeeds);
      t.add_row({std::to_string(gst_values[i]) + " ms",
                 s.decided ? "yes" : "NO",
                 fmt_latency_summary(s.decide_means.summary())});
    }
    t.print();
    gqs_bench::record_json("gst_sweep", to_json(aggregate(results)));
    std::cout << "\nShape check: decisions land shortly after GST — the\n"
                 "decision time tracks GST plus a few views' worth of\n"
                 "stabilization, exactly Theorem 5's liveness argument.\n";
  }
  return 0;
}
