// bench_fig3_gqs_qaf — Experiment E4
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// The Figure 3 quorum access functions (logical clocks + gossip) under
// each Figure 1 failure pattern: quorum_get / quorum_set latency and
// message cost at every U_f member, plus a gossip-period sweep showing the
// latency/traffic trade-off of the periodic state propagation.
//
// Both grids — (pattern × U_f member × op) and the gossip sweep — fan out
// across the experiment runner.
#include "bench_main.hpp"

#include <iostream>

#include "quorum/qaf_generalized.hpp"
#include "sim/runner.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;
using int_state = std::int64_t;
using qaf = generalized_qaf<int_state>;

run_result measure(int pattern, process_id at, bool sets, int ops,
                   push_qaf_options opts, std::uint64_t seed) {
  const auto fig = make_figure1();
  component_world<qaf> w(4, fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                         seed, network_options{}, quorum_config::of(fig.gqs),
                         int_state{0}, opts);
  run_result out;
  std::uint64_t messages = 0;
  for (int i = 0; i < ops; ++i) {
    const sim_time begin = w.sim.now();
    const std::uint64_t sent_before = w.sim.metrics().messages_sent;
    bool done = false;
    if (sets)
      w.nodes[at]->quorum_set([](const int_state& s) { return s + 1; },
                              [&] { done = true; });
    else
      w.nodes[at]->quorum_get([&](std::vector<int_state>) { done = true; });
    if (!w.sim.run_until_condition([&] { return done; },
                                   begin + 600L * 1000 * 1000))
      break;
    out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
    messages += w.sim.metrics().messages_sent - sent_before;
  }
  const double completed = static_cast<double>(out.latencies_us.size());
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["messages_per_op"] =
      completed == 0 ? 0.0 : static_cast<double>(messages) / completed;
  return out;
}

}  // namespace

int bench_entry() {
  std::cout << "bench_fig3_gqs_qaf — Figure 3 access functions under the "
               "Figure 1 patterns\n";
  const auto fig = make_figure1();
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});

  print_heading(
      "Per-pattern op cost at each U_f member (15 ops each, gossip 5 ms; "
      "msgs/op include the ambient gossip during the op)");
  {
    struct cell_meta {
      int pattern;
      process_id p;
      bool sets;
    };
    std::vector<cell_meta> meta;
    std::vector<run_spec> specs;
    for (int pattern = 0; pattern < 4; ++pattern) {
      const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
      for (process_id p : u_f) {
        for (bool sets : {false, true}) {
          meta.push_back({pattern, p, sets});
          specs.push_back({"f" + std::to_string(pattern + 1) + "/" +
                               fig.names[p] + (sets ? "/set" : "/get"),
                           [pattern, p, sets] {
                             return measure(pattern, p, sets, 15, {},
                                            7 + pattern);
                           }});
        }
      }
    }
    const auto results = runner.run_all(specs);

    text_table t({"pattern", "process", "op", "latency mean/p50/p95",
                  "msgs/op"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const run_result& r = results[i];
      t.add_row({"f" + std::to_string(meta[i].pattern + 1),
                 fig.names[meta[i].p], meta[i].sets ? "set" : "get",
                 fmt_latency_summary(summarize(r.latencies_us)),
                 fmt_double(stat_or(r, "messages_per_op"), 1)});
    }
    t.print();
    gqs_bench::record_json("patterns", to_json(aggregate(results)));
  }

  print_heading("Gossip-period sweep under f1 at process a (quorum_get)");
  {
    const sim_time periods_ms[] = {1, 2, 5, 10, 20, 50};
    std::vector<run_spec> specs;
    for (sim_time period_ms : periods_ms)
      specs.push_back({"gossip" + std::to_string(period_ms) + "ms",
                       [period_ms] {
                         push_qaf_options opts;
                         opts.gossip_period = period_ms * 1000;
                         return measure(0, 0, false, 15, opts, 11);
                       }});
    const auto results = runner.run_all(specs);

    text_table sweep(
        {"gossip period", "get latency mean/p50/p95", "msgs/op"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const run_result& r = results[i];
      sweep.add_row({std::to_string(periods_ms[i]) + " ms",
                     fmt_latency_summary(summarize(r.latencies_us)),
                     fmt_double(stat_or(r, "messages_per_op"), 1)});
    }
    sweep.print();
    gqs_bench::record_json("gossip_sweep", to_json(aggregate(results)));
  }
  std::cout << "\nShape check: get latency grows roughly linearly with the\n"
               "gossip period (the second wait of quorum_get is paced by\n"
               "gossip arrivals), while message cost per op shrinks.\n";
  return 0;
}
