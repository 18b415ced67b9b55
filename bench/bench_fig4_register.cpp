// bench_fig4_register — Experiments E5 + E6
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// E5: the Figure 4 register over the Figure 3 access functions under every
// Figure 1 pattern — read/write latency at each U_f member, with the
// history passed through both linearizability checkers.
//
// E6: "who wins" — the same Figure 4 skeleton over the classical Figure 2
// access functions (multi-writer ABD) versus the generalized ones:
//   * under Figure 1's f1, ABD cannot complete a single read or write
//     (every read quorum contains an unreachable process) while the GQS
//     register completes everything;
//   * under a crash-only threshold system both work and ABD is cheaper —
//     the price of channel-failure tolerance is the gossip traffic.
//
// Both experiments declare their cells as a grid and fan them across the
// experiment runner (sim/runner.hpp); each cell owns an independent
// simulation, so results are identical for any thread count.
#include "bench_main.hpp"

#include <iostream>

#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "sim/runner.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;

/// Drives `ops` operations of one kind at one process and fills a
/// run_result (latencies, metrics, completion and linearizability flags).
template <class World>
run_result run_ops(World& w, process_id at, bool writes, int ops,
                   sim_time per_op_budget) {
  run_result out;
  std::uint64_t messages = 0;
  int completed = 0;
  for (int i = 0; i < ops; ++i) {
    const sim_time begin = w.sim.now();
    const std::uint64_t sent_before = w.sim.metrics().messages_sent;
    const std::size_t idx = writes ? w.client.invoke_write(at, 100 + i)
                                   : w.client.invoke_read(at);
    if (!w.sim.run_until_condition([&] { return w.client.complete(idx); },
                                   begin + per_op_budget))
      break;
    out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
    messages += w.sim.metrics().messages_sent - sent_before;
    ++completed;
  }
  const bool linearizable =
      check_linearizable(w.client.history()).linearizable &&
      check_history(w.client.history()).linearizable;
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["attempted"] = ops;
  out.stats["completed"] = completed;
  out.stats["messages_per_op"] =
      completed == 0 ? 0 : static_cast<double>(messages) / completed;
  out.stats["linearizable"] = linearizable ? 1 : 0;
  return out;
}

std::string completed_fmt(const run_result& r) {
  return fmt_double(stat_or(r, "completed"), 0) + "/" +
         fmt_double(stat_or(r, "attempted"), 0);
}

void experiment_e5(const experiment_runner& runner) {
  print_heading(
      "E5: GQS register (Fig 4 over Fig 3) per pattern — 10 writes + 10 "
      "reads at each U_f member; history linearizability-checked");
  const auto fig = make_figure1();

  struct cell_meta {
    int pattern;
    process_id p;
    bool writes;
  };
  std::vector<cell_meta> meta;
  std::vector<run_spec> specs;
  for (int pattern = 0; pattern < 4; ++pattern) {
    const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
    for (process_id p : u_f) {
      for (bool writes : {true, false}) {
        meta.push_back({pattern, p, writes});
        const std::uint64_t seed =
            17 + pattern + (writes ? 0 : 100) + 10 * p;
        specs.push_back(
            {"f" + std::to_string(pattern + 1) + "/" + fig.names[p] +
                 (writes ? "/write" : "/read"),
             [fig, pattern, p, writes, seed] {
               register_world<gqs_register_node> w(
                   4, fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                   seed, network_options{}, quorum_config::of(fig.gqs),
                   reg_state{}, push_qaf_options{});
               return run_ops(w, p, writes, 10, 600L * 1000 * 1000);
             }});
      }
    }
  }
  const auto results = runner.run_all(specs);

  text_table t({"pattern", "process", "op", "latency mean/p50/p95",
                "msgs/op", "linearizable"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run_result& r = results[i];
    t.add_row({"f" + std::to_string(meta[i].pattern + 1),
               fig.names[meta[i].p], meta[i].writes ? "write" : "read",
               fmt_latency_summary(summarize(r.latencies_us)),
               fmt_double(stat_or(r, "messages_per_op"), 1),
               stat_or(r, "linearizable") == 1 ? "yes" : "NO"});
  }
  t.print();
  gqs_bench::record_json("e5", to_json(aggregate(results)));
}

void experiment_e6(const experiment_runner& runner) {
  print_heading("E6: classical ABD vs GQS register — who wins where");
  const auto fig = make_figure1();
  const auto qs = threshold_quorum_system(4, 1);

  std::vector<run_spec> specs;
  // Scenario 1: Figure 1's f1 (process d crashes, channels fail).
  specs.push_back({"f1/abd", [fig] {
                     register_world<abd_register_node> abd(
                         4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 5,
                         network_options{}, quorum_config::of(fig.gqs),
                         reg_state{});
                     return run_ops(abd, 0, true, 5, 30L * 1000 * 1000);
                   }});
  specs.push_back({"f1/gqs", [fig] {
                     register_world<gqs_register_node> reg(
                         4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 5,
                         network_options{}, quorum_config::of(fig.gqs),
                         reg_state{}, push_qaf_options{});
                     return run_ops(reg, 0, true, 5, 600L * 1000 * 1000);
                   }});
  // Scenario 2: crash-only threshold system (n = 4, k = 1), one crash.
  specs.push_back({"crash-only/abd", [qs] {
                     fault_plan faults = fault_plan::none(4);
                     faults.crash(3, 0);
                     register_world<abd_register_node> abd(
                         4, std::move(faults), 6, network_options{},
                         quorum_config::of(qs), reg_state{});
                     return run_ops(abd, 0, true, 10, 60L * 1000 * 1000);
                   }});
  specs.push_back({"crash-only/gqs", [qs] {
                     fault_plan faults = fault_plan::none(4);
                     faults.crash(3, 0);
                     register_world<gqs_register_node> reg(
                         4, std::move(faults), 6, network_options{},
                         quorum_config::of(qs), reg_state{},
                         push_qaf_options{});
                     return run_ops(reg, 0, true, 10, 600L * 1000 * 1000);
                   }});
  const auto results = runner.run_all(specs);

  const char* scenario[] = {"f1 (channel failures)", "f1 (channel failures)",
                            "crash-only (n=4, k=1)", "crash-only (n=4, k=1)"};
  const char* protocol[] = {"ABD (Fig 2)", "GQS (Fig 3)", "ABD (Fig 2)",
                            "GQS (Fig 3)"};
  text_table t({"scenario", "protocol", "ops completed",
                "write latency mean", "msgs/op"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run_result& r = results[i];
    const bool stuck = stat_or(r, "completed") == 0;
    t.add_row({scenario[i], protocol[i], completed_fmt(r),
               stuck ? "stuck"
                     : fmt_ms(static_cast<sim_time>(
                           summarize(r.latencies_us).mean)),
               stuck ? "-" : fmt_double(stat_or(r, "messages_per_op"), 1)});
  }
  t.print();
  gqs_bench::record_json("e6", to_json(aggregate(results)));
  std::cout
      << "\nShape check: ABD completes 0 ops under f1 (its quorum_get waits\n"
         "on an unreachable read-quorum member) while the GQS register\n"
         "completes all; under crash-only failures both complete and ABD\n"
         "is cheaper per op — the gossip is the cost of channel-failure\n"
         "tolerance.\n";
}

}  // namespace

int bench_entry() {
  std::cout << "bench_fig4_register — the Figure 4 atomic register\n";
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});
  experiment_e5(runner);
  experiment_e6(runner);
  return 0;
}
