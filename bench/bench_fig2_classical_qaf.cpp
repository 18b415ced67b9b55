// bench_fig2_classical_qaf — Experiment E3
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// The Figure 2 quorum access functions over classical threshold quorum
// systems (Examples 4 and 6): quorum_get / quorum_set latency (simulated
// time) and physical message counts per operation, as n and k grow, with k
// processes crashed from the start. The paper's claim here is qualitative
// — the request/response pattern works whenever the fail-prone system
// disallows channel failures — and the numbers show the usual quorum
// scaling (message count grows with n; latency stays a few network RTTs).
//
// The (n, k, op) grid fans out across the experiment runner.
#include "bench_main.hpp"

#include <iostream>
#include <optional>

#include "quorum/qaf_classical.hpp"
#include "sim/runner.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;
using int_state = std::int64_t;
using qaf = classical_qaf<int_state>;

/// Runs `ops` sequential operations at process 0 with k processes crashed.
run_result measure(process_id n, int k, bool sets, int ops,
                   std::uint64_t seed) {
  const auto qs = threshold_quorum_system(n, k);
  fault_plan faults = fault_plan::none(n);
  for (int i = 0; i < k; ++i)
    faults.crash(n - 1 - static_cast<process_id>(i), 0);

  component_world<qaf> w(n, std::move(faults), seed, network_options{},
                         quorum_config::of(qs), int_state{0});
  run_result out;
  std::uint64_t messages = 0;
  for (int i = 0; i < ops; ++i) {
    const sim_time begin = w.sim.now();
    const std::uint64_t sent_before = w.sim.metrics().messages_sent;
    bool done = false;
    if (sets)
      w.nodes[0]->quorum_set([](const int_state& s) { return s + 1; },
                             [&] { done = true; });
    else
      w.nodes[0]->quorum_get([&](std::vector<int_state>) { done = true; });
    if (!w.sim.run_until_condition([&] { return done; },
                                   begin + 60L * 1000 * 1000))
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
  std::cout << "bench_fig2_classical_qaf — Figure 2 over threshold quorum "
               "systems (Examples 4/6)\n";
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});

  print_heading(
      "quorum_get / quorum_set at p0 with k processes crashed (20 ops, "
      "delays U[1,10] ms)");

  struct cell_meta {
    process_id n;
    int k;
    bool sets;
  };
  std::vector<cell_meta> meta;
  std::vector<run_spec> specs;
  for (process_id n : {3u, 5u, 7u}) {
    const int half = (static_cast<int>(n) - 1) / 2;
    for (int k : {1, half}) {
      if (k == half && half == 1 && n == 3) break;  // n=3 repeats k=1
      for (bool sets : {false, true}) {
        meta.push_back({n, k, sets});
        specs.push_back({"n" + std::to_string(n) + "k" + std::to_string(k) +
                             (sets ? "/set" : "/get"),
                         [n, k, sets] {
                           return measure(n, k, sets, 20, 42 + n + k);
                         }});
      }
    }
  }
  const auto results = runner.run_all(specs);

  text_table t({"n", "k", "op", "latency mean/p50/p95", "msgs/op"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run_result& r = results[i];
    t.add_row({std::to_string(meta[i].n), std::to_string(meta[i].k),
               meta[i].sets ? "set" : "get",
               fmt_latency_summary(summarize(r.latencies_us)),
               fmt_double(stat_or(r, "messages_per_op"), 1)});
  }
  t.print();
  gqs_bench::record_json("grid", to_json(aggregate(results)));
  std::cout << "\nShape check: latency ≈ 1 round trip (get) / 1 round trip\n"
               "(set) independent of n; messages grow quadratically with n\n"
               "because of flooding-based forwarding.\n";
  return 0;
}
