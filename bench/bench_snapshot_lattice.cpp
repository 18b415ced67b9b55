// bench_snapshot_lattice — Experiment E7
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// Theorem 1's derived objects: SWMR atomic snapshots (built from Figure 4
// registers) and single-shot lattice agreement (built from snapshots).
// Measures update/scan and propose latencies per Figure 1 pattern at U_f
// members, with the safety checkers on. Cells (pattern × op kind, and
// pattern for lattice) fan out across the experiment runner.
#include "bench_main.hpp"

#include <iostream>

#include "lincheck/object_checkers.hpp"
#include "sim/runner.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;

run_result snapshot_cell(int pattern, bool scans) {
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  const process_id p = u_f.first();
  snapshot_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                   23 + pattern);
  run_result out;
  for (int i = 0; i < 5; ++i) {
    const sim_time begin = w.sim.now();
    const std::size_t idx =
        scans ? w.client.invoke_scan(p) : w.client.invoke_update(p, i + 1);
    if (!w.sim.run_until_condition([&] { return w.client.complete(idx); },
                                   begin + 900L * 1000 * 1000))
      break;
    out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
  }
  const auto check = check_snapshot_linearizable(w.client.history(), 4);
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["process"] = p;
  out.stats["linearizable"] = check.linearizable ? 1 : 0;
  return out;
}

void snapshot_costs(const experiment_runner& runner) {
  print_heading(
      "Snapshot update/scan latency per pattern (5 ops each at the first "
      "U_f member; histories checked for snapshot linearizability)");
  const auto fig = make_figure1();

  std::vector<run_spec> specs;
  for (int pattern = 0; pattern < 4; ++pattern)
    for (bool scans : {false, true})
      specs.push_back({"f" + std::to_string(pattern + 1) +
                           (scans ? "/scan" : "/update"),
                       [pattern, scans] {
                         return snapshot_cell(pattern, scans);
                       }});
  const auto results = runner.run_all(specs);

  text_table t({"pattern", "process", "op", "latency mean/p50/p95",
                "linearizable"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run_result& r = results[i];
    const int pattern = static_cast<int>(i / 2);
    const bool scans = i % 2 == 1;
    t.add_row({"f" + std::to_string(pattern + 1),
               fig.names[static_cast<process_id>(stat_or(r, "process"))],
               scans ? "scan" : "update",
               fmt_latency_summary(summarize(r.latencies_us)),
               stat_or(r, "linearizable") == 1 ? "yes" : "NO"});
  }
  t.print();
  gqs_bench::record_json("snapshot", to_json(aggregate(results)));
  std::cout << "\nShape check: a scan costs ≥ 2 collects = 2n register\n"
               "reads, an update adds one register write on top of a scan —\n"
               "so both are an order of magnitude above raw register ops.\n";
}

run_result lattice_cell(int pattern) {
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  lattice_world w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                  31 + pattern);
  std::vector<lattice_outcome> outcomes;
  outcomes.reserve(u_f.size());  // slot pointers must stay stable
  run_result out;
  int pending = 0;
  int bit = 0;
  for (process_id p : u_f) {
    const lattice_value x = lattice_value{1} << bit++;
    outcomes.push_back({p, x, std::nullopt});
    auto* slot = &outcomes.back();
    const sim_time begin = w.sim.now();
    ++pending;
    w.sim.post(p, [&w, p, x, slot, begin, &out, &pending] {
      w.nodes[p]->propose(x, [slot, &w, begin, &out,
                              &pending](lattice_value y) {
        slot->output = y;
        out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
        --pending;
      });
    });
  }
  w.sim.run_until_condition([&] { return pending == 0; },
                            1800L * 1000 * 1000);
  const auto check = check_lattice_agreement(outcomes);
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["proposers"] = u_f.size();
  out.stats["safe"] = check.linearizable ? 1 : 0;
  if (!check.linearizable) out.error = check.reason;
  return out;
}

void lattice_costs(const experiment_runner& runner) {
  print_heading(
      "Lattice agreement propose latency (concurrent proposals at all U_f "
      "members; Comparability/Validity checked)");

  std::vector<run_spec> specs;
  for (int pattern = 0; pattern < 4; ++pattern)
    specs.push_back({"f" + std::to_string(pattern + 1),
                     [pattern] { return lattice_cell(pattern); }});
  const auto results = runner.run_all(specs);

  text_table t({"pattern", "proposers", "propose latency mean/p50/p95",
                "safe"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run_result& r = results[i];
    t.add_row({"f" + std::to_string(i + 1),
               fmt_double(stat_or(r, "proposers"), 0),
               fmt_latency_summary(summarize(r.latencies_us)),
               stat_or(r, "safe") == 1 ? "yes" : "NO — " + r.error});
  }
  t.print();
  gqs_bench::record_json("lattice", to_json(aggregate(results)));
}

}  // namespace

int bench_entry() {
  std::cout << "bench_snapshot_lattice — Theorem 1's derived objects\n";
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});
  snapshot_costs(runner);
  lattice_costs(runner);
  return 0;
}
