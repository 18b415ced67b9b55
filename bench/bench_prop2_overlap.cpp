// bench_prop2_overlap — Experiment E9
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// Proposition 2: with each process spending v·C in view v, for every
// duration d there is a view V from which on all correct processes overlap
// in each view for at least d — even when processes start their view
// schedules at skewed times (the clock drift the model allows before GST).
//
// We give each process a different startup skew, then measure per view v
// the overlap interval [max_p enter_p(v), min_p enter_p(v+1)) across all
// correct processes. Early views can have NO overlap (skew exceeds the
// view length); once v·C outgrows the total skew the overlap turns
// positive and then grows by C per view, never to shrink again — exactly
// the proposition.
#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>

#include "workload/table.hpp"
#include "workload/worlds.hpp"

int bench_entry() {
  using namespace gqs;
  std::cout << "bench_prop2_overlap — Proposition 2 (view synchronizer "
               "overlap)\n";
  const auto fig = make_figure1();
  const sim_time view_unit = 20000;  // C = 20 ms

  print_heading(
      "All-correct-process overlap per view under f1 (C = 20 ms, d crashed; "
      "startup skews a: 0 ms, b: 70 ms, c: 150 ms)");

  const process_set correct = fig.gqs.fps[0].correct();
  const sim_time skew[] = {0, 70000, 150000, 0};

  world<consensus_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 3,
      consensus_world::partial_sync(), [&](process_id p) {
        consensus_options opts;
        opts.view_duration_unit = view_unit;
        opts.startup_delay = skew[p];
        return std::make_unique<consensus_node>(quorum_config::of(fig.gqs),
                                                opts);
      });
  const auto wall_begin = std::chrono::steady_clock::now();
  w.sim.run_until(10L * 1000 * 1000);  // 10 s
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_begin)
                            .count();
  gqs_bench::record("events_processed", w.sim.metrics().events_processed);
  gqs_bench::record("events_per_sec",
                    wall_s > 0 ? static_cast<double>(
                                     w.sim.metrics().events_processed) /
                                     wall_s
                               : 0);

  std::map<process_id, std::map<std::uint64_t, sim_time>> enter;
  std::uint64_t max_common_view = UINT64_MAX;
  for (process_id p : correct) {
    for (const auto& [v, at] : w.nodes[p]->view_log()) enter[p][v] = at;
    max_common_view =
        std::min(max_common_view, w.nodes[p]->view_log().back().first);
  }

  text_table t({"view v", "view length v*C", "latest entry", "earliest exit",
                "overlap"});
  std::uint64_t first_positive = 0;
  for (std::uint64_t v = 1; v + 1 <= max_common_view && v <= 16; ++v) {
    sim_time latest_entry = 0;
    sim_time earliest_exit = INT64_MAX;
    for (process_id p : correct) {
      latest_entry = std::max(latest_entry, enter[p][v]);
      earliest_exit = std::min(earliest_exit, enter[p][v + 1]);
    }
    const sim_time overlap =
        std::max<sim_time>(0, earliest_exit - latest_entry);
    if (overlap > 0 && first_positive == 0) first_positive = v;
    t.add_row({std::to_string(v),
               fmt_ms(static_cast<sim_time>(v) * view_unit),
               fmt_ms(latest_entry), fmt_ms(earliest_exit), fmt_ms(overlap)});
  }
  t.print();
  gqs_bench::record("first_positive_overlap_view", first_positive);
  std::cout << "\nShape check: views shorter than the 150 ms total skew have\n"
               "zero or small overlap; once v*C outgrows the skew, overlap\n"
               "= v*C - 150 ms and grows by C per view, unboundedly — any\n"
               "required duration d is eventually reached and kept\n"
               "(Proposition 2).\n";
  return 0;
}
