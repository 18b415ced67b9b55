// bench_smr — Experiment E13 (extension; docs/ARCHITECTURE.md, "Sharded
// SMR" and "Figures → benches").
//
// State machine replication over a GQS: commit latency of sequential
// commands and convergence of the applied log across the submitters,
// under the healthy network and under every Figure 1 failure pattern. The
// paper stops at single-decree consensus; this bench checks that
// smr_service carries Theorem 1's liveness over to a log: every command a
// U_f member submits commits. It exits 1 when any scenario stalls or its
// replicas disagree, so a run doubles as the SMR liveness gate.
//
// The five scenarios are independent simulations and run concurrently
// through the experiment runner.
#include "bench_main.hpp"

#include <iostream>

#include "core/quorum_system.hpp"
#include "sim/runner.hpp"
#include "workload/smr_workload.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"

namespace {

using namespace gqs;

constexpr service_key kKeys = 4;

run_result run(const generalized_quorum_system& gqs, const failure_pattern* f,
               process_set submitters, int commands, std::uint64_t seed) {
  run_result out;
  out.stats["completed"] = 0;
  out.stats["applied"] = 0;
  smr_world w(gqs,
              f ? fault_plan::from_pattern(*f, 0)
                : fault_plan::none(gqs.system_size()),
              seed, kKeys);
  const std::vector<process_id> members(submitters.begin(), submitters.end());
  for (int i = 0; i < commands; ++i) {
    const process_id at = members[i % members.size()];
    bool done = false;
    const sim_time begin = w.sim.now();
    w.sim.post(at, [&, at, i] {
      w.nodes[at]->submit_write(static_cast<service_key>(i) % kKeys, i + 1,
                                [&](reg_version) { done = true; });
    });
    if (!w.sim.run_until_condition([&] { return done; },
                                   begin + 600L * 1000 * 1000)) {
      out.metrics = w.sim.metrics();
      out.sim_end = w.sim.now();
      return out;
    }
    out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
  }
  // Let commit announcements drain so every submitter applied them all.
  const auto applied = [&] {
    std::uint64_t least = UINT64_MAX;
    for (const process_id p : members)
      least = std::min(least, w.nodes[p]->counters().commands_applied);
    return least;
  };
  w.sim.run_until_condition(
      [&] { return applied() >= static_cast<std::uint64_t>(commands); },
      w.sim.now() + 60L * 1000 * 1000);
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["completed"] =
      check_smr_agreement(w.replicas()).linearizable ? 1 : 0;
  out.stats["applied"] = static_cast<double>(applied());
  return out;
}

}  // namespace

int bench_entry() {
  std::cout << "bench_smr — smr_service over GQS consensus\n";
  const auto fig = make_figure1();
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});

  print_heading(
      "8 sequential commands, submitters rotating over U_f members "
      "(commit latency = submit → applied at the submitter)");

  std::vector<run_spec> specs;
  std::vector<std::string> labels;
  labels.push_back("healthy network");
  specs.push_back({"healthy", [fig] {
                     return run(fig.gqs, nullptr, process_set{0, 1}, 8, 1);
                   }});
  for (int pattern = 0; pattern < 4; ++pattern) {
    const std::string name = {'f', static_cast<char>('1' + pattern)};
    labels.push_back(std::string("pattern ") + name);
    specs.push_back({name, [fig, pattern] {
                       const process_set u_f =
                           compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
                       return run(fig.gqs, &fig.gqs.fps[pattern], u_f, 8,
                                  2 + pattern);
                     }});
  }
  const auto results = runner.run_all(specs);

  text_table t({"scenario", "completed", "commit latency mean/p50/p95",
                "applied at every submitter"});
  std::uint64_t stalled = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const run_result& r = results[i];
    const bool ok = stat_or(r, "completed") == 1;
    stalled += ok ? 0 : 1;
    t.add_row({labels[i], ok ? "8/8" : "stalled",
               fmt_latency_summary(summarize(r.latencies_us)),
               fmt_double(stat_or(r, "applied"), 0)});
  }
  t.print();
  gqs_bench::record("stalled_scenarios", stalled);
  gqs_bench::record_json("scenarios", to_json(aggregate(results)));
  std::cout
      << "\nShape check: every command commits in all five scenarios and\n"
         "every submitter applies all 8 (Theorem 1 through the log). Under\n"
         "f2 and f3 the view-1 leader is crashed or hears nothing, so the\n"
         "first command waits (high p95) while views rotate to one led by\n"
         "a U_f member that hears a read quorum; under f1 and f4 the\n"
         "view-1 leader already is one.\n";
  return stalled == 0 ? 0 : 1;
}
