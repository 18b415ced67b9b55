// bench_lowerbound — Experiment E10
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// The Theorem 2 machinery as an algorithm:
//   * scaling of the GQS existence search (SCC-choice backtracking) with
//     system size n and |F| on random process+channel fail-prone systems;
//   * agreement between the pruned search and exhaustive enumeration;
//   * admission rate as channel failure probability grows (how much
//     failure a system can absorb before no GQS exists);
//   * the canonical construction: whenever the search finds a witness,
//     building (R, W) from tau(f) = U_f must reproduce a valid GQS.
//
// Each table row (a batch of random instances) is one experiment-runner
// cell with its own deterministically derived RNG stream, so rows run
// concurrently and results do not depend on the thread count.
#include "bench_main.hpp"

#include <chrono>
#include <iostream>

#include "core/existence.hpp"
#include "core/minimize.hpp"
#include "core/random_systems.hpp"
#include "sim/runner.hpp"
#include "workload/stats.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;

double wall_us(const std::function<void()>& fn) {
  const auto begin = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

/// One scaling-table row: `instances` random systems searched + checked
/// against exhaustive enumeration. Search times land in latencies_us.
run_result scaling_row(process_id n, int patterns, int instances,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  random_system_params params;
  params.n = n;
  params.patterns = patterns;
  run_result out;
  int admitted = 0, agreed = 0;
  for (int i = 0; i < instances; ++i) {
    const auto fps = random_fail_prone_system(params, rng);
    std::optional<gqs_witness> witness;
    out.latencies_us.push_back(wall_us([&] { witness = find_gqs(fps); }));
    admitted += witness.has_value();
    agreed += witness.has_value() == gqs_exists_exhaustive(fps);
  }
  out.stats["admitted"] = admitted;
  out.stats["agreed"] = agreed;
  out.stats["instances"] = instances;
  return out;
}

/// One absorption-table row: admission rate and U_f shrinkage at one
/// channel-failure probability.
run_result absorption_row(double prob, int instances, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  random_system_params params;
  params.n = 5;
  params.patterns = 4;
  params.channel_fail_probability = prob;
  run_result out;
  int admitted = 0, singleton = 0;
  double min_uf_sum = 0, mean_uf_sum = 0;
  for (int i = 0; i < instances; ++i) {
    const auto witness = find_gqs(random_fail_prone_system(params, rng));
    if (!witness) continue;
    ++admitted;
    int min_uf = static_cast<int>(process_set::max_processes);
    double mean_uf = 0;
    bool has_singleton = false;
    for (std::size_t k = 0; k < witness->max_termination.size(); ++k) {
      const int size = witness->max_termination[k].size();
      min_uf = std::min(min_uf, size);
      mean_uf += size;
      has_singleton |= witness->chosen_writes[k].size() == 1;
    }
    min_uf_sum += min_uf;
    mean_uf_sum += mean_uf / static_cast<double>(params.patterns);
    singleton += has_singleton;
  }
  out.stats["admitted"] = admitted;
  out.stats["singleton"] = singleton;
  out.stats["min_uf_sum"] = min_uf_sum;
  out.stats["mean_uf_sum"] = mean_uf_sum;
  out.stats["instances"] = instances;
  return out;
}

/// Runs 10 register writes at a under f1 over the given quorum system.
run_result minimization_cell(const generalized_quorum_system& system) {
  const auto fig = make_figure1();
  register_world<gqs_register_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), 9, network_options{},
      quorum_config::of(system), reg_state{}, push_qaf_options{});
  run_result out;
  std::uint64_t msgs = 0;
  for (int i = 0; i < 10; ++i) {
    const sim_time begin = w.sim.now();
    const std::uint64_t before = w.sim.metrics().messages_sent;
    const auto idx = w.client.invoke_write(0, i);
    if (!w.sim.run_until_condition([&] { return w.client.complete(idx); },
                                   begin + 600L * 1000 * 1000))
      break;
    out.latencies_us.push_back(static_cast<double>(w.sim.now() - begin));
    msgs += w.sim.metrics().messages_sent - before;
  }
  const double n_ops = static_cast<double>(out.latencies_us.size());
  out.metrics = w.sim.metrics();
  out.sim_end = w.sim.now();
  out.stats["messages_per_op"] =
      n_ops == 0 ? 0 : static_cast<double>(msgs) / n_ops;
  out.stats["total_members"] = total_quorum_size(system);
  return out;
}

}  // namespace

int bench_entry() {
  std::cout << "bench_lowerbound — Theorem 2 construction and existence "
               "search\n";
  const experiment_runner runner;
  gqs_bench::record("runner_threads", std::uint64_t{runner.threads()});

  print_heading(
      "Search scaling on random fail-prone systems (crash prob 0.2, "
      "channel-failure prob 0.3; 50 instances per row)");
  {
    struct cell_meta {
      process_id n;
      int patterns;
    };
    std::vector<cell_meta> meta;
    std::vector<run_spec> specs;
    std::size_t row = 0;
    for (process_id n : {4u, 5u, 6u, 8u})
      for (int patterns : {2, 4, 6}) {
        meta.push_back({n, patterns});
        const std::uint64_t seed = grid_seed(1, n, patterns, row++);
        specs.push_back({"n" + std::to_string(n) + "/F" +
                             std::to_string(patterns),
                         [n, patterns, seed] {
                           return scaling_row(n, patterns, 50, seed);
                         }});
      }
    const auto results = runner.run_all(specs);

    text_table t({"n", "|F|", "admits GQS", "search time mean/p95 (us)",
                  "search==exhaustive"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const run_result& r = results[i];
      const double instances = stat_or(r, "instances");
      const auto s = summarize(r.latencies_us);
      t.add_row({std::to_string(meta[i].n), std::to_string(meta[i].patterns),
                 fmt_double(100.0 * stat_or(r, "admitted") / instances, 0) +
                     "%",
                 fmt_double(s.mean, 1) + " / " + fmt_double(s.p95, 1),
                 stat_or(r, "agreed") == instances ? "yes" : "NO"});
    }
    t.print();
    gqs_bench::record_json("scaling", to_json(aggregate(results)));
  }

  print_heading(
      "Failure absorption vs channel failure probability (n = 5, |F| = 4, "
      "100 instances per row)");
  {
    // A single process correct under every pattern already yields a
    // trivial GQS with singleton quorums — so raw admission stays high
    // (the GQS condition is *weak*; that is the paper's point). The
    // interesting decay is in the guarantees: the size of the termination
    // sets U_f shrinks towards 1 as channels fail, i.e. wait-freedom is
    // promised at ever fewer processes.
    const double probs[] = {0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9};
    std::vector<run_spec> specs;
    for (std::size_t i = 0; i < std::size(probs); ++i) {
      const double prob = probs[i];
      const std::uint64_t seed = grid_seed(2, i, 0, 0);
      specs.push_back({"prob" + fmt_double(prob, 1),
                       [prob, seed] {
                         return absorption_row(prob, 100, seed);
                       }});
    }
    const auto results = runner.run_all(specs);

    text_table t({"channel fail prob", "admits GQS", "avg min |U_f|",
                  "avg mean |U_f|", "singleton-W witnesses"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const run_result& r = results[i];
      const double instances = stat_or(r, "instances");
      const double admitted = stat_or(r, "admitted");
      t.add_row(
          {fmt_double(probs[i], 1),
           fmt_double(100.0 * admitted / instances, 0) + "%",
           admitted ? fmt_double(stat_or(r, "min_uf_sum") / admitted, 2)
                    : "-",
           admitted ? fmt_double(stat_or(r, "mean_uf_sum") / admitted, 2)
                    : "-",
           admitted ? fmt_double(100.0 * stat_or(r, "singleton") / admitted,
                                 0) +
                          "%"
                    : "-"});
    }
    t.print();
    gqs_bench::record_json("absorption", to_json(aggregate(results)));
    std::cout
        << "\nShape check: raw admission stays high (singleton quorums make\n"
           "the GQS condition very weak), but the termination sets U_f\n"
           "shrink towards singletons as channel failures grow — the\n"
           "guarantee degrades from 'wait-free at ~all correct processes'\n"
           "to 'wait-free at one process'.\n";
  }

  print_heading(
      "Quorum minimization (E14): the search's maximal witness vs its "
      "inclusion-minimal shrink, running 10 register writes at a under f1");
  {
    const auto fig = make_figure1();
    const auto witness = find_gqs(fig.gqs.fps);
    const auto minimized = minimize_quorums(witness->system);
    const std::vector<run_spec> specs = {
        {"maximal", [&] { return minimization_cell(witness->system); }},
        {"minimized", [&] { return minimization_cell(minimized); }}};
    const auto results = runner.run_all(specs);

    text_table t({"quorums", "total members", "write latency mean/p50/p95",
                  "msgs/op"});
    const char* labels[] = {"maximal (search witness)", "minimized"};
    for (std::size_t i = 0; i < results.size(); ++i) {
      const run_result& r = results[i];
      t.add_row({labels[i],
                 fmt_double(stat_or(r, "total_members"), 0),
                 fmt_latency_summary(summarize(r.latencies_us)),
                 r.latencies_us.empty()
                     ? "-"
                     : fmt_double(stat_or(r, "messages_per_op"), 1)});
    }
    t.print();
    gqs_bench::record_json("minimization", to_json(aggregate(results)));
    std::cout
        << "\nShape check (a finding, not a win): minimization shrinks the\n"
           "structural quorums (20 → 16 members) at identical safety (same\n"
           "U_f, Definition 2 re-checked), but under the flooding transport\n"
           "the run cost is FLAT — every message is relayed everywhere\n"
           "regardless of quorum size, and the protocol's waits are paced\n"
           "by the gossip period, not by quorum cardinality. Smaller\n"
           "quorums pay off only under point-to-point routing, which the\n"
           "paper's WLOG transitive-connectivity assumption deliberately\n"
           "abstracts away.\n";
  }

  print_heading(
      "Canonical construction round-trip (every witness rebuilt from tau = "
      "U_f must check out; 200 random admitting systems)");
  {
    std::mt19937_64 rng(3);
    random_system_params params;
    params.n = 5;
    params.patterns = 3;
    int checked = 0, ok = 0;
    while (checked < 200) {
      const auto witness = random_gqs(params, rng, 1000);
      if (!witness) break;
      ++checked;
      termination_mapping tau = witness->max_termination;
      const auto rebuilt = canonical_construction(witness->system.fps, tau);
      ok += rebuilt && check_generalized(*rebuilt).ok;
    }
    text_table t({"witnesses tested", "canonical construction valid"});
    t.add_row({std::to_string(checked),
               std::to_string(ok) + "/" + std::to_string(checked)});
    t.print();
    gqs_bench::record("canonical_checked", std::uint64_t(checked));
    gqs_bench::record("canonical_ok", std::uint64_t(ok));
  }
  return 0;
}
