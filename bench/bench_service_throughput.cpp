// bench_service_throughput — throughput of the multi-object quorum
// service.
//
// Workload: 256 keys, zipfian (θ = 0.99) key popularity, 50/50 read/write
// mix, writes partitioned into the issuing process's key range (which
// makes final per-key states a pure function of the schedule), driven
// over the Figure 1 GQS with no failures, through the quorum_service
// engine: one shared gossip stream with dirty-key batches, coalesced wire
// messages, per-key clocks, and a 4-deep per-process pipeline.
//
// Checks before any timing is reported: every process drives every key to
// the same final (value, version), and the full keyed history passes the
// scalable dependency-graph checker (lincheck/history_checker) with
// identical results from the 1- and 2-thread per-key fan-outs. A separate
// million-op validation pass (GQS_BENCH_BIG_OPS ops per process, default
// 250k x 4 processes) runs the streaming checker live off the
// workload-driver hooks, batch-checks the same run, and cross-checks
// sampled closed sub-histories against Wing–Gong (<=64 ops) and the dense
// Appendix-B replay (<=10^3 ops). The determinism grid fans across the
// experiment runner; rerunning it with a different thread count must
// reproduce bit-identical client-visible results (final-state digests,
// latencies, completion counts).
//
// The record carries service ops/sec (an `absolute` key in
// bench/baselines.json), per-key load (hottest key share, max/mean ops per
// key — the Malkhi–Reiter–Wool load view) and p50/p95/p99 operation
// latencies.
#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>

#include "core/factories.hpp"
#include "lincheck/dependency_graph.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"
#include "register/keyed_register.hpp"
#include "sim/runner.hpp"
#include "sim/transport.hpp"
#include "workload/clients.hpp"
#include "workload/table.hpp"

namespace {

using namespace gqs;

constexpr process_id kN = 4;
constexpr service_key kKeys = 256;
constexpr std::uint64_t kOpsPerProcess = 120;
constexpr int kReps = 3;  // best-of passes
constexpr int kWindow = 4;  // in-flight operations per process
constexpr sim_time kHorizon = 600L * 1000 * 1000;
constexpr sim_time kQuiesce = 200000;  // post-run gossip settle

client_workload_options workload() {
  client_workload_options opts;
  opts.keys = kKeys;
  opts.zipf_theta = 0.99;
  opts.read_ratio = 0.5;
  opts.ops_per_process = kOpsPerProcess;
  opts.inflight_window = kWindow;
  opts.partition_writes = true;
  opts.seed = 20250730;
  return opts;
}

// ---- one measured pass ----

struct pass_result {
  bool ok = false;
  double ops_per_sec = 0;
  double wall_s = 0;
  std::uint64_t completed = 0;
  std::vector<double> latencies_us;
  std::vector<std::uint64_t> per_key_ops;
  /// (value, version) per key at process 0 after quiesce.
  std::vector<std::pair<reg_value, reg_version>> finals;
  bool per_key_linearizable = true;
  std::string lin_reason;
  std::uint64_t gossip_entries = 0;
  std::uint64_t events = 0;
};

pass_result service_pass(std::uint64_t seed, bool check_histories) {
  const auto fig = make_figure1();
  simulation sim(kN, network_options{}, fault_plan::none(kN), seed);
  std::vector<keyed_register_node*> nodes;
  for (process_id p = 0; p < kN; ++p) {
    auto comp = std::make_unique<keyed_register_node>(
        kKeys, quorum_config::of(fig.gqs), service_options{});
    nodes.push_back(comp.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(comp)));
  }
  sim.start();
  sim.run_until(0);
  keyed_node_adapter<keyed_register_node> adapter{nodes};
  workload_driver<keyed_node_adapter<keyed_register_node>> driver(
      sim, std::move(adapter), workload());

  pass_result r;
  driver.launch();
  const auto begin = std::chrono::steady_clock::now();
  const bool done = sim.run_until_condition(
      [&] { return driver.done(); }, sim.now() + kHorizon);
  const auto end = std::chrono::steady_clock::now();
  if (!done) return r;
  sim.run_until(sim.now() + kQuiesce);
  r.ok = true;
  r.wall_s = std::chrono::duration<double>(end - begin).count();
  r.completed = driver.completed();
  r.ops_per_sec = r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s
                               : 0;
  r.latencies_us = driver.latencies_us();
  r.per_key_ops = driver.per_key_ops();
  r.events = sim.metrics().events_processed;
  for (const auto* n : nodes)
    r.gossip_entries += n->counters().gossip_entries_sent;
  r.finals.reserve(kKeys);
  for (service_key k = 0; k < kKeys; ++k) {
    const auto& s = nodes[0]->local_state(k);
    r.finals.emplace_back(s.value, s.version);
  }
  // Convergence: every process agrees with process 0.
  for (process_id p = 1; p < kN && r.ok; ++p)
    for (service_key k = 0; k < kKeys; ++k)
      if (!(nodes[p]->local_state(k).value == r.finals[k].first &&
            nodes[p]->local_state(k).version == r.finals[k].second)) {
        r.ok = false;
        r.lin_reason = "service replicas diverge at key " +
                       std::to_string(k);
      }
  if (check_histories) {
    // Full keyed history through the scalable checker, serial and
    // experiment_runner fan-out — the two must agree bit-for-bit.
    keyed_check_options serial, pooled;
    serial.threads = 1;
    pooled.threads = 2;
    const auto l1 = check_keyed_history(driver.history(), kKeys, serial);
    const auto l2 = check_keyed_history(driver.history(), kKeys, pooled);
    if (!l1.linearizable) {
      r.per_key_linearizable = false;
      r.lin_reason = l1.reason;
    } else if (l1.linearizable != l2.linearizable ||
               l1.reason != l2.reason || l1.per_key_ops != l2.per_key_ops) {
      r.per_key_linearizable = false;
      r.lin_reason = "keyed checker fan-out differs across thread counts";
    }
  }
  return r;
}

// ---- million-op validation pass ----
//
// One long service run whose full history goes through every mode of the
// scalable checker: live streaming off the driver hooks during the run,
// batch keyed fan-out afterwards (1- and 2-thread pools identical), and
// sampled closed sub-histories cross-checked against the exponential
// Wing–Gong baseline (<=64 ops) and the dense Appendix-B replay
// (<=10^3 ops). Sizeable by GQS_BENCH_BIG_OPS (ops per process).

struct big_result {
  bool ok = false;
  std::string why;
  std::uint64_t completed = 0;
  std::size_t peak_window = 0;
  double check_s = 0;         // best keyed batch check time
  double stream_s = 0;        // wall time of the run the live checker rode
  std::uint64_t wg_samples = 0;
  std::uint64_t dense_samples = 0;
};

big_result big_validation_pass(std::uint64_t ops_per_process) {
  big_result out;
  const auto fig = make_figure1();
  simulation sim(kN, network_options{}, fault_plan::none(kN), 99);
  std::vector<keyed_register_node*> nodes;
  for (process_id p = 0; p < kN; ++p) {
    auto comp = std::make_unique<keyed_register_node>(
        kKeys, quorum_config::of(fig.gqs), service_options{});
    nodes.push_back(comp.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(comp)));
  }
  sim.start();
  sim.run_until(0);
  keyed_node_adapter<keyed_register_node> adapter{nodes};
  client_workload_options opts = workload();
  opts.ops_per_process = ops_per_process;
  workload_driver<keyed_node_adapter<keyed_register_node>> driver(
      sim, std::move(adapter), opts);

  streaming_checker live(kKeys);
  driver.on_issue = [&](const keyed_register_op& rec, std::size_t) {
    live.on_invoke(rec);
  };
  driver.on_complete_op = [&](const keyed_register_op& rec,
                              std::size_t idx) {
    live.on_complete(rec, idx);
    out.peak_window = std::max(out.peak_window, live.active_ops());
  };

  driver.launch();
  const auto begin = std::chrono::steady_clock::now();
  const sim_time horizon =
      kHorizon * static_cast<sim_time>(
                     1 + ops_per_process / kOpsPerProcess);
  if (!sim.run_until_condition([&] { return driver.done(); },
                               sim.now() + horizon)) {
    out.why = "big validation run did not complete";
    return out;
  }
  out.stream_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  out.completed = driver.completed();
  const auto& streamed = live.finish();
  if (!streamed.linearizable) {
    out.why = "streaming checker flagged the service run: " +
              streamed.reason;
    return out;
  }
  if (live.retired_ops() != out.completed || live.active_ops() != 0) {
    out.why = "streaming checker failed to retire the drained run";
    return out;
  }

  // Batch keyed check of the same history, both pool widths.
  keyed_check_options serial, pooled;
  serial.threads = 1;
  pooled.threads = 2;
  const auto c0 = std::chrono::steady_clock::now();
  const auto l1 = check_keyed_history(driver.history(), kKeys, serial);
  const auto c1 = std::chrono::steady_clock::now();
  const auto l2 = check_keyed_history(driver.history(), kKeys, pooled);
  const auto c2 = std::chrono::steady_clock::now();
  out.check_s = std::min(std::chrono::duration<double>(c1 - c0).count(),
                         std::chrono::duration<double>(c2 - c1).count());
  if (!l1.linearizable) {
    out.why = "batch check flagged the service run: " + l1.reason;
    return out;
  }
  if (l1.linearizable != l2.linearizable || l1.reason != l2.reason ||
      l1.per_key_ops != l2.per_key_ops) {
    out.why = "keyed checker fan-out differs across thread counts";
    return out;
  }

  // Sampled closed sub-histories: Wing–Gong and the dense replay must
  // agree with the scalable checker's SAT verdict. Hot keys carry the
  // long histories worth sampling.
  std::vector<service_key> hot;
  for (service_key k = 0; k < kKeys; ++k)
    if (l1.per_key_ops[k] >= 64) hot.push_back(k);
  std::sort(hot.begin(), hot.end(), [&](service_key a, service_key b) {
    return l1.per_key_ops[a] > l1.per_key_ops[b];
  });
  if (hot.size() > 8) hot.resize(8);
  for (service_key k : hot) {
    const register_history h = driver.history_of(k);
    for (std::size_t off : {std::size_t{0}, h.size() / 2,
                            h.size() - std::min<std::size_t>(h.size(), 32)}) {
      const register_history wg_sub = closed_sample(h, off, 24);
      if (wg_sub.size() <= 64) {
        if (!check_linearizable(wg_sub).linearizable) {
          out.why = "Wing–Gong rejected a closed sample of key " +
                    std::to_string(k);
          return out;
        }
        ++out.wg_samples;
      }
      const register_history dense_sub = closed_sample(h, off, 1000);
      if (!check_dependency_graph(dense_sub).linearizable) {
        out.why = "dense replay rejected a closed sample of key " +
                  std::to_string(k);
        return out;
      }
      ++out.dense_samples;
    }
  }
  if (out.wg_samples == 0 || out.dense_samples == 0) {
    out.why = "no sampled sub-histories — workload too small?";
    return out;
  }
  out.ok = true;
  return out;
}

std::uint64_t finals_digest(const pass_result& r) {
  std::uint64_t d = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t x) {
    d ^= x;
    d *= 0x100000001b3ull;
  };
  for (const auto& [value, version] : r.finals) {
    mix(static_cast<std::uint64_t>(value));
    mix(version.number);
    mix(version.writer);
  }
  return d;
}

}  // namespace

int bench_entry() {
  std::cout << "bench_service_throughput — multi-object quorum service\n";
  print_heading(
      std::to_string(kKeys) + "-key zipfian mixed workload, " +
      std::to_string(kN) + " processes x " + std::to_string(kOpsPerProcess) +
      " ops, figure-1 GQS (best of " + std::to_string(kReps) + ")");

  // ---- correctness check (one seed, full history verification) ----
  const pass_result check = service_pass(1, true);
  if (!check.ok || !check.per_key_linearizable) {
    std::cerr << "check run failed: " << check.lin_reason << "\n";
    return 1;
  }
  std::cout << "check: " << check.completed
            << " ops, every process agrees on all " << kKeys
            << " keys, all per-key histories linearizable\n";

  // ---- runner-thread determinism of client-visible results ----
  auto service_cell = [](std::uint64_t seed) {
    return [seed] {
      const pass_result p = service_pass(seed, false);
      run_result r;
      r.ok = p.ok;
      r.latencies_us = p.latencies_us;
      r.stats["completed"] = static_cast<double>(p.completed);
      const std::uint64_t digest = finals_digest(p);
      r.stats["digest_hi"] = static_cast<double>(digest >> 32);
      r.stats["digest_lo"] = static_cast<double>(digest & 0xffffffffull);
      r.stats["ops_per_sec"] = p.ops_per_sec;
      return r;
    };
  };
  std::vector<run_spec> det_specs;
  for (std::uint64_t s = 2; s < 5; ++s)
    det_specs.push_back({"svc-" + std::to_string(s), service_cell(s)});
  const auto det1 = experiment_runner(1).run_all(det_specs);
  const auto det2 = experiment_runner(2).run_all(det_specs);
  for (std::size_t i = 0; i < det_specs.size(); ++i) {
    const bool same =
        det1[i].ok == det2[i].ok &&
        det1[i].latencies_us == det2[i].latencies_us &&
        stat_or(det1[i], "completed") == stat_or(det2[i], "completed") &&
        stat_or(det1[i], "digest_hi") == stat_or(det2[i], "digest_hi") &&
        stat_or(det1[i], "digest_lo") == stat_or(det2[i], "digest_lo");
    if (!same) {
      std::cerr << "client-visible results differ across runner thread "
                   "counts (cell "
                << det_specs[i].label << ")\n";
      return 1;
    }
  }
  std::cout << "determinism: " << det_specs.size()
            << " service cells bit-identical across 1- and 2-thread "
               "runners\n";

  // ---- million-op validation pass ----
  const big_result big =
      big_validation_pass(env_count("GQS_BENCH_BIG_OPS").value_or(250000));
  if (!big.ok) {
    std::cerr << "million-op validation failed: " << big.why << "\n";
    return 1;
  }
  const double big_check_rate =
      big.check_s > 0 ? static_cast<double>(big.completed) / big.check_s : 0;
  std::cout << "validation at scale: " << fmt_count(big.completed)
            << " service ops checked live (peak window "
            << fmt_count(big.peak_window) << " ops) and in batch at "
            << fmt_count(static_cast<std::uint64_t>(big_check_rate))
            << " ops/sec; " << big.wg_samples
            << " closed samples agreed with Wing-Gong, "
            << big.dense_samples << " with the dense replay\n";

  // ---- throughput (best-of passes) ----
  pass_result best;
  for (int rep = 0; rep < kReps; ++rep) {
    pass_result s = service_pass(7 + static_cast<std::uint64_t>(rep), false);
    if (!s.ok) {
      std::cerr << "throughput pass failed\n";
      return 1;
    }
    if (s.ops_per_sec > best.ops_per_sec) best = std::move(s);
  }

  // Per-key load: the zipfian skew as actually served.
  std::uint64_t total_ops = 0, max_key = 0;
  for (std::uint64_t c : best.per_key_ops) {
    total_ops += c;
    max_key = std::max(max_key, c);
  }
  const double top_share =
      total_ops > 0 ? static_cast<double>(max_key) /
                          static_cast<double>(total_ops)
                    : 0;
  const sample_summary lat = summarize(best.latencies_us);

  text_table t({"engine", "ops/sec", "sim events", "notes"});
  t.add_row({"service (shared engine, window " + std::to_string(kWindow) +
                 ")",
             fmt_count(static_cast<std::uint64_t>(best.ops_per_sec)),
             fmt_count(best.events),
             "gossip entries " + fmt_count(best.gossip_entries)});
  t.print();
  std::cout << "\nservice latency p50/p95/p99: " << fmt_double(lat.p50 / 1000)
            << " / " << fmt_double(lat.p95 / 1000) << " / "
            << fmt_double(lat.p99 / 1000) << " ms; hottest key "
            << fmt_double(100 * top_share, 1) << "% of "
            << fmt_count(total_ops) << " ops\n";

  gqs_bench::record("service_ops_per_sec", best.ops_per_sec);
  gqs_bench::record("latency_p50_us", lat.p50);
  gqs_bench::record("latency_p95_us", lat.p95);
  gqs_bench::record("latency_p99_us", lat.p99);
  gqs_bench::record("per_key_load_max", static_cast<std::uint64_t>(max_key));
  gqs_bench::record("per_key_load_mean",
                    total_ops > 0
                        ? static_cast<double>(total_ops) / kKeys
                        : 0.0);
  gqs_bench::record("per_key_top_share", top_share);
  gqs_bench::record("workload_keys", static_cast<std::uint64_t>(kKeys));
  gqs_bench::record("workload_ops", total_ops);
  gqs_bench::record("service_gossip_entries", best.gossip_entries);
  gqs_bench::record("validated_ops", big.completed);
  gqs_bench::record("validated_check_ops_per_sec", big_check_rate);
  gqs_bench::record("validated_peak_window",
                    static_cast<std::uint64_t>(big.peak_window));
  gqs_bench::record("validated_wg_samples", big.wg_samples);
  gqs_bench::record("validated_dense_samples", big.dense_samples);
  return 0;
}
