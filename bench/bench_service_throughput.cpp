// bench_service_throughput — correctness and load of the multi-object
// quorum service.
//
// Workload: 256 keys, zipfian (θ = 0.99) key popularity, 50/50 read/write
// mix, writes partitioned into the issuing process's key range (which
// makes final per-key states a pure function of the schedule), driven
// over the Figure 1 GQS with no failures, through the quorum_service
// engine: one shared gossip stream with dirty-key batches, coalesced wire
// messages, per-key clocks, and a 4-deep per-process pipeline.
//
// Checks: every process drives every key to the same final (value,
// version), and the full keyed history passes the white-box
// dependency-graph checker (lincheck/history_checker). A separate
// million-op validation pass (GQS_BENCH_BIG_OPS ops per process, default
// 250k x 4 processes) runs the streaming checker live off the
// workload-driver hooks, batch-checks the same run, and cross-checks
// sampled closed sub-histories against Wing–Gong (<=64 ops). The
// determinism grid (check_determinism) runs at 1 and 2 runner threads;
// every cell must complete and reproduce bit-identical client-visible
// results (final-state digests, latencies, completion counts). Every pass
// is one run_keyed_pass (keyed_pass.hpp).
//
// The record carries the seed-1 check pass's per-key load (hottest key
// share, max/mean ops per key — the Malkhi–Reiter–Wool load view), gossip
// volume and p50/p95/p99 operation latencies (simulated time), so every
// key but the harness's wall_ms is a pure function of the seeds. Host
// throughput of this engine is gqs_bench's svc-fig1-f1 workload
// (benchmark/).
#include "bench_main.hpp"

#include <algorithm>
#include <iostream>

#include "core/factories.hpp"
#include "keyed_pass.hpp"
#include "lincheck/wing_gong.hpp"
#include "register/keyed_register.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;
using gqs_bench::keyed_checks;
using gqs_bench::keyed_pass;

constexpr process_id kN = 4;
constexpr service_key kKeys = 256;
constexpr std::uint64_t kOpsPerProcess = 120;
constexpr int kWindow = 4;  // in-flight operations per process
constexpr sim_time kHorizon = 600L * 1000 * 1000;
constexpr sim_time kQuiesce = 200000;  // post-run gossip settle

client_workload_options workload(std::uint64_t ops_per_process) {
  client_workload_options opts;
  opts.keys = kKeys;
  opts.zipf_theta = 0.99;
  opts.read_ratio = 0.5;
  opts.ops_per_process = ops_per_process;
  opts.inflight_window = kWindow;
  opts.partition_writes = true;
  opts.seed = 20250730;
  return opts;
}

// ---- one service pass ----

struct service_pass {
  keyed_pass run;
  /// (value, version) per key, on which every process agrees.
  std::vector<reg_state> finals;
  std::uint64_t gossip_entries = 0;
  std::uint64_t events = 0;
};

service_pass run_service(std::uint64_t seed, std::uint64_t ops_per_process,
                         sim_time horizon, keyed_checks checks = {}) {
  const auto fig = make_figure1();
  component_world<keyed_register_node> w(kN, fault_plan::none(kN), seed,
                                         network_options{}, kKeys,
                                         quorum_config::of(fig.gqs),
                                         service_options{});
  service_pass r;
  r.run = gqs_bench::run_keyed_pass(
      w.sim, keyed_node_adapter<keyed_register_node>{w.nodes},
      workload(ops_per_process), horizon, checks);
  if (!r.run.ok) return r;
  w.sim.run_until(w.sim.now() + kQuiesce);
  r.events = w.sim.metrics().events_processed;
  for (const auto* n : w.nodes)
    r.gossip_entries += n->counters().gossip_entries_sent;
  const auto state_of = [](const keyed_register_node& n,
                           service_key k) -> const reg_state& {
    return n.local_state(k);
  };
  r.finals = gqs_bench::freshest_finals(w.nodes, kKeys, state_of);
  // Convergence: every process holds the freshest state of every key.
  for (const auto* n : w.nodes)
    for (service_key k = 0; k < kKeys; ++k)
      if (!(state_of(*n, k) == r.finals[k])) {
        r.run.fail("service replicas diverge at key " + std::to_string(k));
        return r;
      }
  return r;
}

// ---- million-op validation pass ----
//
// One long service run whose full history goes through both modes of the
// white-box checker: live streaming off the driver hooks during the run,
// the batch keyed check afterwards, and sampled closed sub-histories
// cross-checked against the exponential Wing–Gong baseline (<=64 ops).
// Sizeable by GQS_BENCH_BIG_OPS (ops per process).

struct big_result {
  keyed_pass run;
  std::uint64_t wg_samples = 0;
};

big_result big_validation_pass(std::uint64_t ops_per_process) {
  big_result out;
  out.run = run_service(99, ops_per_process,
                        kHorizon * static_cast<sim_time>(
                                       1 + ops_per_process / kOpsPerProcess),
                        {.stream = true, .batch = true})
                .run;
  if (!out.run.ok) return out;

  // Sampled closed sub-histories: Wing–Gong must agree with the white-box
  // checker's SAT verdict. Hot keys carry the long histories worth
  // sampling.
  const std::vector<std::uint64_t>& ops = out.run.per_key_ops;
  std::vector<service_key> hot;
  for (service_key k = 0; k < kKeys; ++k)
    if (ops[k] >= 64) hot.push_back(k);
  std::sort(hot.begin(), hot.end(),
            [&](service_key a, service_key b) { return ops[a] > ops[b]; });
  if (hot.size() > 8) hot.resize(8);
  for (service_key k : hot) {
    register_history h;
    for (const keyed_register_op& rec : out.run.history)
      if (rec.key == k) h.push_back(rec.op);
    for (std::size_t off : {std::size_t{0}, h.size() / 2,
                            h.size() - std::min<std::size_t>(h.size(), 32)}) {
      const register_history wg_sub = closed_sample(h, off, 24);
      if (wg_sub.size() <= 64) {
        if (!check_linearizable(wg_sub).linearizable) {
          out.run.fail("Wing–Gong rejected a closed sample of key " +
                       std::to_string(k));
          return out;
        }
        ++out.wg_samples;
      }
    }
  }
  if (out.wg_samples == 0)
    out.run.fail("no sampled sub-histories — workload too small?");
  return out;
}

}  // namespace

int bench_entry() {
  std::cout << "bench_service_throughput — multi-object quorum service\n";
  print_heading(
      std::to_string(kKeys) + "-key zipfian mixed workload, " +
      std::to_string(kN) + " processes x " + std::to_string(kOpsPerProcess) +
      " ops, figure-1 GQS");

  // ---- correctness check (one seed, full history verification) ----
  const service_pass check =
      run_service(1, kOpsPerProcess, kHorizon, {.batch = true});
  if (!check.run.ok) {
    std::cerr << "check run failed: " << check.run.why << "\n";
    return 1;
  }
  std::cout << "check: " << check.run.completed
            << " ops, every process agrees on all " << kKeys
            << " keys, all per-key histories linearizable\n";

  // ---- runner-thread determinism of client-visible results ----
  std::vector<run_spec> det_specs;
  for (std::uint64_t s = 2; s < 5; ++s)
    det_specs.push_back({"svc-" + std::to_string(s), [s] {
                           const service_pass p =
                               run_service(s, kOpsPerProcess, kHorizon);
                           return gqs_bench::grid_cell(
                               p.run, gqs_bench::finals_digest(p.finals));
                         }});
  const determinism_report det = check_determinism(det_specs, {1, 2});
  if (!det.ok()) {
    std::cerr << "determinism check failed: " << det.error << "\n";
    return 1;
  }
  std::cout << "determinism: " << det_specs.size()
            << " service cells bit-identical across 1- and 2-thread "
               "runners\n";

  // ---- million-op validation pass ----
  const big_result big =
      big_validation_pass(env_count("GQS_BENCH_BIG_OPS").value_or(250000));
  if (!big.run.ok) {
    std::cerr << "million-op validation failed: " << big.run.why << "\n";
    return 1;
  }
  std::cout << "validation at scale: " << fmt_count(big.run.completed)
            << " service ops checked live (peak window "
            << fmt_count(big.run.peak_window) << " ops) and in batch; "
            << big.wg_samples << " closed samples agreed with Wing-Gong\n";

  // Per-key load of the check pass: the zipfian skew as actually served.
  std::uint64_t total_ops = 0, max_key = 0;
  for (std::uint64_t c : check.run.per_key_ops) {
    total_ops += c;
    max_key = std::max(max_key, c);
  }
  const double top_share =
      total_ops > 0 ? static_cast<double>(max_key) /
                          static_cast<double>(total_ops)
                    : 0;
  const sample_summary lat = summarize(check.run.latencies_us);

  text_table t({"engine", "ops", "sim events", "gossip entries"});
  t.add_row({"service (shared engine, window " + std::to_string(kWindow) +
                 ")",
             fmt_count(check.run.completed), fmt_count(check.events),
             fmt_count(check.gossip_entries)});
  t.print();
  std::cout << "\nservice latency p50/p95/p99: " << fmt_double(lat.p50 / 1000)
            << " / " << fmt_double(lat.p95 / 1000) << " / "
            << fmt_double(lat.p99 / 1000) << " ms; hottest key "
            << fmt_double(100 * top_share, 1) << "% of "
            << fmt_count(total_ops) << " ops\n";

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
  gqs_bench::record("service_gossip_entries", check.gossip_entries);
  gqs_bench::record("validated_ops", big.run.completed);
  gqs_bench::record("validated_peak_window",
                    static_cast<std::uint64_t>(big.run.peak_window));
  gqs_bench::record("validated_wg_samples", big.wg_samples);
  return 0;
}
