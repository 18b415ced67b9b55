// bench_smr_throughput — correctness and cost of the sharded, pipelined
// SMR.
//
// smr_service (smr/smr_service.hpp) commits 8 processes x 120 keyed
// commands over the n=8 threshold GQS (k=2) on a partially synchronous
// network: the keyspace partitioned over 4 consensus groups with
// planner-assigned leaders (strategy/shard_plan.hpp), one Phase-1 promise
// per view, same-instant commands batched into multi-command entries, up
// to 4 pipelined Phase-2 slots per shard, and phases targeted at
// strategy-sampled quorums with timeout escalation armed.
//
// Checks: the run converges every replica to identical per-shard applied
// prefixes with no safety violation (check_smr_agreement), its full keyed
// history passes the dependency-graph checker, and rerunning the grid
// under a different experiment-runner thread count reproduces
// bit-identical client-visible results. A raised validation pass
// (GQS_BENCH_BIG_OPS ops per process, default 25k x 8 = 200k commands)
// reruns it with the streaming checker live off the workload-driver hooks
// and batch-checks the full history afterwards.
//
// The record carries the seed-1 check pass's commit-latency p50/p99
// (simulated time), messages per committed command, realized batching
// (commands per log entry) and escalation counts, plus a congested traced
// cell's span counts and telemetry, so every key but the harness's
// wall_ms and det_aggregate's host timings is a pure function of the
// seeds. Host throughput of this engine is gqs_bench's smr-n8-congested
// workload (benchmark/).
#include "bench_main.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "core/factories.hpp"
#include "keyed_pass.hpp"
#include "strategy/shard_plan.hpp"
#include "workload/smr_workload.hpp"
#include "workload/table.hpp"

namespace {

using namespace gqs;
using gqs_bench::keyed_checks;
using gqs_bench::keyed_pass;

constexpr process_id kN = 8;
constexpr service_key kKeys = 64;
constexpr std::size_t kShards = 4;
constexpr std::uint64_t kCmdsPerProcess = 120;
constexpr sim_time kHorizon = 600L * 1000 * 1000;
constexpr sim_time kQuiesce = 1000000;  // 1 s: commit broadcasts drain
constexpr std::uint64_t kSelectorSeed = 0x5742;

client_workload_options workload(std::uint64_t ops_per_process) {
  client_workload_options opts;
  opts.keys = kKeys;
  opts.zipf_theta = 0.99;
  opts.read_ratio = 0.5;  // reads replicate through the log too
  opts.ops_per_process = ops_per_process;
  opts.inflight_window = 8;  // feeds the leader's batcher and pipeline
  opts.partition_writes = true;
  opts.seed = 20260807;
  return opts;
}

shard_plan make_plan() {
  shard_plan_options options;
  options.shards = kShards;
  options.selector_seed = kSelectorSeed;
  options.planner.read_ratio = 0.5;
  return plan_shards(threshold_quorum_system(kN, 2), options);
}

smr_options engine_options(const shard_plan& plan) {
  smr_options o;
  o.shards = kShards;
  o.shard_selectors = plan.selectors;
  o.leaders = plan.leaders;
  return o;
}

// ---------------------------------------------------------------------
// The fast path: sharded, pipelined smr_service under the keyed workload
// driver.

struct smr_result {
  keyed_pass run;
  std::uint64_t messages = 0;
  std::uint64_t escalations = 0;
  std::uint64_t view_changes = 0;
  double cmds_per_entry = 0;  ///< realized batching at the leaders
  metrics_snapshot obs;       ///< registry snapshot (telemetry runs only)
  std::vector<std::uint64_t> prefixes;  ///< converged per-shard prefixes
  /// Freshest applied (value, version) per key after convergence.
  std::vector<reg_state> finals;
};

smr_result run_smr_pass(std::uint64_t seed, const shard_plan& plan,
                        std::uint64_t ops_per_process,
                        keyed_checks checks = {}, bool telemetry = false) {
  const auto system = threshold_quorum_system(kN, 2);
  network_options net = consensus_world::partial_sync();
  net.telemetry = telemetry;
  smr_world w(system, fault_plan::none(kN), seed, kKeys,
              engine_options(plan), net);
  const sim_time horizon =
      kHorizon *
      static_cast<sim_time>(1 + ops_per_process / kCmdsPerProcess);
  smr_result r;
  r.run = gqs_bench::run_keyed_pass(w.sim, w.adapter(),
                                    workload(ops_per_process), horizon,
                                    checks);
  if (!r.run.ok) return r;
  // Commit broadcasts drain: every replica applies the full log.
  if (!w.sim.run_until_condition(
          [&] { return converged(w, r.run.completed); },
          w.sim.now() + kQuiesce + horizon)) {
    r.run.fail("sharded replicas did not converge");
    return r;
  }
  const auto agreement = check_smr_agreement(w.replicas());
  if (!agreement.linearizable) {
    r.run.fail("sharded agreement violated: " + agreement.reason);
    return r;
  }

  r.messages = w.sim.metrics().messages_sent;
  if (telemetry) r.obs = w.sim.obs().metrics.snapshot();
  std::uint64_t entries = 0, applied_at_leaders = 0;
  for (const auto* node : w.nodes) {
    r.escalations += node->counters().escalations;
    r.view_changes += node->counters().view_changes;
    entries += node->counters().entries_proposed;
    applied_at_leaders += node->counters().commands_submitted;
  }
  r.cmds_per_entry = entries > 0 ? static_cast<double>(applied_at_leaders) /
                                       static_cast<double>(entries)
                                 : 0;
  r.prefixes.reserve(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard)
    r.prefixes.push_back(w.nodes[0]->applied_prefix(shard));
  r.finals = gqs_bench::freshest_finals(
      w.nodes, kKeys, [](const smr_service& n, service_key k) -> const reg_state& {
        return n.state_of(k);
      });
  return r;
}

// ---------------------------------------------------------------------
// Congested, fully-traced cell: finite-bandwidth links + metrics registry
// + causal spans + gauge sampler, exporting a Chrome trace next to the
// bench record. The in-bench bar checks that commit spans decompose:
// every committed slot's root span carries a phase-2 child and a commit
// child that starts no earlier than the phase-2 child ends, and link
// queueing shows up as net.queue sub-spans under SMR protocol spans.

struct traced_result {
  bool ok = false;
  std::string why;
  std::uint64_t completed = 0;
  std::size_t spans = 0;
  std::size_t slots_decomposed = 0;  ///< roots with phase2 + commit kids
  std::size_t queue_spans = 0;       ///< net.queue spans recorded
  std::size_t queue_under_smr = 0;   ///< ...rooted under an smr span
  std::size_t sample_points = 0;
  metrics_snapshot obs;
  std::string timeseries_json;
  std::string trace_path;
};

traced_result run_traced_pass(std::uint64_t seed, const shard_plan& plan) {
  const auto system = threshold_quorum_system(kN, 2);
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;  // finite links: queueing is visible
  net.telemetry = true;
  net.record_spans = true;
  net.sample_period = 5000;  // one gauge sample every 5 simulated ms
  smr_world w(system, fault_plan::none(kN), seed, kKeys,
              engine_options(plan), net);
  traced_result r;
  const keyed_pass run = gqs_bench::run_keyed_pass(
      w.sim, w.adapter(), workload(kCmdsPerProcess), 4 * kHorizon);
  if (!run.ok) {
    r.why = "traced pass: " + run.why;
    return r;
  }
  w.sim.run_until(w.sim.now() + kQuiesce);  // commit broadcasts drain

  obs_bundle& o = w.sim.obs();
  o.tracer.finalize(w.sim.now());
  const std::vector<span_rec>& spans = o.tracer.spans();

  // Per-root decomposition: walk each span up to its root.
  auto root_of = [&spans](const span_rec& s) -> const span_rec& {
    const span_rec* cur = &s;
    while (cur->parent != 0) cur = &spans[cur->parent - 1];
    return *cur;
  };
  std::map<std::uint32_t, sim_time> phase2_end;   // root id -> child end
  std::map<std::uint32_t, sim_time> commit_start;  // root id -> child start
  for (const span_rec& s : spans) {
    if (s.name == "smr.phase2" && s.parent != 0)
      phase2_end[s.parent] = s.end;
    else if (s.name == "smr.commit" && s.parent != 0)
      commit_start[s.parent] = s.start;
    else if (s.name == "net.queue") {
      ++r.queue_spans;
      if (root_of(s).category == "smr") ++r.queue_under_smr;
    }
  }
  for (const auto& [root, p2_end] : phase2_end) {
    const auto c = commit_start.find(root);
    if (c == commit_start.end()) continue;
    if (spans[root - 1].name != "smr.slot") continue;
    if (c->second < p2_end) {
      r.why = "commit span starts before its phase-2 span ends";
      return r;
    }
    ++r.slots_decomposed;
  }
  if (r.slots_decomposed == 0) {
    r.why = "no slot span decomposed into phase2 + commit children";
    return r;
  }
  if (r.queue_under_smr == 0) {
    r.why = "no link-queueing sub-span attached to an SMR span";
    return r;
  }

  r.trace_path =
      gqs_bench::out_dir_path() + "/bench_smr_throughput_trace.json";
  if (!o.tracer.write_chrome_json(r.trace_path)) {
    r.why = "cannot write " + r.trace_path;
    return r;
  }
  for (const auto& series : o.sampler.all())
    r.sample_points += series.points.size();
  r.ok = true;
  r.completed = run.completed;
  r.spans = spans.size();
  r.obs = o.metrics.snapshot();
  r.timeseries_json = o.sampler.to_json();
  return r;
}

}  // namespace

int bench_entry() {
  std::cout << "bench_smr_throughput — sharded, pipelined SMR\n";
  print_heading(std::to_string(kN) + " processes x " +
                std::to_string(kCmdsPerProcess) + " commands, " +
                std::to_string(kShards) +
                " shards, n=8 threshold GQS (k=2)");

  const shard_plan plan = make_plan();
  {
    const auto duties = plan.leader_counts(kN);
    std::uint64_t max_duty = 0;
    for (const std::uint64_t d : duties) max_duty = std::max(max_duty, d);
    std::cout << "shard plan: weighted load "
              << fmt_double(plan.base.weighted_load, 4) << ", "
              << kShards << " shards, max leader duty " << max_duty
              << " shard(s)/process\n";
  }

  // ---- correctness check (one seed, full history verification) ----
  const smr_result smr_check =
      run_smr_pass(1, plan, kCmdsPerProcess, {.batch = true});
  if (!smr_check.run.ok) {
    std::cerr << "sharded check failed: " << smr_check.run.why << "\n";
    return 1;
  }
  std::uint64_t prefix_total = 0;
  for (const std::uint64_t p : smr_check.prefixes) prefix_total += p;
  std::cout << "check: sharded logs ("
            << smr_check.run.completed << " commands, " << prefix_total
            << " entries) converged, agreement clean, per-key histories "
               "linearizable (1- and 2-thread verdicts identical)\n";

  // ---- runner-thread determinism of the sharded mode (telemetry on, so
  // the registry snapshots are held to the same bit-identity bar) ----
  std::vector<run_spec> det_specs;
  for (std::uint64_t s = 2; s < 5; ++s)
    det_specs.push_back({"sharded-" + std::to_string(s), [&plan, s] {
                           const smr_result p = run_smr_pass(
                               s, plan, kCmdsPerProcess, {},
                               /*telemetry=*/true);
                           run_result r = gqs_bench::grid_cell(
                               p.run,
                               gqs_bench::finals_digest(p.finals, p.prefixes));
                           r.obs = p.obs;
                           r.stats["messages"] =
                               static_cast<double>(p.messages);
                           return r;
                         }});
  const determinism_report det = check_determinism(det_specs, {1, 2, 8});
  if (!det.ok()) {
    std::cerr << "determinism check failed: " << det.error << "\n";
    return 1;
  }
  const run_aggregate det_agg = aggregate(det.results);
  std::cout << "determinism: " << det_specs.size()
            << " sharded cells (registry snapshots included) bit-identical "
               "across 1-, 2- and 8-thread runners\n";

  // ---- congested traced cell: Chrome trace + time-series export ----
  const traced_result traced = run_traced_pass(11, plan);
  if (!traced.ok) {
    std::cerr << "traced cell failed: " << traced.why << "\n";
    return 1;
  }
  std::cout << "traced cell: " << traced.spans << " spans ("
            << traced.slots_decomposed
            << " slot roots decomposed into phase2 + commit, "
            << traced.queue_under_smr
            << " queueing sub-spans under SMR spans), "
            << traced.sample_points << " sampler points -> "
            << traced.trace_path << "\n";

  // ---- raised validation pass (streaming + batch over 200k commands) ----
  const std::uint64_t big_per_proc =
      env_count("GQS_BENCH_BIG_OPS").value_or(25000);
  const smr_result big =
      run_smr_pass(99, plan, big_per_proc, {.stream = true, .batch = true});
  if (!big.run.ok) {
    std::cerr << "raised validation failed: " << big.run.why << "\n";
    return 1;
  }
  std::cout << "validation at scale: " << fmt_count(big.run.completed)
            << " commands checked live (streaming) and in batch; realized "
               "batching "
            << fmt_double(big.cmds_per_entry, 1) << " commands/entry\n";

  const double smr_msgs =
      static_cast<double>(smr_check.messages) /
      static_cast<double>(smr_check.run.completed);
  const sample_summary smr_lat = summarize(smr_check.run.latencies_us);

  text_table t({"engine", "commands", "msgs/cmd", "commit p50/p99 ms",
                "escalations"});
  t.add_row({"sharded + pipelined", fmt_count(smr_check.run.completed),
             fmt_double(smr_msgs, 1),
             fmt_double(smr_lat.p50 / 1000, 1) + " / " +
                 fmt_double(smr_lat.p99 / 1000, 1),
             fmt_count(smr_check.escalations)});
  t.print();

  gqs_bench::record("smr_msgs_per_command", smr_msgs);
  gqs_bench::record("commit_p50_us", smr_lat.p50);
  gqs_bench::record("commit_p99_us", smr_lat.p99);
  gqs_bench::record("commands_per_entry", smr_check.cmds_per_entry);
  gqs_bench::record("escalations", smr_check.escalations);
  gqs_bench::record("view_changes", smr_check.view_changes);
  gqs_bench::record("workload_commands", smr_check.run.completed);
  gqs_bench::record("validated_commands", big.run.completed);
  gqs_bench::record("trace_spans", static_cast<std::uint64_t>(traced.spans));
  gqs_bench::record("trace_slots_decomposed",
                    static_cast<std::uint64_t>(traced.slots_decomposed));
  gqs_bench::record("trace_queue_spans",
                    static_cast<std::uint64_t>(traced.queue_spans));
  gqs_bench::record("trace_file", traced.trace_path);
  gqs_bench::record_json("telemetry", traced.obs.to_json());
  gqs_bench::record_json("timeseries", traced.timeseries_json);
  gqs_bench::record_json("det_aggregate", to_json(det_agg));
  return 0;
}
