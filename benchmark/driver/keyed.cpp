// keyed.cpp — the three simulated workloads: closed-loop keyed clients
// (workload/clients.hpp) over the quorum service or the sharded SMR
// service, with the streaming linearizability checker live on the
// driver's hooks.
//
// A timed pass wraps each protocol node in timed_node (engine callbacks)
// and timed_host (flooding self-deliveries, which the engine runs as
// posted closures and which therefore bypass the node), wraps the adapter
// calls and completion callbacks, and times the checker hooks — so host
// time splits into engine, protocol, driver and checker without any
// instrument inside the library. A span pass instead turns on the
// library's telemetry and span recording and folds the recorded spans
// into simulated-time metrics. The two never share a pass: recording a
// span per network event costs 3-5x the untraced run and would swamp the
// host split.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "bench.hpp"
#include "core/factories.hpp"
#include "lincheck/history_checker.hpp"
#include "register/keyed_register.hpp"
#include "sim/transport.hpp"
#include "smr/smr_service.hpp"
#include "strategy/planner.hpp"
#include "strategy/shard_plan.hpp"
#include "workload/clients.hpp"
#include "workload/smr_workload.hpp"

namespace bench {
namespace {

using namespace gqs;
using steady = std::chrono::steady_clock;

double since(steady::time_point t) {
  return std::chrono::duration<double>(steady::now() - t).count();
}

/// Decorator installed in place of a protocol node: the inner node is
/// attached under the same process id, and every engine callback into it
/// (start, message — flooding relays included — and timer) runs inside a
/// scope of the node's layer.
class timed_node final : public node {
 public:
  timed_node(std::unique_ptr<node> inner, layer l, layer_clock& clock)
      : inner_(std::move(inner)), layer_(l), clock_(&clock) {}

  void on_attach() override {
    inner_->attach(&sim(), id());
    inner_->on_attach();
  }
  void on_start() override {
    scope s(clock_, layer_);
    inner_->on_start();
  }
  void on_message(process_id from, const message_ptr& m) override {
    scope s(clock_, layer_);
    inner_->on_message(from, m);
  }
  void on_timer(int timer_id) override {
    scope s(clock_, layer_);
    inner_->on_timer(timer_id);
  }

 private:
  std::unique_ptr<node> inner_;
  layer layer_;
  layer_clock* clock_;
};

/// single_host whose payload deliveries run inside a layer scope. The
/// flooding layer delivers a process's own broadcasts through posted
/// closures that the engine runs directly, never through timed_node.
class timed_host final : public single_host {
 public:
  timed_host(std::unique_ptr<component> c, layer l, layer_clock& clock)
      : single_host(std::move(c)), layer_(l), clock_(&clock) {}

 protected:
  void on_deliver(process_id origin, const message_ptr& payload) override {
    scope s(clock_, layer_);
    single_host::on_deliver(origin, payload);
  }

 private:
  layer layer_;
  layer_clock* clock_;
};

/// n components of type C, each on its own host (timed when traced).
/// Events are not run here: the start events and the first issues are
/// processed inside the measured phase, under the layer clock.
template <class C>
struct world {
  simulation sim;
  std::vector<C*> nodes;

  template <class Make>
  world(process_id n, network_options net, fault_plan faults,
        std::uint64_t seed, layer l, layer_clock* clock, Make make)
      : sim(n, net, std::move(faults), seed) {
    for (process_id p = 0; p < n; ++p) {
      std::unique_ptr<C> comp = make();
      nodes.push_back(comp.get());
      std::unique_ptr<node> host;
      if (clock)
        host = std::make_unique<timed_node>(
            std::make_unique<timed_host>(std::move(comp), l, *clock), l,
            *clock);
      else
        host = std::make_unique<single_host>(std::move(comp));
      sim.set_node(p, std::move(host));
    }
    sim.start();
  }
};

/// workload_driver adapter around the library's own. Timed: the call into
/// the node is charged to the node's layer and the completion callback
/// (driver bookkeeping and the next issue) to the workload layer.
/// Untimed: a plain forward.
template <class Inner>
struct timed_adapter {
  Inner inner;
  layer node_layer;
  layer_clock* clock;

  void write(process_id p, service_key key, reg_value x,
             std::function<void(reg_version)> done) {
    if (!clock) return inner.write(p, key, x, std::move(done));
    scope s(clock, node_layer);
    inner.write(p, key, x,
                [c = clock, done = std::move(done)](reg_version v) {
                  scope cs(c, layer::workload);
                  done(v);
                });
  }
  void read(process_id p, service_key key,
            std::function<void(reg_value, reg_version)> done) {
    if (!clock) return inner.read(p, key, std::move(done));
    scope s(clock, node_layer);
    inner.read(p, key,
               [c = clock, done = std::move(done)](reg_value v,
                                                   reg_version ver) {
                 scope cs(c, layer::workload);
                 done(v, ver);
               });
  }
};

network_options traced(network_options net, const pass_config& cfg) {
  net.telemetry = cfg.spans;
  net.record_spans = cfg.spans;
  return net;
}

client_workload_options client_options(const pass_config& cfg,
                                       service_key keys, double read_ratio,
                                       int window) {
  client_workload_options o;
  o.keys = keys;
  o.zipf_theta = 0.99;
  o.read_ratio = read_ratio;
  o.ops_per_process = cfg.size;
  o.inflight_window = window;
  o.partition_writes = true;
  o.seed = cfg.seed.workload;
  return o;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double max_over_mean(const std::vector<double>& v) {
  double total = 0, top = 0;
  for (double x : v) {
    total += x;
    top = std::max(top, x);
  }
  return total > 0 ? top * static_cast<double>(v.size()) / total : 0;
}

struct keyed_spec {
  client_workload_options opts;
  process_set promised;  ///< processes whose ops must terminate (U_f)
  sim_time horizon = 0;  ///< simulated time by which they must finish
};

/// Runs one closed-loop pass to its stop condition (every promised
/// client finished) with the streaming checker live, then applies the
/// checker gates and fills the workload-independent counts. The world
/// stays alive for the caller's layer counters and drain.
template <class Node, class Inner>
void drive(world<Node>& w, Inner inner, layer node_layer,
           const keyed_spec& spec, const pass_config& cfg,
           steady::time_point t0, pass_result& r) {
  const service_key keys = spec.opts.keys;
  using adapter = timed_adapter<Inner>;
  workload_driver<adapter> driver(
      w.sim, adapter{std::move(inner), node_layer, cfg.clock}, spec.opts);
  streaming_checker live(keys);
  std::vector<std::uint64_t> retired(keys, 0), done_on_key(keys, 0);
  live.set_retire_hook(
      [&retired](service_key k, std::uint64_t n) { retired[k] += n; });
  std::uint64_t fed_invokes = 0, fed_completions = 0, promised_done = 0;
  std::size_t peak_window = 0;
  driver.on_issue = [&](const keyed_register_op& rec, std::size_t) {
    ++fed_invokes;
    scope s(cfg.clock, layer::lincheck);
    live.on_invoke(rec);
  };
  driver.on_complete_op = [&](const keyed_register_op& rec, std::size_t i) {
    ++fed_completions;
    ++done_on_key[rec.key];
    if (spec.promised.contains(rec.op.proc)) ++promised_done;
    scope s(cfg.clock, layer::lincheck);
    live.on_complete(rec, i);
    peak_window = std::max(peak_window, live.active_ops());
  };
  const std::uint64_t promised_total =
      spec.opts.ops_per_process * spec.promised.size();

  driver.launch();
  const steady::time_point t1 = steady::now();
  r.setup_s = std::chrono::duration<double>(t1 - t0).count();
  if (cfg.setup_only) return;
  if (cfg.clock) cfg.clock->start(layer::sim);
  w.sim.run_until_condition([&] { return promised_done == promised_total; },
                            spec.horizon);
  if (cfg.clock) r.self_s = cfg.clock->lap();
  r.wall_s = since(t1);

  r.attempted = promised_total;
  r.completed = driver.completed();
  r.failed = promised_total - promised_done;
  r.sim = w.sim.metrics();

  // ---- checker gates ----
  if (fed_invokes != driver.issued() || fed_completions != r.completed)
    r.fail("streaming checker did not see every operation");
  const lincheck_result& verdict = live.finish();
  if (!verdict.linearizable)
    r.fail("streaming checker rejected the run: " + verdict.reason);
  std::set<service_key> stalled_keys;
  std::uint64_t stalled = 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(driver.history().size());
  fnv d;
  for (const keyed_register_op& rec : driver.history()) {
    const register_op& op = rec.op;
    d.mix(rec.key);
    d.mix(op.kind == reg_op_kind::write);
    d.mix(op.proc);
    d.mix(static_cast<std::uint64_t>(op.value));
    d.mix(op.version.number);
    d.mix(op.version.writer);
    d.mix(static_cast<std::uint64_t>(op.invoked_at));
    d.mix(op.invoked_stamp);
    if (op.complete()) {
      d.mix(static_cast<std::uint64_t>(*op.returned_at));
      d.mix(op.returned_stamp);
      latencies_ms.push_back(
          static_cast<double>(*op.returned_at - op.invoked_at) / 1000);
    } else {
      stalled_keys.insert(rec.key);
      if (!spec.promised.contains(op.proc)) ++stalled;
    }
  }
  for (service_key k = 0; k < keys; ++k)
    if (!stalled_keys.count(k) && retired[k] != done_on_key[k]) {
      r.fail("streaming checker left completed ops of key " +
             std::to_string(k) + " unretired");
      break;
    }
  for (const std::uint64_t x :
       {r.sim.messages_sent, r.sim.messages_delivered,
        r.sim.dropped_disconnected, r.sim.dropped_receiver_crashed,
        r.sim.timers_fired, r.sim.events_processed, r.sim.bytes_sent,
        r.sim.bytes_delivered, r.sim.dropped_queue_full,
        r.sim.max_link_queue_depth})
    d.mix(x);
  r.digest = d.h;

  // ---- workload-independent counts ----
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto ops = static_cast<double>(r.completed);
  auto& c = r.counts;
  c["sim_p50_ms"] = percentile(latencies_ms, 0.50);
  c["sim_p99_ms"] = percentile(latencies_ms, 0.99);
  c["latency_samples"] = static_cast<double>(latencies_ms.size());
  c["sim_end_s"] = static_cast<double>(w.sim.now()) / 1e6;
  c["msgs_per_op"] = ratio(static_cast<double>(r.sim.messages_sent), ops);
  c["wire_bytes_per_op"] = ratio(static_cast<double>(r.sim.bytes_sent), ops);
  c["ops_failed_frac"] = ratio(static_cast<double>(r.failed),
                               static_cast<double>(r.attempted));
  c["sim.events_per_op"] =
      ratio(static_cast<double>(r.sim.events_processed), ops);
  c["sim.timers_per_op"] = ratio(static_cast<double>(r.sim.timers_fired), ops);
  c["sim.delivered_per_op"] =
      ratio(static_cast<double>(r.sim.messages_delivered), ops);
  c["sim.dropped_per_op"] =
      ratio(static_cast<double>(r.sim.dropped_disconnected +
                                r.sim.dropped_receiver_crashed +
                                r.sim.dropped_queue_full),
            ops);
  c["net.max_queue_depth"] = static_cast<double>(r.sim.max_link_queue_depth);
  c["net.link_bytes_max_over_mean"] =
      max_over_mean(w.sim.channels().per_link_bytes());
  c["lincheck.peak_window"] = static_cast<double>(peak_window);
  c["workload.stalled_outside_uf"] = static_cast<double>(stalled);

  // ---- simulated-time spans ----
  if (!cfg.spans) return;
  trace_recorder& tracer = w.sim.obs().tracer;
  tracer.finalize(w.sim.now());
  std::map<std::string, std::pair<double, double>> fold;  // count, total µs
  for (const span_rec& s : tracer.spans()) {
    auto& [n, total] = fold[s.name];
    n += 1;
    total += static_cast<double>(s.end - s.start);
  }
  auto mean_ms = [&](const char* metric, const char* span) {
    const auto it = fold.find(span);
    if (it != fold.end())
      r.spans[metric] = it->second.second / it->second.first / 1000;
  };
  auto per_op_ms = [&](const char* metric, const char* span) {
    const auto it = fold.find(span);
    if (it != fold.end())
      r.spans[metric] = ratio(it->second.second / 1000, ops);
  };
  mean_ms("quorum.get_ms", "svc.get");
  mean_ms("quorum.set_ms", "svc.set");
  mean_ms("smr.submit_ms", "smr.submit");
  mean_ms("smr.phase2_ms", "smr.phase2");
  mean_ms("smr.commit_ms", "smr.commit");
  per_op_ms("net.queue_ms_per_op", "net.queue");
  per_op_ms("net.serialize_ms_per_op", "net.serialize");
}

template <class Node>
std::vector<double> quorum_hits(const std::vector<Node*>& nodes) {
  std::vector<double> hits(nodes.size(), 0);
  for (const Node* n : nodes) {
    const auto& h = n->per_process_quorum_hits();
    for (std::size_t p = 0; p < h.size() && p < hits.size(); ++p)
      hits[p] += static_cast<double>(h[p]);
  }
  return hits;
}

void quorum_counts(const std::vector<keyed_register_node*>& nodes,
                   pass_result& r) {
  service_counters t;
  for (const keyed_register_node* n : nodes) {
    const service_counters& c = n->counters();
    t.flushes += c.flushes;
    t.set_batches_sent += c.set_batches_sent;
    t.set_entries_sent += c.set_entries_sent;
    t.gossip_batches_sent += c.gossip_batches_sent;
    t.gossip_entries_sent += c.gossip_entries_sent;
    t.nacks_sent += c.nacks_sent;
    t.repairs_sent += c.repairs_sent;
    t.escalations += c.escalations;
  }
  const auto ops = static_cast<double>(r.completed);
  auto& c = r.counts;
  c["quorum.flushes_per_op"] = ratio(static_cast<double>(t.flushes), ops);
  c["quorum.set_entries_per_batch"] =
      ratio(static_cast<double>(t.set_entries_sent),
            static_cast<double>(t.set_batches_sent));
  c["quorum.gossip_batches_per_op"] =
      ratio(static_cast<double>(t.gossip_batches_sent), ops);
  c["quorum.gossip_entries_per_batch"] =
      ratio(static_cast<double>(t.gossip_entries_sent),
            static_cast<double>(t.gossip_batches_sent));
  c["quorum.escalations"] = static_cast<double>(t.escalations);
  c["quorum.nacks"] = static_cast<double>(t.nacks_sent);
  c["quorum.repairs"] = static_cast<double>(t.repairs_sent);
  c["strategy.hits_max_over_mean"] = max_over_mean(quorum_hits(nodes));
}

void plan_counts(const plan_result& plan, pass_result& r) {
  r.counts["strategy.iterations_per_inst"] = plan.iterations;
  r.counts["strategy.converged_frac"] = plan.converged ? 1 : 0;
}

// Simulated horizons: 5× the simulated end time of the full round at
// seed 1. Promised operations still incomplete there count as failed.
constexpr sim_time kFig1Horizon = 5 * 20459LL * 1000 * 1000;
constexpr sim_time kTargetedHorizon = 5 * 288LL * 1000 * 1000;
constexpr sim_time kSmrHorizon = 5 * 355LL * 1000 * 1000;

}  // namespace

pass_result run_fig1(const pass_config& cfg) {
  pass_result r;
  const steady::time_point t0 = steady::now();
  const figure1_system fig = make_figure1();
  const failure_pattern& f1 = fig.gqs.fps[0];
  const quorum_config qc = quorum_config::of(fig.gqs);
  world<keyed_register_node> w(
      fig.gqs.system_size(), traced(network_options{}, cfg),
      fault_plan::from_pattern(f1, 0), cfg.seed.sim, layer::quorum,
      cfg.clock, [&] { return std::make_unique<keyed_register_node>(256, qc); });
  keyed_spec spec{client_options(cfg, 256, 0.5, 4), compute_u_f(fig.gqs, f1),
                  kFig1Horizon};
  drive(w, keyed_node_adapter<keyed_register_node>{w.nodes}, layer::quorum,
        spec, cfg, t0, r);
  quorum_counts(w.nodes, r);
  return r;
}

pass_result run_targeted(const pass_config& cfg) {
  pass_result r;
  const steady::time_point t0 = steady::now();
  constexpr process_id kN = 8;
  const generalized_quorum_system system = threshold_quorum_system(kN, 2);
  planner_options po;
  po.read_ratio = 0.9;
  const steady::time_point tp = steady::now();
  const plan_result plan = plan_optimal(system, po);
  r.plan_s = since(tp);
  service_options so;
  so.selector =
      std::make_shared<const quorum_selector>(plan.strategy, cfg.seed.selector);
  const quorum_config qc = quorum_config::of(system);
  world<keyed_register_node> w(
      kN, traced(network_options{}, cfg), fault_plan::none(kN), cfg.seed.sim,
      layer::quorum, cfg.clock,
      [&] { return std::make_unique<keyed_register_node>(256, qc, so); });
  keyed_spec spec{client_options(cfg, 256, 0.9, 8), process_set::full(kN),
                  kTargetedHorizon};
  drive(w, keyed_node_adapter<keyed_register_node>{w.nodes}, layer::quorum,
        spec, cfg, t0, r);
  quorum_counts(w.nodes, r);
  plan_counts(plan, r);
  return r;
}

pass_result run_smr(const pass_config& cfg) {
  pass_result r;
  const steady::time_point t0 = steady::now();
  constexpr process_id kN = 8;
  constexpr std::size_t kShards = 4;
  const generalized_quorum_system system = threshold_quorum_system(kN, 2);
  shard_plan_options spo;
  spo.shards = kShards;
  spo.selector_seed = cfg.seed.selector;
  spo.planner.read_ratio = 0.5;
  const steady::time_point tp = steady::now();
  const shard_plan plan = plan_shards(system, spo);
  r.plan_s = since(tp);
  smr_options so;
  so.shards = kShards;
  so.shard_selectors = plan.selectors;
  so.leaders = plan.leaders;
  network_options net = consensus_world::partial_sync();
  net.channel.bytes_per_us = 0.5;
  const quorum_config qc = quorum_config::of(system);
  world<smr_service> w(
      kN, traced(net, cfg), fault_plan::none(kN), cfg.seed.sim, layer::smr,
      cfg.clock, [&] { return std::make_unique<smr_service>(64, qc, so); });
  keyed_spec spec{client_options(cfg, 64, 0.5, 8), process_set::full(kN),
                  kSmrHorizon};
  drive(w, smr_adapter{w.nodes}, layer::smr, spec, cfg, t0, r);
  if (cfg.setup_only) return r;

  // Drain: commit announcements reach every replica, which must then hold
  // identical per-shard prefixes with no slot decided twice.
  const bool converged = w.sim.run_until_condition(
      [&] {
        for (std::size_t s = 0; s < kShards; ++s)
          for (const smr_service* n : w.nodes)
            if (n->applied_prefix(s) != w.nodes[0]->applied_prefix(s))
              return false;
        for (const smr_service* n : w.nodes)
          if (n->counters().commands_applied < r.completed) return false;
        return true;
      },
      w.sim.now() + kSmrHorizon);
  if (!converged) r.fail("SMR replicas did not converge after the run");
  const lincheck_result agreement = check_smr_agreement(
      std::vector<const smr_service*>(w.nodes.begin(), w.nodes.end()));
  if (!agreement.linearizable)
    r.fail("SMR agreement violated: " + agreement.reason);
  for (const smr_service* n : w.nodes)
    if (n->safety_violation())
      r.fail("SMR safety violation: " + *n->safety_violation());

  smr_counters t;
  for (const smr_service* n : w.nodes) {
    const smr_counters& c = n->counters();
    t.commands_submitted += c.commands_submitted;
    t.commands_forwarded += c.commands_forwarded;
    t.commands_deduped += c.commands_deduped;
    t.phase1_rounds += c.phase1_rounds;
    t.escalations += c.escalations;
    t.view_changes += c.view_changes;
    t.retries += c.retries;
  }
  double cmds = 0, entries = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& log = w.nodes[0]->log(s);
    for (std::uint64_t i = 0; i < w.nodes[0]->applied_prefix(s); ++i)
      if (log[i]) {
        cmds += static_cast<double>(log[i]->size());
        entries += 1;
      }
  }
  auto& c = r.counts;
  c["smr.cmds_per_entry"] = ratio(cmds, entries);
  c["smr.forwarded_frac"] =
      ratio(static_cast<double>(t.commands_forwarded),
            static_cast<double>(t.commands_submitted));
  c["smr.phase1_rounds"] = static_cast<double>(t.phase1_rounds);
  c["smr.escalations"] = static_cast<double>(t.escalations);
  c["smr.view_changes"] = static_cast<double>(t.view_changes);
  c["smr.retries"] = static_cast<double>(t.retries);
  c["smr.deduped"] = static_cast<double>(t.commands_deduped);
  c["strategy.hits_max_over_mean"] = max_over_mean(quorum_hits(w.nodes));
  plan_counts(plan.base, r);
  return r;
}

}  // namespace bench
