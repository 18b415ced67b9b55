// bench_sim_engine — throughput microbenchmark of the event engine.
//
// Workload: a ring of n processes circulating K shared immutable tokens
// (the way flooding envelopes travel) with seeded uniform delays; each
// process forwards until its quota drains. The same ring runs through the
// real gqs::simulation in four network configurations:
//
//   slab     — the default network: typed event records in a slab,
//              heap-ordered by {time, seq, slot}, no per-event allocation
//              and no closure copies on the hot path;
//   channels — per-link channels enabled (finite bandwidth, so every send
//              runs the serialization/FIFO arithmetic and the byte
//              counters); bar: costs at most 1.2x the slab rate;
//   wired    — counter registry armed (net.telemetry) but no spans and no
//              sampler: the registry only holds snapshot-time observers of
//              sim_metrics, so the hot path still sees only the single
//              tracer.active() guard plus a sampler next_due() compare;
//              this prices the *disabled-mode* footprint of the obs
//              subsystem (bar: within 5% of the slab rate, gated in
//              baselines.json as `telemetry_overhead`);
//   enabled  — spans + sampler recording too (info only: recording every
//              network event as a leaf span is legitimately expensive).
//
// Plus the slab engine's rate on a flooding broadcast storm (the
// protocol-shaped workload every figure bench leans on).
#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>

#include "sim/flooding.hpp"
#include "sim/simulation.hpp"
#include "workload/table.hpp"

namespace {

using namespace gqs;

constexpr process_id kRing = 8;
constexpr int kTokens = 4096;  // in-flight messages, like a flooding burst
constexpr int kQuota = 15500;  // forwards per node before it drops tokens
constexpr int kPasses = 5;     // best-of to shrug off scheduler noise
// ~ kRing * kQuota + kTokens = 129k deliveries per pass. Tokens are shared
// immutable messages forwarded around the ring without reallocation —
// exactly how flooding envelopes travel — so the measurement is dominated
// by engine mechanics, not payload churn.

struct token : message {
  int remaining;
  explicit token(int r) : remaining(r) {}
  std::string debug_name() const override { return "token"; }
};

class ring_node : public node {
 public:
  explicit ring_node(int tokens) : tokens_(tokens) {}

  void on_start() override {
    for (int t = 0; t < tokens_; ++t) send(next(), make_message<token>(t));
  }

  void on_message(process_id, const message_ptr& m) override {
    const auto* tok = message_cast<token>(m);
    if (tok && quota_ > 0) {
      --quota_;
      send(next(), m);
    }
  }

 private:
  process_id next() const { return (id() + 1) % system_size(); }
  int tokens_;
  int quota_ = kQuota;
};

/// Runs the ring under `net` and returns events/sec of the event loop;
/// `delivered` receives the delivery count for the workload check.
double ring_pass(std::uint64_t seed, const network_options& net,
                 std::uint64_t* delivered = nullptr) {
  simulation sim(kRing, net, fault_plan::none(kRing), seed);
  for (process_id p = 0; p < kRing; ++p)
    sim.set_node(p, std::make_unique<ring_node>(p == 0 ? kTokens : 0));
  sim.start();
  const auto begin = std::chrono::steady_clock::now();
  sim.run_until(sim_time_never - 1);
  const auto end = std::chrono::steady_clock::now();
  if (delivered) *delivered = sim.metrics().messages_delivered;
  return static_cast<double>(sim.metrics().events_processed) /
         std::chrono::duration<double>(end - begin).count();
}

// ---- protocol-shaped workload: flooding broadcast storm ----

class storm_node : public flooding_node {
 public:
  explicit storm_node(int rounds) : rounds_(rounds) {}

  void on_start() override { flood_broadcast(make_message<token>(rounds_)); }

  void on_deliver(process_id origin, const message_ptr& m) override {
    const auto* tok = message_cast<token>(m);
    if (tok && origin == id() && tok->remaining > 0)
      flood_broadcast(make_message<token>(tok->remaining - 1));
  }

 private:
  int rounds_;
};

double storm_pass(std::uint64_t seed) {
  constexpr process_id n = 8;
  constexpr int rounds = 60;
  simulation sim(n, network_options{}, fault_plan::none(n), seed);
  for (process_id p = 0; p < n; ++p)
    sim.set_node(p, std::make_unique<storm_node>(rounds));
  sim.start();
  const auto begin = std::chrono::steady_clock::now();
  sim.run_until(sim_time_never - 1);
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(sim.metrics().events_processed) /
         std::chrono::duration<double>(end - begin).count();
}

}  // namespace

int bench_entry() {
  std::cout << "bench_sim_engine — slab event engine throughput\n";
  print_heading("Ring workload: " + std::to_string(kTokens) +
                " shared tokens, forward quota " + std::to_string(kQuota) +
                " per process, ring of " + std::to_string(kRing) +
                " (best of " + std::to_string(kPasses) + " passes)");

  network_options channels;
  channels.channel.bytes_per_us = 1.0;  // 64 µs per default-size message
  network_options wired;
  wired.telemetry = true;  // counter registry armed; spans and sampler off
  network_options enabled;
  enabled.telemetry = true;
  enabled.record_spans = true;
  enabled.sample_period = 1000;

  double slab_rate = 0;
  std::uint64_t delivered = 0;
  for (int pass = 0; pass < kPasses; ++pass)
    slab_rate =
        std::max(slab_rate, ring_pass(7 + pass, network_options{}, &delivered));
  // All quotas must drain (tokens die only at exhausted processes).
  if (delivered < std::uint64_t{kRing} * kQuota) {
    std::cerr << "workload mismatch: " << delivered << " deliveries\n";
    return 1;
  }

  double storm_rate = 0;
  for (int pass = 0; pass < kPasses; ++pass)
    storm_rate = std::max(storm_rate, storm_pass(11 + pass));

  double channel_rate = 0;
  for (int pass = 0; pass < kPasses; ++pass)
    channel_rate = std::max(channel_rate, ring_pass(7 + pass, channels));

  double wired_rate = 0, enabled_rate = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    wired_rate = std::max(wired_rate, ring_pass(7 + pass, wired));
    enabled_rate = std::max(enabled_rate, ring_pass(7 + pass, enabled));
  }

  const double channel_cost =
      channel_rate > 0 ? slab_rate / channel_rate : 0;
  const double telemetry_overhead =
      slab_rate > 0 ? wired_rate / slab_rate : 0;
  const double telemetry_enabled_cost =
      enabled_rate > 0 ? slab_rate / enabled_rate : 0;

  text_table t({"engine", "workload", "events/sec"});
  t.add_row({"slab (typed records)", "ring",
             fmt_count(static_cast<std::uint64_t>(slab_rate))});
  t.add_row({"slab + link channels", "ring",
             fmt_count(static_cast<std::uint64_t>(channel_rate))});
  t.add_row({"slab + telemetry (disabled mode)", "ring",
             fmt_count(static_cast<std::uint64_t>(wired_rate))});
  t.add_row({"slab + telemetry (spans + sampler)", "ring",
             fmt_count(static_cast<std::uint64_t>(enabled_rate))});
  t.add_row({"slab (typed records)", "flood storm",
             fmt_count(static_cast<std::uint64_t>(storm_rate))});
  t.print();
  std::cout << "\nchannel-layer cost (slab/channels): "
            << fmt_double(channel_cost, 2) << "x — bar 1.2x\n";
  std::cout << "telemetry disabled-mode throughput (wired/slab): "
            << fmt_double(telemetry_overhead, 3) << " — bar 0.95\n";

  gqs_bench::record("slab_events_per_sec", slab_rate);
  gqs_bench::record("storm_events_per_sec", storm_rate);
  gqs_bench::record("channel_events_per_sec", channel_rate);
  gqs_bench::record("channel_cost_ratio", channel_cost);
  gqs_bench::record("wired_events_per_sec", wired_rate);
  gqs_bench::record("enabled_events_per_sec", enabled_rate);
  gqs_bench::record("telemetry_overhead", telemetry_overhead);
  gqs_bench::record("telemetry_enabled_cost_ratio", telemetry_enabled_cost);
  if (channel_cost > 1.2) {
    std::cerr << "enabled channel layer costs " << fmt_double(channel_cost, 2)
              << "x in events/sec, above the 1.2x bar\n";
    return 1;
  }
  if (telemetry_overhead < 0.95) {
    std::cerr << "disabled-mode telemetry costs more than 5% ("
              << fmt_double(telemetry_overhead, 3) << " of slab rate)\n";
    return 1;
  }
  return 0;
}
