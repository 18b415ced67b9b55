// options.hpp — network timing model and fault-injection plan.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/failure_pattern.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"

namespace gqs {

/// Timing model of the network.
///
/// Message delay on a correct channel for a message sent at time t:
///   t <  gst : uniform in [min_delay, max_delay]   (asynchronous period)
///   t >= gst : uniform in [min_delay, delta]       (timely period)
///
/// For the purely asynchronous model set gst = 0 and delta = max_delay
/// (the default): delays are then uniformly random throughout. For the
/// partially synchronous model of §7 set gst > 0, max_delay ≫ delta.
///
/// When `channel.bytes_per_us > 0` the per-link bandwidth/queueing layer
/// (sim/network.hpp) sits in front of this propagation delay: messages
/// first serialize FIFO onto a finite-bandwidth directed link, then the
/// random delay above applies as propagation. The default (0) keeps the
/// legacy independent-delay model, bit for bit.
struct network_options {
  sim_time min_delay = 1000;    // 1 ms
  sim_time max_delay = 10000;   // 10 ms
  sim_time gst = 0;             // global stabilization time
  sim_time delta = 10000;       // post-GST delay bound
  channel_options channel;      // disabled unless bytes_per_us > 0

  // ---- observability switches (src/obs), all off by default ----
  // Telemetry never feeds back into protocol behaviour (probes and spans
  // only read state; no RNG, no events), so flipping these cannot change
  // what a run does — only what it records.
  bool telemetry = false;       ///< arm the metrics registry
  bool record_spans = false;    ///< record causal spans + net leaf events
  sim_time sample_period = 0;   ///< gauge sampling period; 0 = off

  void validate() const {
    if (min_delay <= 0 || max_delay < min_delay || delta < min_delay)
      throw std::invalid_argument("network_options: bad delay bounds");
    if (gst < 0) throw std::invalid_argument("network_options: bad gst");
    if (sample_period < 0)
      throw std::invalid_argument("network_options: bad sample_period");
    channel.validate();
  }
};

/// When each process crashes and each channel disconnects. A crashed
/// process takes no further steps from its crash time on; a disconnected
/// channel drops every message sent at or after its disconnect time
/// (messages already in flight are still delivered — the paper's
/// "from some point on it drops all messages sent through it").
class fault_plan {
 public:
  explicit fault_plan(process_id n)
      : n_(n),
        crash_at_(n, std::nullopt),
        disconnect_at_(n, std::vector<std::optional<sim_time>>(
                              n, std::nullopt)) {}

  /// No failures at all.
  static fault_plan none(process_id n) { return fault_plan(n); }

  /// Realizes a failure pattern: every process in P crashes at `at`, every
  /// channel in C (and every channel incident to a process in P, which the
  /// paper deems faulty by default) disconnects at `at`.
  static fault_plan from_pattern(const failure_pattern& f, sim_time at = 0) {
    fault_plan plan(f.system_size());
    for (process_id p : f.crashable()) plan.crash(p, at);
    for (const edge& e : f.faulty_channels().edges())
      plan.disconnect(e.from, e.to, at);
    for (process_id p : f.crashable())
      for (process_id q = 0; q < f.system_size(); ++q)
        if (p != q) {
          plan.disconnect(p, q, at);
          plan.disconnect(q, p, at);
        }
    return plan;
  }

  process_id system_size() const noexcept { return n_; }

  void crash(process_id p, sim_time at) {
    check(p);
    crash_at_[p] = at;
  }

  void disconnect(process_id from, process_id to, sim_time at) {
    check(from);
    check(to);
    if (from == to) throw std::invalid_argument("fault_plan: self-loop");
    disconnect_at_[from][to] = at;
  }

  std::optional<sim_time> crash_time(process_id p) const {
    check(p);
    return crash_at_[p];
  }

  std::optional<sim_time> disconnect_time(process_id from,
                                          process_id to) const {
    check(from);
    check(to);
    return disconnect_at_[from][to];
  }

  bool alive_at(process_id p, sim_time t) const {
    const auto c = crash_time(p);
    return !c || t < *c;
  }

  bool channel_up_at(process_id from, process_id to, sim_time t) const {
    const auto d = disconnect_time(from, to);
    return !d || t < *d;
  }

  /// Sorted, deduplicated instants at which connectivity changes (every
  /// crash and disconnect time). Failures are monotone, so connectivity is
  /// constant between consecutive change times (see sim/epochs.hpp).
  std::vector<sim_time> change_times() const {
    std::vector<sim_time> times;
    for (const auto& c : crash_at_)
      if (c) times.push_back(*c);
    for (const auto& row : disconnect_at_)
      for (const auto& d : row)
        if (d) times.push_back(*d);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
  }

 private:
  void check(process_id p) const {
    if (p >= n_) throw std::out_of_range("fault_plan: process out of range");
  }

  process_id n_;
  std::vector<std::optional<sim_time>> crash_at_;
  std::vector<std::vector<std::optional<sim_time>>> disconnect_at_;
};

}  // namespace gqs
