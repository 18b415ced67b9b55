// clients.hpp — keyed workload drivers for the multi-object quorum
// service and the engines built like it.
//
// A workload is a per-process operation schedule (key choice uniform or
// zipfian, read/write mix, deterministic values) driven either
// closed-loop (a configurable in-flight window per process, optionally
// with think time between completion and next issue) or open-loop (fixed
// arrival spacing, regardless of completions). Each process's schedule is
// drawn on demand, one operation ahead of its issue, from its own
// schedule_stream; it is still a pure function of the options — *no
// timing feedback* — so the same workload replayed against two engines
// (say, broadcast and targeted quorum access) issues the identical
// operation sequence per process, making final per-key states directly
// comparable.
//
// The driver is engine-agnostic: it issues through an adapter exposing
//   void write(process_id p, service_key key, reg_value x,
//              std::function<void(reg_version)> done);
//   void read(process_id p, service_key key,
//             std::function<void(reg_value, reg_version)> done);
// and records a keyed history (per-key projections feed the
// linearizability checkers) plus per-op latencies and per-key load
// counts for the Malkhi–Reiter–Wool-style load report.
//
// Well-formedness: a process never runs two concurrent operations on the
// same key (same contract as keyed_register). The driver enforces this by
// head-of-line blocking: operations issue strictly in schedule order, and
// an operation whose key is still busy at its process stalls the issue
// loop until that key frees. With partition_writes (the default), writes
// remap into the issuing process's key partition, so per-key write
// sequences — and therefore final per-key states — are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "core/sampling.hpp"
#include "lincheck/register_history.hpp"
#include "sim/simulation.hpp"
#include "workload/stats.hpp"

namespace gqs {

/// Deterministic Zipf(theta) sampler over {0..n-1} (theta = 0 is
/// uniform): an inverse-CDF table built once, drawn by integer thresholds
/// on the engine output (core/sampling.hpp), one guide-table lookup and a
/// short scan per draw.
class zipf_sampler {
 public:
  zipf_sampler(std::size_t n, double theta);

  service_key operator()(std::mt19937_64& rng) const {
    return static_cast<service_key>(draw_(rng()));
  }

  std::size_t size() const noexcept { return draw_.size(); }

 private:
  sampling::inverse_cdf draw_;
};

/// One scripted client operation.
struct client_op {
  bool is_read = true;
  service_key key = 0;
  reg_value value = 0;  // writes only
};

struct client_workload_options {
  service_key keys = 256;
  double zipf_theta = 0.99;  ///< 0 = uniform key choice
  double read_ratio = 0.5;
  std::uint64_t ops_per_process = 64;
  /// Closed loop: operations a process keeps in flight (1 = the seed's
  /// strictly sequential client).
  int inflight_window = 4;
  /// Closed loop: delay between a completion and the next issue.
  sim_time think_time = 0;
  /// > 0 switches to an open loop: one arrival per process every
  /// `open_interval`, issued regardless of completions.
  sim_time open_interval = 0;
  /// Remap write keys into the issuing process's partition
  /// (key mod n == p), keeping per-key write sequences single-writer and
  /// final states engine-independent. Reads sample all keys.
  bool partition_writes = true;
  std::uint64_t seed = 1;

  void validate() const;
  /// validate() plus the checks that need the client count n.
  void validate(process_id n) const;
};

/// Deterministic value stamp for write i of process p.
reg_value pack_client_value(process_id p, std::uint64_t i);

/// The key and read/write draws every process's schedule shares.
struct schedule_samplers {
  explicit schedule_samplers(const client_workload_options& options)
      : keys(options.keys, options.zipf_theta), read(options.read_ratio) {}

  zipf_sampler keys;
  sampling::bernoulli read;
};

/// Process p's schedule, drawn one operation ahead: front() is the next
/// operation to issue, pop() takes it and draws the one after. Points at
/// the options and samplers it was built with, which must outlive it.
class schedule_stream {
 public:
  schedule_stream(process_id p, process_id n,
                  const client_workload_options& options,
                  const schedule_samplers& samplers);

  bool empty() const noexcept { return left_ == 0; }
  const client_op& front() const noexcept { return next_; }
  client_op pop() {
    const client_op op = next_;
    if (--left_ > 0) draw();
    return op;
  }

 private:
  void draw();

  const client_workload_options* options_;
  const schedule_samplers* samplers_;
  process_id p_, n_;
  std::mt19937_64 rng_;
  std::uint64_t writes_ = 0;
  std::uint64_t left_;
  client_op next_;
};

/// The full schedule for each of n client processes; a pure function of
/// (n, options). The reference the driver's streams issue in order.
std::vector<std::vector<client_op>> make_schedules(
    process_id n, const client_workload_options& options);

/// Drives one simulation's worth of keyed workload through an adapter.
template <class Adapter>
class workload_driver {
 public:
  workload_driver(simulation& sim, Adapter adapter,
                  client_workload_options options)
      : sim_(&sim),
        adapter_(std::move(adapter)),
        options_((options.validate(sim.size()), options)),
        samplers_(options_) {
    clients_.reserve(sim_->size());
    for (process_id p = 0; p < sim_->size(); ++p)
      clients_.emplace_back(
          schedule_stream(p, sim_->size(), options_, samplers_),
          options_.keys);
    // One record per scheduled op: reserving them all up front keeps the
    // last doubling's two buffers from meeting at the RSS peak.
    history_.reserve(std::size_t{sim_->size()} * options_.ops_per_process);
  }

  // Posted closures, adapter callbacks and the streams all point into the
  // driver: it stays where it was built.
  workload_driver(const workload_driver&) = delete;
  workload_driver& operator=(const workload_driver&) = delete;
  workload_driver(workload_driver&&) = delete;
  workload_driver& operator=(workload_driver&&) = delete;

  /// Posts the initial issues/arrivals; drive the simulation afterwards
  /// (e.g. sim.run_until_condition([&]{ return driver.done(); }, ...)).
  void launch() {
    for (process_id p = 0; p < sim_->size(); ++p) {
      if (options_.open_interval > 0) {
        sim_->post(p, [this, p] { open_arrival(p); });
      } else {
        sim_->post(p, [this, p] { issue_ready(p); });
      }
    }
  }

  /// All scheduled operations issued and completed.
  bool done() const {
    for (process_id p = 0; p < sim_->size(); ++p) {
      const client& c = clients_[p];
      if (c.outstanding > 0 || !c.deferred.empty() || !c.schedule.empty())
        return false;
    }
    return true;
  }

  std::uint64_t issued() const {
    std::uint64_t n = 0;
    for (const client& c : clients_) n += c.issued_ops;
    return n;
  }
  std::uint64_t completed() const noexcept { return completed_; }

  /// The recorded run; per-key projections via history_of.
  const std::vector<keyed_register_op>& history() const noexcept {
    return history_;
  }

  register_history history_of(service_key key) const {
    register_history h;
    for (const keyed_register_op& rec : history_)
      if (rec.key == key) h.push_back(rec.op);
    return h;
  }

  /// Completed-operation latencies in microseconds.
  std::vector<double> latencies_us() const {
    std::vector<double> out;
    out.reserve(history_.size());
    for (const keyed_register_op& rec : history_)
      if (rec.op.complete())
        out.push_back(
            static_cast<double>(*rec.op.returned_at - rec.op.invoked_at));
    return out;
  }

  /// Operations issued per key (the per-key load distribution).
  std::vector<std::uint64_t> per_key_ops() const {
    std::vector<std::uint64_t> out(options_.keys, 0);
    for (const keyed_register_op& rec : history_) ++out[rec.key];
    return out;
  }

  /// Observation hooks for online checking (e.g. feeding a
  /// streaming_checker while the run is live): on_issue fires right after
  /// an operation is recorded (invocation stamp assigned), on_complete_op
  /// right after its response lands — in completion order, before the
  /// completion triggers any further issues. The index is the operation's
  /// position in history().
  std::function<void(const keyed_register_op&, std::size_t)> on_issue;
  std::function<void(const keyed_register_op&, std::size_t)> on_complete_op;

 private:
  struct client {
    client(schedule_stream s, service_key keys)
        : schedule(std::move(s)), key_busy(keys, 0) {}

    /// Operations not yet issued (closed loop) or not yet arrived (open).
    schedule_stream schedule;
    std::uint64_t issued_ops = 0;
    int outstanding = 0;
    std::vector<std::uint8_t> key_busy;
    /// Open loop: arrivals whose key was busy, waiting in arrival order.
    std::vector<client_op> deferred;
  };

  // ---- closed loop ----

  void issue_ready(process_id p) {
    client& c = clients_[p];
    while (c.outstanding < options_.inflight_window && !c.schedule.empty()) {
      // Head-of-line: wait for the key.
      if (c.key_busy[c.schedule.front().key]) return;
      issue(p, c.schedule.pop());
    }
  }

  void on_complete_closed(process_id p) {
    if (options_.think_time > 0) {
      sim_->post_after(p, options_.think_time,
                       [this, p] { issue_ready(p); });
    } else {
      issue_ready(p);
    }
  }

  // ---- open loop ----

  void open_arrival(process_id p) {
    client& c = clients_[p];
    if (c.schedule.empty()) return;
    const client_op op = c.schedule.pop();
    // Schedule order per key holds without a scan of `deferred`: every
    // deferred op's key is busy (a completion frees one key and issues the
    // first op deferred on it), so an arrival on a free key has nothing
    // on its key to overtake.
    if (c.key_busy[op.key])
      c.deferred.push_back(op);
    else
      issue(p, op);
    if (!c.schedule.empty())
      sim_->post_after(p, options_.open_interval,
                       [this, p] { open_arrival(p); });
  }

  void drain_deferred(process_id p) {
    client& c = clients_[p];
    for (std::size_t i = 0; i < c.deferred.size(); ++i) {
      const client_op op = c.deferred[i];
      if (c.key_busy[op.key]) continue;
      c.deferred.erase(c.deferred.begin() + static_cast<std::ptrdiff_t>(i));
      issue(p, op);
      return;  // at most one per completion; its key just freed
    }
  }

  // ---- issue/complete ----

  void issue(process_id p, const client_op& op) {
    client& c = clients_[p];
    c.key_busy[op.key] = 1;
    ++c.outstanding;
    ++c.issued_ops;
    const std::size_t rec_idx = history_.size();
    keyed_register_op rec;
    rec.key = op.key;
    rec.op.kind = op.is_read ? reg_op_kind::read : reg_op_kind::write;
    rec.op.proc = p;
    rec.op.value = op.value;
    rec.op.invoked_at = sim_->now();
    rec.op.invoked_stamp = sim_->take_stamp();
    history_.push_back(rec);
    if (on_issue) on_issue(history_[rec_idx], rec_idx);
    if (op.is_read) {
      adapter_.read(p, op.key,
                    [this, p, rec_idx](reg_value v, reg_version observed) {
                      history_[rec_idx].op.value = v;
                      history_[rec_idx].op.version = observed;
                      complete(p, rec_idx);
                    });
    } else {
      adapter_.write(p, op.key, op.value,
                     [this, p, rec_idx](reg_version installed) {
                       history_[rec_idx].op.version = installed;
                       complete(p, rec_idx);
                     });
    }
  }

  void complete(process_id p, std::size_t rec_idx) {
    keyed_register_op& rec = history_[rec_idx];
    rec.op.returned_at = sim_->now();
    rec.op.returned_stamp = sim_->take_stamp();
    ++completed_;
    if (on_complete_op) on_complete_op(rec, rec_idx);
    client& c = clients_[p];
    c.key_busy[rec.key] = 0;
    --c.outstanding;
    if (options_.open_interval > 0) {
      drain_deferred(p);
    } else {
      on_complete_closed(p);
    }
  }

  simulation* sim_;
  Adapter adapter_;
  client_workload_options options_;
  schedule_samplers samplers_;
  std::vector<client> clients_;
  std::vector<keyed_register_op> history_;
  std::uint64_t completed_ = 0;
};

/// Adapter over any keyed node exposing write(key, x, cb) / read(key, cb)
/// per process — keyed_register in particular.
template <class Node>
struct keyed_node_adapter {
  std::vector<Node*> nodes;

  void write(process_id p, service_key key, reg_value x,
             std::function<void(reg_version)> done) {
    nodes[p]->write(key, x, std::move(done));
  }
  void read(process_id p, service_key key,
            std::function<void(reg_value, reg_version)> done) {
    nodes[p]->read(key, std::move(done));
  }
};

}  // namespace gqs
