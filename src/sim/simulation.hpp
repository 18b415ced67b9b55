// simulation.hpp — deterministic discrete-event simulator.
//
// The simulator owns a set of nodes (protocol state machines), a virtual
// clock, and an event queue. All nondeterminism (message delays) is drawn
// from a single seeded RNG, so a run is a pure function of
// (protocol, options, fault plan, seed, invocation script).
//
// Engine: events are typed records (start / message-delivery / timer /
// post) living in a slab with a free list; the pending-event queue holds
// only {time, seq, slot} keys, popped in exact (time, seq) order by a
// timing wheel (O(1) amortized — see event_wheel below). The hot loop
// therefore performs no per-event allocation and copies no closures —
// only `post` events carry a std::function, and it is moved, never
// copied. Connectivity questions (who is alive, which channels are up)
// are answered from precomputed per-epoch tables (sim/epochs.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "obs/obs.hpp"
#include "sim/epochs.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "sim/time.hpp"

namespace gqs {

class node;

/// Global counters of simulated network activity.
struct sim_metrics {
  std::uint64_t messages_sent = 0;       ///< physical channel transmissions
  std::uint64_t messages_delivered = 0;  ///< receptions at live processes
  std::uint64_t dropped_disconnected = 0;  ///< sends on a dead channel
  std::uint64_t dropped_receiver_crashed = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t events_processed = 0;
  // Channel-layer counters; all zero when the bandwidth model is disabled.
  std::uint64_t bytes_sent = 0;       ///< wire bytes accepted onto links
  std::uint64_t bytes_delivered = 0;  ///< wire bytes reaching live receivers
  std::uint64_t dropped_queue_full = 0;  ///< sends into a full link queue
  std::uint64_t max_link_queue_depth = 0;  ///< peak occupancy of any link

  /// Every summable field, once. max_link_queue_depth is a peak, not a
  /// count: it folds by max and stays out of the summed snapshot.
  template <class F>
  static void for_each_counter(F&& f) {
    f("messages_sent", &sim_metrics::messages_sent);
    f("messages_delivered", &sim_metrics::messages_delivered);
    f("dropped_disconnected", &sim_metrics::dropped_disconnected);
    f("dropped_receiver_crashed", &sim_metrics::dropped_receiver_crashed);
    f("timers_fired", &sim_metrics::timers_fired);
    f("events_processed", &sim_metrics::events_processed);
    f("bytes_sent", &sim_metrics::bytes_sent);
    f("bytes_delivered", &sim_metrics::bytes_delivered);
    f("dropped_queue_full", &sim_metrics::dropped_queue_full);
  }

  bool operator==(const sim_metrics&) const = default;
};

/// Component-wise accumulation (used by the experiment runner): counters
/// add, the peak takes the max.
inline sim_metrics& operator+=(sim_metrics& a, const sim_metrics& b) {
  sim_metrics::for_each_counter(
      [&](const char*, auto field) { a.*field += b.*field; });
  a.max_link_queue_depth =
      std::max(a.max_link_queue_depth, b.max_link_queue_depth);
  return a;
}

// trace_event / trace_sink moved to obs/trace.hpp (re-exported via the
// obs/obs.hpp include above) so the legacy network event stream and the
// span layer share one recorder.

/// The simulation world.
class simulation {
 public:
  simulation(process_id n, network_options net, fault_plan faults,
             std::uint64_t seed);
  ~simulation();

  simulation(const simulation&) = delete;
  simulation& operator=(const simulation&) = delete;

  process_id size() const noexcept { return n_; }
  sim_time now() const noexcept { return now_; }

  /// Monotonic causal stamp: strictly increases with every call. History
  /// recorders use stamps (not the coarse virtual clock, under which a
  /// response and a causally later invocation can share a timestamp) to
  /// capture the exact real-time order of operation events.
  std::uint64_t take_stamp() noexcept { return ++stamp_; }
  const sim_metrics& metrics() const noexcept { return metrics_; }
  std::mt19937_64& rng() noexcept { return rng_; }
  const fault_plan& faults() const noexcept { return faults_; }

  /// The precomputed connectivity tables of this run's fault plan.
  const connectivity_epochs& epochs() const noexcept { return epochs_; }

  /// The per-link bandwidth/queueing layer (inert when the channel config
  /// is disabled). Non-const so nodes can query credits()/queue_depth(),
  /// which lazily retire departed messages.
  link_network& channels() noexcept { return channels_; }
  const link_network& channels() const noexcept { return channels_; }

  /// True iff a send accepted on an up channel is always delivered (to a
  /// receiver still alive then): no finite link queue can drop it. Derived
  /// from this run's config; the flooding layer prunes relays on it.
  bool lossless() const noexcept {
    return !net_.channel.enabled() || net_.channel.queue_capacity == 0;
  }

  /// Index of the epoch containing the current instant (cached; the clock
  /// is monotone, so this is O(1) amortized).
  std::size_t current_epoch() const {
    return epoch_cursor_ = epochs_.epoch_at(now_, epoch_cursor_);
  }

  /// Installs the protocol node for process p. Must be called for every
  /// process before start().
  void set_node(process_id p, std::unique_ptr<node> n);

  node& node_at(process_id p);

  /// Schedules on_start for every node at time 0. Call exactly once.
  void start();

  /// Processes events with timestamp <= horizon (in timestamp order).
  /// Returns the number of events processed.
  std::uint64_t run_until(sim_time horizon);

  /// Processes events until `done()` returns true or the horizon passes.
  /// Returns true iff the condition was met.
  bool run_until_condition(const std::function<bool()>& done,
                           sim_time horizon);

  /// True iff no events remain at or before `horizon`.
  bool idle_before(sim_time horizon) const;

  /// True at the current instant (used by nodes to self-check; a crashed
  /// node receives no events, so protocols normally need not ask).
  bool alive(process_id p) const {
    return epochs_.alive(current_epoch(), p);
  }

  // ---- node-facing API (called from within event handlers) ----

  /// Sends m from `from` to `to` over the physical channel, applying the
  /// channel's failure state and a random delay.
  void send(process_id from, process_id to, message_ptr m);

  /// Schedules fn to run at the current time (after already-queued events
  /// of this instant) on behalf of process p; dropped if p has crashed by
  /// then. Used for self-delivery and for injecting client operations.
  void post(process_id p, std::function<void()> fn);

  /// post(), but `delay` into the future — client think times and open-loop
  /// arrival schedules, without requiring the caller to be a node.
  void post_after(process_id p, sim_time delay, std::function<void()> fn);

  /// Arms a one-shot timer for process p; on expiry, node::on_timer(id) is
  /// invoked (unless p crashed). Returns the timer id.
  int set_timer(process_id p, sim_time delay);

  /// Installs (or clears, with nullptr) a network-event trace sink.
  /// Forwarded through the trace recorder so sink consumers and span
  /// recording share one dispatch pipeline (see obs/trace.hpp).
  void set_trace(trace_sink sink) {
    obs_.tracer.set_event_sink(std::move(sink));
  }

  /// This run's observability surface (metrics registry, span recorder,
  /// gauge sampler). Armed from network_options at construction; inert —
  /// and free on the hot path — otherwise.
  obs_bundle& obs() noexcept { return obs_; }
  const obs_bundle& obs() const noexcept { return obs_; }

 private:
  enum class event_kind : std::uint8_t { start, deliver, timer, post };

  /// A typed event in the slab. Only `post` carries a closure; the hot
  /// deliver path carries just the shared message pointer.
  struct event_record {
    event_kind kind = event_kind::post;
    process_id a = 0;  ///< deliver: sender; otherwise the acting process
    process_id b = 0;  ///< deliver: receiver
    int timer_id = 0;
    message_ptr msg;
    std::function<void()> fn;
  };

  /// Heap key. seq is unique, so (at, seq) is a total order and FIFO among
  /// same-time events — the pop order is therefore independent of the
  /// heap's internal arrangement.
  struct heap_entry {
    sim_time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct entry_later {
    bool operator()(const heap_entry& x, const heap_entry& y) const {
      return x.at != y.at ? x.at > y.at : x.seq > y.seq;
    }
  };

  /// Timing-wheel event queue with exact (at, seq) pop order.
  ///
  /// A binary heap pays O(log n) branchy comparisons per operation — the
  /// single hottest loop in the simulator. The wheel exploits the fact
  /// that message delays are bounded: pending entries hash into one of
  /// kBuckets time buckets of width 2^width_shift_ µs (append-only, O(1));
  /// the bucket currently being drained is kept sorted descending so pops
  /// come off the back in O(1); entries beyond the wheel horizon wait in a
  /// small overflow heap (long timers only) and migrate in as the window
  /// slides. Entry keys (at, seq) are a total order, so the pop sequence
  /// is identical to a heap's — determinism is unaffected by the internal
  /// arrangement.
  class event_wheel {
   public:
    /// Sizes the buckets from the run's maximum message-delay bound; call
    /// once before the first push.
    void configure(sim_time max_delay_bound);

    bool empty() const noexcept { return size_ == 0; }
    std::size_t size() const noexcept { return size_; }

    /// The minimum pending entry. Precondition: !empty().
    const heap_entry& front() const { return active_.back(); }

    heap_entry pop();
    void push(heap_entry e);

   private:
    void refill();            // activate the next nonempty bucket
    void migrate_overflow();  // pull overflow entries inside the window
    void activate();          // sort bucket[cursor_] into active_

    std::size_t index_of(sim_time at) const {
      return static_cast<std::size_t>(at >> width_shift_) & (kBuckets - 1);
    }

    static constexpr std::size_t kBuckets = 256;  // power of two

    int width_shift_ = 0;     // bucket width = 2^width_shift_ µs
    sim_time base_ = 0;       // start of the bucket active_ drains
    std::size_t cursor_ = 0;  // its index
    std::size_t size_ = 0;    // total pending entries
    std::size_t in_buckets_ = 0;  // entries in buckets_ (not active/overflow)
    std::vector<heap_entry> active_;  // sorted descending; min at the back
    std::vector<std::vector<heap_entry>> buckets_{kBuckets};
    std::vector<heap_entry> overflow_;  // binary min-heap (entry_later)
  };

  /// Claims a slab slot (reusing freed ones) and returns its index.
  std::uint32_t alloc_record();
  void push_entry(sim_time at, std::uint32_t slot);
  heap_entry pop_entry();
  /// Pops and dispatches the next event if one is due at or before
  /// `horizon`; returns false when none is.
  bool pop_and_dispatch(sim_time horizon);
  sim_time draw_delay();
  void emit_trace(trace_event::kind what, process_id from, process_id to,
                  const message* m);
  void register_obs_bridges();

  process_id n_;
  network_options net_;
  fault_plan faults_;
  connectivity_epochs epochs_;
  link_network channels_;
  std::mt19937_64 rng_;
  sim_time now_ = 0;
  std::uint64_t stamp_ = 0;
  std::uint64_t next_seq_ = 0;
  int next_timer_ = 0;
  bool started_ = false;
  mutable std::size_t epoch_cursor_ = 0;
  sim_metrics metrics_;
  obs_bundle obs_;
  std::vector<event_record> slab_;
  std::vector<std::uint32_t> free_slots_;
  event_wheel wheel_;
  std::vector<std::unique_ptr<node>> nodes_;
};

/// Base class for protocol state machines.
///
/// Lifecycle: constructed by the test/bench harness, installed via
/// simulation::set_node (which attaches it), then driven entirely by
/// events: on_start at time 0, then on_message / on_timer.
class node {
 public:
  virtual ~node() = default;

  /// Called by simulation::set_node.
  void attach(simulation* sim, process_id id) {
    sim_ = sim;
    id_ = id;
  }

  process_id id() const noexcept { return id_; }

  /// Called once by simulation::set_node right after attach(): the
  /// simulation (and its obs bundle) is reachable, the run has not
  /// started. Nodes self-register observability instruments here.
  virtual void on_attach() {}

  virtual void on_start() {}
  virtual void on_message(process_id from, const message_ptr& m) = 0;
  virtual void on_timer(int timer_id) { (void)timer_id; }

 protected:
  simulation& sim() const { return *sim_; }
  sim_time now() const { return sim_->now(); }
  process_id system_size() const { return sim_->size(); }

  /// Physical point-to-point send (no routing around failed channels; use
  /// flooding_node for the paper's transitive-connectivity model).
  void send(process_id to, message_ptr m) { sim_->send(id_, to, std::move(m)); }

  /// Physical send to every other process.
  void broadcast_physical(const message_ptr& m) {
    for (process_id q = 0; q < sim_->size(); ++q)
      if (q != id_) sim_->send(id_, q, m);
  }

  int set_timer(sim_time delay) { return sim_->set_timer(id_, delay); }

 private:
  simulation* sim_ = nullptr;
  process_id id_ = 0;
};

}  // namespace gqs
