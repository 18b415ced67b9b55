// quorum_service.hpp — the multi-object quorum service engine.
//
// The Figure 3 access functions are defined per object; running K objects
// as K push_qaf instances per process costs K gossip timers and K
// broadcast streams, which is hopeless for many keys. quorum_service
// multiplexes many logical objects ("keys") over a *single*
// generalized-QAF engine per process:
//
//   * one shared gossip timer per process: each period advances one shared
//     engine clock and broadcasts a versioned batch of the keys dirtied
//     since the previous period (an empty batch still carries the clock),
//     instead of K per-object broadcasts;
//   * per-destination coalescing: quorum_get/quorum_set invocations stage
//     into recycled batch buffers and flush once per simulation instant —
//     any number of operations started in the same event share one CLOCK
//     probe and one SET batch on the wire (no per-op std::function
//     payloads: the wire carries plain versioned states, merged by the
//     register rule "install iff newer");
//   * pipelined operations: a process may have any number of operations in
//     flight; completions resolve in operation order.
//
// The two Figure 3 clock waits are qaf_core.hpp's cutoff_waits, shared
// with push_qaf: one get wait per flush group of quorum_gets (they share
// the CLOCK probe, so the cutoff) and one set wait per SET batch (acked
// with one clock, so the shared cutoff is each member's own). The service
// keeps its wire messages, its clock rule and its freshness source, the
// per-origin gossip_stream below.
//
// Correctness is the Figure 3 argument applied per key. The shared engine
// clock ticks only on gossip, and a SET is acked with the clock of the
// next gossip — the first to carry the update. That keeps everything the
// safety proof asks of a clock: it is monotone, a CLOCK reply is ≥ every
// gossip clock already sent, and a SET ack clock is above every gossip
// clock sent before the apply and at most that of the first gossip
// carrying the update. Counting ticks only keeps every process's clock at
// the same rate, so a cutoff is reached about one gossip period after it
// is drawn, however much history came before (per-process offsets stay
// harmless; see qaf_ablation.hpp).
// Freshness transfers from gossip to cached per-key states through
// *contiguous* gossip stream processing: states merge eagerly (they are
// version-monotone), but a process's freshness clock for an origin only
// advances to the clock of the latest gossip received with no earlier
// gossip missing (gossip_stream). No gossip that a U_f wait needs is ever
// lost. Under f, a wait at a process of U_f completes once the streams of
// R_f are fresh; U_f is the SCC of G \ f that contains W_f and R_f reaches
// W_f, so every member of R_f reaches every process of U_f. Flooding
// delivers each broadcast to every live process its origin reaches in the
// final epoch (sim/flooding.hpp), over links that never drop
// (sim/network.hpp), so every gap on those streams closes through regular
// gossip. Only a stream whose origin stops reaching the receiver can keep
// a gap for good, and no wait needs it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "quorum/qaf_core.hpp"
#include "quorum/targeted_round.hpp"
#include "register/register_state.hpp"
#include "sim/transport.hpp"
#include "strategy/selector.hpp"

namespace gqs {

/// Figure 3's knobs (qaf_core.hpp) plus targeted access. The gossip
/// period paces the shared dirty-batch gossip; the clock is the shared
/// engine clock.
struct service_options : push_qaf_options {
  /// Strategy-driven targeted access (strategy/selector.hpp): when set,
  /// each flush group's CLOCK probe and SET batch go only to the members
  /// of a sampled write quorum (one direct message each) instead of to
  /// all n processes, and acks return point-to-point. Null keeps the
  /// broadcast protocol bit-for-bit.
  selector_ptr selector;
  /// With a selector: how long a group waits for its targeted quorum
  /// before escalating to a full broadcast (targeted_round.hpp). 0
  /// disables escalation — ONLY for the mutation tests.
  sim_time escalation_timeout = 40000;  // 40 ms
};

/// Progress and wire-traffic counters of one service instance.
struct service_counters {
  std::uint64_t ops_started = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t flushes = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t set_batches_sent = 0;
  std::uint64_t set_entries_sent = 0;
  std::uint64_t gossip_batches_sent = 0;
  std::uint64_t gossip_entries_sent = 0;
  // Always 0: gossip streams need no repair (see the file comment). Kept
  // for readers of the fields.
  std::uint64_t nacks_sent = 0;
  std::uint64_t repairs_sent = 0;
  // ---- targeted access (zero without a selector) ----
  std::uint64_t targeted_probes = 0;       ///< get groups sent targeted
  std::uint64_t targeted_set_batches = 0;  ///< set groups sent targeted
  std::uint64_t escalations = 0;           ///< groups rebroadcast on timeout

  /// Every field, once (metrics_registry::observe_counters reads it).
  template <class F>
  static void for_each_counter(F&& f) {
    f("ops_started", &service_counters::ops_started);
    f("ops_completed", &service_counters::ops_completed);
    f("flushes", &service_counters::flushes);
    f("probes_sent", &service_counters::probes_sent);
    f("set_batches_sent", &service_counters::set_batches_sent);
    f("set_entries_sent", &service_counters::set_entries_sent);
    f("gossip_batches_sent", &service_counters::gossip_batches_sent);
    f("gossip_entries_sent", &service_counters::gossip_entries_sent);
    f("nacks_sent", &service_counters::nacks_sent);
    f("repairs_sent", &service_counters::repairs_sent);
    f("targeted_probes", &service_counters::targeted_probes);
    f("targeted_set_batches", &service_counters::targeted_set_batches);
    f("escalations", &service_counters::escalations);
  }
};

/// Tracks one origin's gossip stream at a receiver: the freshness clock
/// (clock of the newest gossip with no earlier gossip missing) and
/// buffered out-of-order arrivals. Gossip sequence numbers start at 1.
class gossip_stream {
 public:
  /// Records gossip `seq` carrying `clock`. Returns true iff the freshness
  /// clock advanced (possibly through previously buffered sequences).
  bool observe(std::uint64_t seq, std::uint64_t clock);

  /// Clock of the newest contiguously received gossip.
  std::uint64_t freshness() const noexcept { return fresh_clock_; }

  /// Number of buffered out-of-order gossip clocks.
  std::size_t backlog() const noexcept { return pending_.size(); }

 private:
  std::uint64_t next_ = 1;
  std::uint64_t fresh_clock_ = 0;
  std::map<std::uint64_t, std::uint64_t> pending_;  // seq → clock
};

/// Free-list of batch buffers: wire messages borrow a vector and return it
/// on destruction, so batches churn at gossip rate without reallocating
/// (the slab pattern of the simulation engine, applied to payloads).
template <class E>
class batch_pool {
 public:
  std::vector<E> acquire() {
    if (free_.empty()) return {};
    std::vector<E> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  void release(std::vector<E> v) {
    if (free_.size() < kMaxFree) free_.push_back(std::move(v));
  }

  std::size_t free_count() const noexcept { return free_.size(); }

 private:
  static constexpr std::size_t kMaxFree = 64;
  std::vector<std::vector<E>> free_;
};

/// A batch owned by a wire message; hands its storage back to the pool
/// when the message dies (messages are shared immutable values, so this
/// fires once, after the last receiver released the message).
template <class E>
class pooled_batch {
 public:
  pooled_batch(std::vector<E> items, std::shared_ptr<batch_pool<E>> pool)
      : items_(std::move(items)), pool_(std::move(pool)) {}
  pooled_batch(pooled_batch&& other) noexcept = default;
  pooled_batch(const pooled_batch&) = delete;
  pooled_batch& operator=(const pooled_batch&) = delete;
  pooled_batch& operator=(pooled_batch&&) = delete;
  ~pooled_batch() {
    if (pool_) pool_->release(std::move(items_));
  }

  const std::vector<E>& items() const noexcept { return items_; }
  std::size_t size() const noexcept { return items_.size(); }

 private:
  std::vector<E> items_;
  std::shared_ptr<batch_pool<E>> pool_;
};

/// The multi-object engine at one process. V is the per-key value domain;
/// the replicated per-key state is basic_reg_state<V> (value × version)
/// with the register merge rule (install iff strictly newer version) —
/// exactly the update function every Figure 4 client ships, now explicit
/// on the wire instead of a closure.
template <class V>
class quorum_service : public component {
 public:
  using state_type = basic_reg_state<V>;
  /// Receives the cached states of the addressed key at all members of
  /// the covering read quorum.
  using get_callback = std::function<void(std::vector<state_type>)>;
  using set_callback = std::function<void()>;

  quorum_service(service_key keys, quorum_config config,
                 service_options options = {})
      : keys_(keys),
        config_(std::move(config)),
        options_(options),
        clock_(options.initial_clock),
        states_(keys),
        dirty_flag_(keys, 0),
        set_pool_(std::make_shared<batch_pool<set_entry>>()),
        gossip_pool_(std::make_shared<batch_pool<gossip_entry>>()),
        rounds_(*this, options_.escalation_timeout, counters_.escalations,
                "svc"),
        waits_(*this, config_, options_, &rounds_) {
    if (keys == 0)
      throw std::invalid_argument("quorum_service: no keys");
    config_.validate();
    options_.validate();
    if (options_.selector)
      check_selector_covers(options_.selector->strategy().writes,
                            config_.writes, "write");
  }

  /// Starts a Figure 3 quorum_get on `key`; coalesced with every other
  /// operation started in the same simulation instant.
  void quorum_get(service_key key, get_callback done) {
    check_key(key);
    ++counters_.ops_started;
    staged_gets_.push_back(staged_get{++op_seq_, key, std::move(done)});
    schedule_flush();
  }

  /// Starts a Figure 3 quorum_set installing `desired` on `key` (applied
  /// at each replica iff desired.version is strictly newer).
  void quorum_set(service_key key, state_type desired, set_callback done) {
    check_key(key);
    ++counters_.ops_started;
    staged_sets_.push_back(
        staged_set{++op_seq_, key, std::move(desired), std::move(done)});
    schedule_flush();
  }

  const state_type& local_state(service_key key) const {
    check_key(key);
    return states_[key];
  }

  service_key key_count() const noexcept { return keys_; }
  std::uint64_t engine_clock() const noexcept { return clock_; }

  const service_counters& counters() const noexcept { return counters_; }

  /// How many targeted flush groups sampled each process into their write
  /// quorum — the *realized* per-process load of the strategy, to hold
  /// against the planner's predicted load_σ(p). Empty in broadcast mode.
  const std::vector<std::uint64_t>& per_process_quorum_hits() const noexcept {
    return rounds_.hits();
  }

  /// Sum of buffered out-of-order gossip clocks across all origins (flat
  /// unless an origin stopped reaching this process mid-stream).
  std::size_t gossip_backlog() const {
    std::size_t total = 0;
    for (const gossip_stream& s : streams_) total += s.backlog();
    return total;
  }

  // ---- wire format (public so tests can craft and inject messages) ----

  struct set_entry {
    std::uint64_t op_seq;
    service_key key;
    state_type state;
  };
  struct gossip_entry {
    service_key key;
    state_type state;
  };

  /// CLOCK_REQ for a whole flush group of quorum_gets.
  struct probe_msg : message {
    std::uint64_t req;
    explicit probe_msg(std::uint64_t r) : req(r) {}
    std::size_t wire_size() const override { return 16; }
  };
  struct probe_ack_msg : message {
    std::uint64_t req;
    std::uint64_t clock;
    probe_ack_msg(std::uint64_t r, std::uint64_t c) : req(r), clock(c) {}
    std::size_t wire_size() const override { return 24; }
  };
  /// SET_REQ batch: one wire message for every set staged in one instant.
  /// Serialization cost (like every batch below) is header + per-entry, so
  /// coalesced batches pay realistic wire time under the bandwidth model.
  struct set_batch_msg : message {
    std::uint64_t batch;
    pooled_batch<set_entry> entries;
    set_batch_msg(std::uint64_t b, pooled_batch<set_entry> e)
        : batch(b), entries(std::move(e)) {}
    std::size_t wire_size() const override {
      return 16 + sizeof(set_entry) * entries.size();
    }
  };
  struct set_ack_msg : message {
    std::uint64_t batch;
    std::uint64_t clock;  // clock of the first gossip carrying the batch
    set_ack_msg(std::uint64_t b, std::uint64_t c) : batch(b), clock(c) {}
    std::size_t wire_size() const override { return 24; }
  };
  /// The paper's unsolicited GET_RESP, batched: dirty keys since the
  /// previous gossip, plus the shared engine clock.
  struct gossip_msg : message {
    std::uint64_t gseq;
    std::uint64_t clock;
    pooled_batch<gossip_entry> entries;
    gossip_msg(std::uint64_t s, std::uint64_t c,
               pooled_batch<gossip_entry> e)
        : gseq(s), clock(c), entries(std::move(e)) {}
    std::size_t wire_size() const override {
      return 24 + sizeof(gossip_entry) * entries.size();
    }
  };

  void start() override {
    ensure_tables();
    register_obs();
    gossip_timer_ = this->set_timer(options_.gossip_period);
  }

  void on_timeout(int timer_id) override {
    if (timer_id == flush_timer_) {
      flush_timer_ = -1;
      flush();
      return;
    }
    if (timer_id == gossip_timer_) {
      gossip_tick();
      gossip_timer_ = this->set_timer(options_.gossip_period);
      return;
    }
    rounds_.on_timeout(timer_id);
  }

  void deliver(process_id origin, const message_ptr& payload) override {
    ensure_tables();
    if (const auto* m = message_cast<gossip_msg>(payload)) {
      on_gossip(origin, *m);
    } else if (const auto* m = message_cast<probe_msg>(payload)) {
      this->unicast(origin, make_message<probe_ack_msg>(m->req, clock_));
    } else if (const auto* m = message_cast<probe_ack_msg>(payload)) {
      waits_.get_ack(m->req, origin, m->clock);
    } else if (const auto* m = message_cast<set_batch_msg>(payload)) {
      on_set_batch(origin, *m);
    } else if (const auto* m = message_cast<set_ack_msg>(payload)) {
      waits_.set_ack(m->batch, origin, m->clock);
    }
  }

 private:
  struct staged_get {
    std::uint64_t op_seq;
    service_key key;
    get_callback done;
  };
  struct staged_set {
    std::uint64_t op_seq;
    service_key key;
    state_type state;
    set_callback done;
  };

  /// The operations of one kind flushed in one instant: one cutoff wait.
  template <class Op>
  struct flush_group {
    std::vector<Op> members;
    span_ref span;  // open from flush until the group completes
  };
  using waits =
      cutoff_waits<quorum_service, flush_group<staged_get>,
                   flush_group<staged_set>>;
  friend waits;

  /// Binds this instance to the host's obs bundle (nullptr-safe; inert
  /// when telemetry is off): counters as snapshot-time observers, backlog
  /// probes on the sampler, spans on the tracer.
  void register_obs() {
    obs_bundle* o = this->obs();
    if (!o) return;
    tracer_ = o->tracer.recording() ? &o->tracer : nullptr;
    o->metrics.observe_counters("svc.", counters_);
    if (o->sampler.enabled()) {
      o->sampler.add_probe("svc.gossip_backlog", [this] {
        return static_cast<std::int64_t>(gossip_backlog());
      });
      o->sampler.add_probe("svc.open_groups", [this] {
        return static_cast<std::int64_t>(waits_.open_count());
      });
    }
  }

  span_ref open_group_span(const char* name) {
    if (!tracer_) return {};
    return tracer_->begin_span(name, "svc", this->id(), {}, this->now());
  }

  void close_group_span(span_ref s) {
    if (tracer_) tracer_->end_span(s, this->now());
  }

  void check_key(service_key key) const {
    if (key >= keys_)
      throw std::out_of_range("quorum_service: key out of range");
  }

  void ensure_tables() {
    if (!streams_.empty()) return;
    const process_id n = this->system_size();
    streams_.resize(n);
    cache_.assign(n, std::vector<state_type>(keys_));
  }

  void schedule_flush() {
    if (flush_timer_ >= 0) return;
    flush_timer_ = this->set_timer(0);  // fires later this same instant
  }

  void flush() {
    ++counters_.flushes;
    if (!staged_gets_.empty()) {
      const std::uint64_t req = ++probe_seq_;
      const span_ref span = open_group_span("svc.get");
      // Ablated, no probe goes out: c_get = 0, any cached state qualifies.
      waits_.open_get(req, {std::move(staged_gets_), span}, [&] {
        ++counters_.probes_sent;
        if (options_.selector) ++counters_.targeted_probes;
        message_ptr probe = make_message<probe_msg>(req);
        stamp_trace_span(probe, span);
        return rounds_.open(draw(req * 2), std::move(probe), span);
      });
      staged_gets_.clear();
    }
    if (!staged_sets_.empty()) {
      const std::uint64_t batch = ++batch_seq_;
      const span_ref span = open_group_span("svc.set");
      std::vector<set_entry> entries = set_pool_->acquire();
      entries.reserve(staged_sets_.size());
      // The group only needs the callbacks from here on — move the
      // payloads onto the wire instead of duplicating them for the
      // duration of the quorum round.
      for (staged_set& s : staged_sets_)
        entries.push_back(set_entry{s.op_seq, s.key, std::move(s.state)});
      ++counters_.set_batches_sent;
      counters_.set_entries_sent += entries.size();
      if (options_.selector) ++counters_.targeted_set_batches;
      message_ptr wire = make_message<set_batch_msg>(
          batch, pooled_batch<set_entry>(std::move(entries), set_pool_));
      stamp_trace_span(wire, span);
      waits_.open_set(
          batch, {std::move(staged_sets_), span},
          rounds_.open(draw(batch * 2 + 1), std::move(wire), span));
      staged_sets_.clear();
    }
    waits_.settle();
  }

  /// The write quorum a flush group targets; none without a selector. Gets
  /// draw from the even stream indices and sets from the odd ones, since
  /// their group sequence numbers advance independently.
  std::optional<process_set> draw(std::uint64_t stream) const {
    if (!options_.selector) return std::nullopt;
    return options_.selector->sample_write(this->id(), stream);
  }

  void gossip_tick() {
    // Figure 3 lines 12-14, batched: advance the shared clock once and
    // push every key dirtied since the previous tick. The only place the
    // clock moves, so clock_ == initial_clock + gossip_seq_ always.
    ++clock_;
    std::vector<gossip_entry> entries = gossip_pool_->acquire();
    entries.reserve(dirty_keys_.size());
    for (service_key k : dirty_keys_) {
      dirty_flag_[k] = 0;
      entries.push_back(gossip_entry{k, states_[k]});
    }
    dirty_keys_.clear();
    const std::uint64_t gseq = ++gossip_seq_;
    ++counters_.gossip_batches_sent;
    counters_.gossip_entries_sent += entries.size();
    this->broadcast(make_message<gossip_msg>(
        gseq, clock_,
        pooled_batch<gossip_entry>(std::move(entries), gossip_pool_)));
  }

  void mark_changed(service_key key) {
    if (!dirty_flag_[key]) {
      dirty_flag_[key] = 1;
      dirty_keys_.push_back(key);
    }
  }

  void apply_entry(process_id origin, const gossip_entry& e) {
    if (e.key >= keys_) return;  // peer runs more keys than we do: ignore
    state_type& cached = cache_[origin][e.key];
    // Version-monotone merge: safe under arbitrary reordering.
    if (e.state.version > cached.version) cached = e.state;
  }

  void on_gossip(process_id origin, const gossip_msg& m) {
    for (const gossip_entry& e : m.entries.items()) apply_entry(origin, e);
    gossip_stream& s = streams_[origin];
    const std::uint64_t before = s.freshness();
    if (s.observe(m.gseq, m.clock))
      waits_.freshness_moved(before, s.freshness());
  }

  void on_set_batch(process_id origin, const set_batch_msg& m) {
    // Lines 21-24 per entry: apply iff newer. The ack carries the clock of
    // the next gossip, the first to carry the batch: above every gossip
    // clock sent before the apply, and reached by that very gossip.
    for (const set_entry& e : m.entries.items()) {
      if (e.key >= keys_) continue;
      if (e.state.version > states_[e.key].version) {
        states_[e.key] = e.state;
        mark_changed(e.key);
      }
    }
    this->unicast(origin, make_message<set_ack_msg>(m.batch, clock_ + 1));
  }

  // ---- cutoff_waits hooks ----

  /// The origins whose contiguous gossip clock has reached `cutoff`; every
  /// stream is fresh at 0.
  process_set fresh_at(std::uint64_t cutoff) const {
    process_set fresh;
    for (process_id q = 0; q < static_cast<process_id>(streams_.size());
         ++q)
      if (streams_[q].freshness() >= cutoff) fresh.insert(q);
    return fresh;
  }

  void complete_get(flush_group<staged_get>&& g, const process_set& quorum) {
    close_group_span(g.span);
    for (staged_get& m : g.members) {
      std::vector<state_type> states;
      states.reserve(quorum.size());
      for (process_id p : quorum) states.push_back(cache_[p][m.key]);
      ++counters_.ops_completed;
      auto done = std::move(m.done);
      done(std::move(states));
    }
  }

  void complete_set(flush_group<staged_set>&& g) {
    close_group_span(g.span);
    for (staged_set& m : g.members) {
      ++counters_.ops_completed;
      auto done = std::move(m.done);
      done();
    }
  }

  service_key keys_;
  quorum_config config_;
  service_options options_;

  std::uint64_t clock_;            // shared Figure 3 engine clock
  std::uint64_t op_seq_ = 0;       // client operation sequence
  std::uint64_t probe_seq_ = 0;    // get flush groups
  std::uint64_t batch_seq_ = 0;    // set flush groups
  std::uint64_t gossip_seq_ = 0;   // own gossip stream
  int gossip_timer_ = -1;
  int flush_timer_ = -1;

  std::vector<state_type> states_;          // per-key replica state
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<service_key> dirty_keys_;     // since the last gossip tick

  std::vector<gossip_stream> streams_;                // per origin
  std::vector<std::vector<state_type>> cache_;        // [origin][key]

  std::vector<staged_get> staged_gets_;
  std::vector<staged_set> staged_sets_;

  std::shared_ptr<batch_pool<set_entry>> set_pool_;
  std::shared_ptr<batch_pool<gossip_entry>> gossip_pool_;

  service_counters counters_;
  targeted_round rounds_;
  waits waits_;
  trace_recorder* tracer_ = nullptr;  // non-null iff spans are recording
};

}  // namespace gqs
