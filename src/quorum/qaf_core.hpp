// qaf_core.hpp — the shared engine core under every quorum access
// function implementation.
//
// All quorum protocols in this library share the same bookkeeping skeleton:
// collect per-process responses until some quorum of a family is covered,
// derive a clock cutoff from the covered quorum, and (for the push-based
// Figure 3 variants) wait until a read quorum's gossiped clocks pass the
// cutoff. This header factors that skeleton out once:
//
//   * quorum_cover_tracker      — membership-only coverage ("wait until
//                                 received from all of some Q");
//   * quorum_response_collector — coverage plus the per-process payloads
//                                 (GET_RESP states, CLOCK_RESP clocks);
//   * max_clock_over            — the c_get / c_set cutoff rule (Figure 3
//                                 lines 7 and 19);
//   * push_qaf_options          — Figure 3's knobs, declared once (the
//                                 service's options extend them);
//   * cutoff_waits              — Figure 3's two clock waits (the get
//                                 cutoff of lines 5-8 and the set
//                                 confirmation of lines 18-20): acks to
//                                 cutoff, then a read quorum fresh at the
//                                 cutoff, with the ablation switches;
//   * gossip_cache              — per-origin freshest (state, clock): the
//                                 freshness source of push_qaf's waits;
//   * push_qaf                  — the complete Figure 3 protocol over one
//                                 object.
//
// generalized_qaf (Figure 3 proper), ablated_qaf (the weakened variants of
// bench_ablation_clocks) and classical_qaf (Figure 2) are thin
// instantiations; the multi-object quorum_service runs the same
// cutoff_waits over batched wire messages and its own gossip streams.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "quorum/quorum_access.hpp"
#include "quorum/quorum_config.hpp"
#include "quorum/targeted_round.hpp"
#include "sim/time.hpp"
#include "strategy/selector.hpp"

namespace gqs {

/// Tracks which processes responded to an operation and reports when some
/// quorum of a family is first covered.
class quorum_cover_tracker {
 public:
  /// Records a responder; returns the covered quorum if coverage was just
  /// reached (and exactly once — later responders return nullopt).
  std::optional<process_set> add(process_id from,
                                 const quorum_family& family) {
    if (covered_) return std::nullopt;
    responders_.insert(from);
    auto q = covered_quorum(family, responders_);
    if (q) covered_ = true;
    return q;
  }

  const process_set& responders() const noexcept { return responders_; }

 private:
  process_set responders_;
  bool covered_ = false;
};

/// Coverage tracking plus the per-process response payloads, kept in a
/// dense per-process array: a round allocates once, not once per ack.
template <class T>
class quorum_response_collector {
 public:
  /// Records a response (a repeat replaces the earlier one); returns the
  /// covered quorum if coverage was just reached.
  std::optional<process_set> add(process_id from, T value,
                                 const quorum_family& family) {
    if (from >= responses_.size()) grow(from, family);
    responses_[from] = std::move(value);
    answered_.insert(from);
    return cover_.add(from, family);
  }

  /// The response of p; throws std::out_of_range if p did not answer.
  const T& at(process_id p) const {
    if (!answered_.contains(p))
      throw std::out_of_range("quorum_response_collector: no response");
    return responses_[p];
  }

  /// The responses of a covered quorum, in process-id order.
  std::vector<T> gather(const process_set& quorum) const {
    std::vector<T> out;
    out.reserve(quorum.size());
    for (process_id p : quorum) out.push_back(responses_.at(p));
    return out;
  }

 private:
  /// Sizes the array for `from` and every member of the family at once.
  void grow(process_id from, const quorum_family& family) {
    process_set members;
    for (const process_set& q : family) members |= q;
    process_id extent = from + 1;
    for (const process_id p : members) extent = std::max(extent, p + 1);
    responses_.resize(extent);
  }

  std::vector<T> responses_;  // indexed by process; valid where answered_
  process_set answered_;
  quorum_cover_tracker cover_;
};

/// The Figure 3 cutoff rule: the maximum clock a covered quorum reported.
inline std::uint64_t max_clock_over(
    const quorum_response_collector<std::uint64_t>& clocks,
    const process_set& quorum) {
  std::uint64_t cutoff = 0;
  for (process_id p : quorum) cutoff = std::max(cutoff, clocks.at(p));
  return cutoff;
}

/// Freshest gossip per origin: the freshness source of push_qaf's waits.
template <class S>
class gossip_cache {
 public:
  /// Records a gossip; keeps the freshest per origin (reordering-safe:
  /// clocks are per-origin monotone).
  void observe(process_id origin, S state, std::uint64_t clock) {
    auto& e = entries_[origin];
    if (!e || e->clock < clock) e = entry{std::move(state), clock};
  }

  /// The origins that gossiped a clock ≥ cutoff. An origin counts only
  /// once it gossiped, even at cutoff 0.
  process_set fresh_at(std::uint64_t cutoff) const {
    process_set fresh;
    for (const auto& [p, e] : entries_)
      if (e && e->clock >= cutoff) fresh.insert(p);
    return fresh;
  }

  /// Cached states of a covered quorum, in process-id order.
  std::vector<S> states_of(const process_set& quorum) const {
    std::vector<S> out;
    out.reserve(quorum.size());
    for (process_id p : quorum) out.push_back(entries_.at(p)->state);
    return out;
  }

 private:
  struct entry {
    S state;
    std::uint64_t clock;
  };
  std::map<process_id, std::optional<entry>> entries_;
};

/// Figure 3's knobs, shared by push_qaf and quorum_service (whose
/// service_options names the same struct). The defaults are the published
/// protocol; the two `use_*` switches exist for the ablation study
/// (qaf_ablation.hpp) and MUST stay true in supported use.
struct push_qaf_options {
  /// Period of the unsolicited state/clock propagation (Figure 3 line 12).
  sim_time gossip_period = 5000;  // 5 ms
  /// Keep Figure 3's clock cutoff in quorum_get (lines 5-8). If false,
  /// quorum_get returns the first full read quorum of cached gossip,
  /// however old.
  bool use_get_cutoff = true;
  /// Keep Figure 3's delayed completion of quorum_set (lines 18-20). If
  /// false, quorum_set returns as soon as a write quorum acknowledged.
  bool use_set_confirmation = true;
  /// Starting value of the logical clock. The protocol never compares
  /// clocks of different processes for equality, so correctness must be
  /// invariant under per-process offsets — the ablation uses an offset to
  /// widen the race that the set-confirmation wait closes.
  std::uint64_t initial_clock = 0;
  /// Strategy-driven targeted access (strategy/selector.hpp): when set,
  /// every clock request and set request goes only to the members of a
  /// sampled write quorum (one direct message each) instead of to all n
  /// processes, and responses return point-to-point. Null keeps the
  /// broadcast protocol bit-for-bit.
  selector_ptr selector;
  /// With a selector: how long a request waits for its targeted quorum
  /// before escalating to a full broadcast (targeted_round.hpp). 0
  /// disables escalation — ONLY for the mutation tests.
  sim_time escalation_timeout = 40000;  // 40 ms

  void validate() const {
    if (gossip_period <= 0)
      throw std::invalid_argument("quorum access: bad gossip period");
  }
};

/// Figure 3's two clock waits at one engine, keyed by the engine's
/// operation sequence numbers: the get cutoff (lines 5-8) and the set
/// confirmation (lines 18-20). A wait collects clock acks until they cover
/// a write quorum; its cutoff is then the max clock over that quorum
/// (lines 7 and 19) and its targeted round closes. It completes once a
/// read quorum is fresh at the cutoff (lines 8 and 20). With the get
/// cutoff ablated a get opens at cutoff 0; with the set confirmation
/// ablated a set completes on its write-quorum ack.
///
/// The engine keeps its wire messages, its clock and opens its rounds;
/// as `Owner` it supplies what else differs:
///
///   process_set fresh_at(std::uint64_t cutoff) const;  // freshness source
///   void complete_get(Get&& get, const process_set& read_quorum);
///   void complete_set(Set&& set);
///
/// Completion order: the ready get of lowest sequence, else the ready set
/// of lowest sequence, chosen afresh after every completion, since a
/// completion may open a new wait (an ablated push_qaf get opens ready and
/// settles from inside the callback).
template <class Owner, class Get, class Set>
class cutoff_waits {
 public:
  cutoff_waits(Owner& owner, const quorum_config& config,
               const push_qaf_options& options, targeted_round& rounds)
      : owner_(owner),
        config_(config),
        use_get_cutoff_(options.use_get_cutoff),
        use_set_confirmation_(options.use_set_confirmation),
        rounds_(rounds) {}

  /// Opens get `seq`. With the get cutoff, `probe()` starts its clock
  /// round and returns the round's handle. Ablated, no round starts and
  /// the wait opens ready to settle (c_get = 0); returns true then.
  template <class Probe>
  bool open_get(std::uint64_t seq, Get get, Probe&& probe) {
    wait<Get>& w = gets_[seq];
    w.op = std::move(get);
    if (use_get_cutoff_) {
      w.round = probe();
      return false;
    }
    w.cutoff = 0;
    return true;
  }

  /// Opens set `seq`, whose request went out in targeted round `round`.
  void open_set(std::uint64_t seq, Set set, targeted_round::handle round) {
    wait<Set>& w = sets_[seq];
    w.op = std::move(set);
    w.round = round;
  }

  /// A clock ack from `from` for get `seq` (lines 6-7).
  void get_ack(std::uint64_t seq, process_id from, std::uint64_t clock) {
    const auto it = gets_.find(seq);
    if (it != gets_.end() && cover(it->second, from, clock)) settle();
  }

  /// A set ack from `from` for set `seq` (lines 18-19).
  void set_ack(std::uint64_t seq, process_id from, std::uint64_t clock) {
    const auto it = sets_.find(seq);
    if (it == sets_.end() || !cover(it->second, from, clock)) return;
    if (!use_set_confirmation_) {
      Set op = std::move(it->second.op);
      sets_.erase(it);
      owner_.complete_set(std::move(op));
    }
    settle();
  }

  /// Completes every wait a read quorum is fresh for, in the order above.
  void settle() {
    while (complete_next()) {
    }
  }

  /// Open waits, gets and sets.
  std::size_t open_count() const noexcept {
    return gets_.size() + sets_.size();
  }

 private:
  template <class Op>
  struct wait {
    Op op;
    quorum_response_collector<std::uint64_t> acks;
    std::optional<std::uint64_t> cutoff;  // set once acks cover
    targeted_round::handle round = targeted_round::none;
  };

  /// Records an ack; true iff it just fixed the wait's cutoff.
  template <class Op>
  bool cover(wait<Op>& w, process_id from, std::uint64_t clock) {
    if (w.cutoff) return false;
    const auto quorum = w.acks.add(from, clock, config_.writes);
    if (!quorum) return false;
    rounds_.close(w.round);
    w.cutoff = max_clock_over(w.acks, *quorum);
    return true;
  }

  std::optional<process_set> fresh_quorum(std::uint64_t cutoff) const {
    return covered_quorum(config_.reads, owner_.fresh_at(cutoff));
  }

  /// Completes the first ready wait; false if none is ready. Freshness
  /// only grows, so a wait is ready at least as soon as any wait with a
  /// higher cutoff: if the lowest open cutoff is unmet, the scan is
  /// skipped.
  bool complete_next() {
    std::optional<std::uint64_t> lowest;
    for (const auto& [seq, w] : gets_)
      if (w.cutoff && (!lowest || *w.cutoff < *lowest)) lowest = w.cutoff;
    for (const auto& [seq, w] : sets_)
      if (w.cutoff && (!lowest || *w.cutoff < *lowest)) lowest = w.cutoff;
    if (!lowest) return false;
    const std::optional<process_set> at_lowest = fresh_quorum(*lowest);
    if (!at_lowest) return false;
    const auto ready = [&](std::uint64_t cutoff) {
      return cutoff == *lowest ? at_lowest : fresh_quorum(cutoff);
    };
    for (auto it = gets_.begin(); it != gets_.end(); ++it) {
      if (!it->second.cutoff) continue;
      const std::optional<process_set> quorum = ready(*it->second.cutoff);
      if (!quorum) continue;
      Get op = std::move(it->second.op);
      gets_.erase(it);
      owner_.complete_get(std::move(op), *quorum);
      return true;
    }
    for (auto it = sets_.begin(); it != sets_.end(); ++it) {
      if (!it->second.cutoff || !ready(*it->second.cutoff)) continue;
      Set op = std::move(it->second.op);
      sets_.erase(it);
      owner_.complete_set(std::move(op));
      return true;
    }
    return false;
  }

  Owner& owner_;
  const quorum_config& config_;
  bool use_get_cutoff_;
  bool use_set_confirmation_;
  targeted_round& rounds_;
  std::map<std::uint64_t, wait<Get>> gets_;
  std::map<std::uint64_t, wait<Set>> sets_;
};

/// Targeted-access accounting of one push_qaf instance.
struct push_qaf_counters {
  std::uint64_t escalations = 0;

  /// Every field, once (metrics_registry::observe_counters reads it).
  template <class F>
  static void for_each_counter(F&& f) {
    f("escalations", &push_qaf_counters::escalations);
  }
};

/// The complete Figure 3 protocol over a single opaque state S: per-op
/// wire messages and the clock rule, with the waits in cutoff_waits over a
/// gossip_cache. generalized_qaf and ablated_qaf are instantiations; see
/// their headers for the protocol documentation.
template <class S>
class push_qaf : public quorum_access<S> {
 public:
  using typename quorum_access<S>::update_fn;
  using typename quorum_access<S>::get_callback;
  using typename quorum_access<S>::set_callback;

  push_qaf(quorum_config config, S initial, push_qaf_options options)
      : config_(std::move(config)),
        options_(options),
        state_(std::move(initial)),
        clock_(options.initial_clock),
        rounds_(*this, options_.escalation_timeout, counters_.escalations),
        waits_(*this, config_, options_, rounds_) {
    config_.validate();
    options_.validate();
    if (options_.selector)
      check_selector_covers(options_.selector->strategy().writes,
                            config_.writes, "write");
  }

  // Figure 3, lines 3-9.
  void quorum_get(get_callback done) override {
    const std::uint64_t seq = ++seq_;
    if (waits_.open_get(seq, std::move(done), [&] {
          return rounds_.open(draw(seq), make_message<clock_req>(seq));
        }))
      waits_.settle();  // ablated: c_get = 0, any gossip qualifies
  }

  // Figure 3, lines 15-20.
  void quorum_set(update_fn u, set_callback done) override {
    const std::uint64_t seq = ++seq_;
    waits_.open_set(
        seq, std::move(done),
        rounds_.open(draw(seq), make_message<set_req>(seq, std::move(u))));
  }

  const S& local_state() const override { return state_; }
  std::uint64_t logical_clock() const noexcept { return clock_; }
  const push_qaf_counters& counters() const noexcept { return counters_; }

 protected:
  void start() override {
    if (obs_bundle* o = this->obs())
      o->metrics.observe_counters("qaf.", counters_);
    arm_gossip_timer();
  }

  void on_timeout(int timer_id) override {
    if (timer_id != gossip_timer_) {
      rounds_.on_timeout(timer_id);
      return;
    }
    // Figure 3, lines 12-14: advance the clock and push state unprompted.
    ++clock_;
    this->broadcast(make_message<gossip>(state_, clock_));
    arm_gossip_timer();
  }

  void deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* m = message_cast<gossip>(payload)) {
      // Targeted mode: Lamport-merge the clock. Only sampled members tick
      // per SET_REQ, so clock rates diverge and a cold process would trail
      // hot cutoffs by many gossip periods, stalling freshness waits.
      // Sound: a merge only moves the clock forward, so clocks stay
      // monotone and a CLOCK reply still covers every gossip clock already
      // sent; and a member's SET ack clock still strictly exceeds every
      // clock it gossiped before applying (the apply bumps the clock
      // before the ack). So a gossip whose clock reaches a cutoff built
      // from those acks and replies was sent after the write was applied
      // — the Figure 3 freshness invariant. Broadcast mode is untouched.
      if (options_.selector && clock_ < m->clock) clock_ = m->clock;
      cache_.observe(origin, m->state, m->clock);
      waits_.settle();
    } else if (const auto* m = message_cast<clock_req>(payload)) {
      // Figure 3, lines 10-11.
      this->unicast(origin, make_message<clock_resp>(m->seq, clock_));
    } else if (const auto* m = message_cast<clock_resp>(payload)) {
      waits_.get_ack(m->seq, origin, m->clock);
    } else if (const auto* m = message_cast<set_req>(payload)) {
      // Figure 3, lines 21-24. Under targeted access the same SET_REQ can
      // arrive twice (direct message, then the escalated broadcast —
      // direct messages bypass the flooding dedup) and u need not be
      // idempotent: apply once, but re-ack so the writer still learns the
      // incorporation clock whichever copy survived.
      if (mark_set_applied(origin, m->seq)) {
        state_ = m->update(state_);
        ++clock_;
      }
      this->unicast(origin, make_message<set_resp>(m->seq, clock_));
    } else if (const auto* m = message_cast<set_resp>(payload)) {
      waits_.set_ack(m->seq, origin, m->clock);
    }
  }

 private:
  using waits = cutoff_waits<push_qaf, get_callback, set_callback>;
  friend waits;

  // ---- messages ----
  struct gossip : message {  // the paper's unsolicited GET_RESP(state, clock)
    S state;
    std::uint64_t clock;
    gossip(S s, std::uint64_t c) : state(std::move(s)), clock(c) {}
  };
  struct clock_req : message {
    std::uint64_t seq;
    explicit clock_req(std::uint64_t k) : seq(k) {}
  };
  struct clock_resp : message {
    std::uint64_t seq;
    std::uint64_t clock;
    clock_resp(std::uint64_t k, std::uint64_t c) : seq(k), clock(c) {}
  };
  struct set_req : message {
    std::uint64_t seq;
    typename quorum_access<S>::update_fn update;
    set_req(std::uint64_t k, typename quorum_access<S>::update_fn u)
        : seq(k), update(std::move(u)) {}
  };
  struct set_resp : message {
    std::uint64_t seq;
    std::uint64_t clock;
    set_resp(std::uint64_t k, std::uint64_t c) : seq(k), clock(c) {}
  };

  void arm_gossip_timer() {
    gossip_timer_ = this->set_timer(options_.gossip_period);
  }

  /// The write quorum operation `seq` targets; none without a selector.
  std::optional<process_set> draw(std::uint64_t seq) const {
    if (!options_.selector) return std::nullopt;
    return options_.selector->sample_write(this->id(), seq);
  }

  /// Applies at most once per (origin, seq); only targeted mode can see
  /// duplicates, so the tracking is skipped entirely without a selector.
  /// Bounded: a seq can arrive at most twice (the direct copy and the one
  /// escalation rebroadcast — the escalation entry is consumed when it
  /// fires), so an entry is dropped the moment its duplicate shows up;
  /// and since the rebroadcast trails the original by escalation_timeout
  /// plus one delay bound, entries more than kAppliedWindow seqs behind
  /// the origin's newest are pruned — no realistic run issues that many
  /// operations inside one escalation window.
  bool mark_set_applied(process_id origin, std::uint64_t seq) {
    if (!options_.selector) return true;
    auto& seen = applied_sets_[origin];
    const auto [it, fresh] = seen.insert(seq);
    if (!fresh) {
      seen.erase(it);  // second and final copy: the entry is spent
      return false;
    }
    if (seq > kAppliedWindow)
      seen.erase(seen.begin(), seen.lower_bound(seq - kAppliedWindow));
    return true;
  }

  static constexpr std::uint64_t kAppliedWindow = 1 << 16;

  // ---- cutoff_waits hooks ----
  process_set fresh_at(std::uint64_t cutoff) const {
    return cache_.fresh_at(cutoff);
  }
  void complete_get(get_callback&& done, const process_set& read_quorum) {
    done(cache_.states_of(read_quorum));
  }
  void complete_set(set_callback&& done) { done(); }

  quorum_config config_;
  push_qaf_options options_;
  S state_;
  std::uint64_t seq_ = 0;
  std::uint64_t clock_;  // the Figure 3 logical clock
  int gossip_timer_ = -1;
  gossip_cache<S> cache_;
  // ---- targeted-access state (empty without a selector) ----
  push_qaf_counters counters_;
  targeted_round rounds_;
  std::map<process_id, std::set<std::uint64_t>> applied_sets_;
  waits waits_;
};

}  // namespace gqs
