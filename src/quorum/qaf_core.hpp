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
//   * gossip_cache              — per-origin freshest (state, clock) and
//                                 the "read quorum at clock ≥ cutoff"
//                                 query (the guards of lines 8 and 20);
//   * push_qaf                  — the complete Figure 3 protocol over one
//                                 object, with the ablation study's two
//                                 wait switches as options.
//
// generalized_qaf (Figure 3 proper), ablated_qaf (the weakened variants of
// bench_ablation_clocks) and classical_qaf (Figure 2) are thin
// instantiations; the multi-object quorum_service reuses the collectors
// and the cutoff rule over batched wire messages.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
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

/// Coverage tracking plus the per-process response payloads.
template <class T>
class quorum_response_collector {
 public:
  /// Records a response; returns the covered quorum if coverage was just
  /// reached.
  std::optional<process_set> add(process_id from, T value,
                                 const quorum_family& family) {
    responses_.insert_or_assign(from, std::move(value));
    return cover_.add(from, family);
  }

  const T& at(process_id p) const { return responses_.at(p); }

  /// The responses of a covered quorum, in process-id order.
  std::vector<T> gather(const process_set& quorum) const {
    std::vector<T> out;
    out.reserve(quorum.size());
    for (process_id p : quorum) out.push_back(responses_.at(p));
    return out;
  }

 private:
  std::map<process_id, T> responses_;
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

/// Freshest gossip per origin, and the "some read quorum gossiped clocks
/// ≥ cutoff" guard of Figure 3 lines 8 and 20.
template <class S>
class gossip_cache {
 public:
  /// Records a gossip; keeps the freshest per origin (reordering-safe:
  /// clocks are per-origin monotone).
  void observe(process_id origin, S state, std::uint64_t clock) {
    auto& e = entries_[origin];
    if (!e || e->clock < clock) e = entry{std::move(state), clock};
  }

  /// A read quorum all of whose members gossiped clocks ≥ cutoff, if any.
  std::optional<process_set> quorum_at(const quorum_family& reads,
                                       std::uint64_t cutoff) const {
    process_set fresh;
    for (const auto& [p, e] : entries_)
      if (e && e->clock >= cutoff) fresh.insert(p);
    return covered_quorum(reads, fresh);
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

/// Options of the push-based (Figure 3) protocol. The defaults are the
/// published protocol; the two `use_*` switches exist for the ablation
/// study (qaf_ablation.hpp) and MUST stay true in supported use.
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
  /// Strategy-driven targeted access: when set, CLOCK_REQ/SET_REQ go only
  /// to the members of a sampled write quorum (one direct message each)
  /// instead of to all n processes, and responses return point-to-point.
  /// Null keeps the seed broadcast behavior bit-for-bit.
  selector_ptr selector;
  /// With a selector: how long an operation waits for its targeted quorum
  /// before escalating to a full broadcast (targeted_round.hpp). 0
  /// disables escalation — ONLY for the mutation tests.
  sim_time escalation_timeout = 40000;  // 40 ms

  void validate() const {
    if (gossip_period <= 0)
      throw std::invalid_argument("push_qaf: bad gossip period");
  }
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

/// The complete Figure 3 protocol over a single opaque state S, built on
/// the shared collectors above. generalized_qaf and ablated_qaf are
/// instantiations; see their headers for the protocol documentation.
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
        rounds_(*this, options_.escalation_timeout, counters_.escalations) {
    config_.validate();
    options_.validate();
    if (options_.selector)
      check_selector_covers(options_.selector->strategy().writes,
                            config_.writes, "write");
  }

  // Figure 3, lines 3-9.
  void quorum_get(get_callback done) override {
    const std::uint64_t seq = ++seq_;
    auto& pending = gets_[seq];
    pending.done = std::move(done);
    if (options_.use_get_cutoff) {
      pending.round = rounds_.open(draw(seq), make_message<clock_req>(seq));
    } else {
      pending.have_cutoff = true;  // c_get = 0: any gossip qualifies
      recheck_waits();
    }
  }

  // Figure 3, lines 15-20.
  void quorum_set(update_fn u, set_callback done) override {
    const std::uint64_t seq = ++seq_;
    auto& pending = sets_[seq];
    pending.done = std::move(done);
    pending.round =
        rounds_.open(draw(seq), make_message<set_req>(seq, std::move(u)));
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
      // Sound because a member's SET ack clock still strictly exceeds
      // every clock it gossiped before applying (see quorum_service.hpp's
      // sync_clock for the full argument); broadcast mode is untouched.
      if (options_.selector && clock_ < m->clock) clock_ = m->clock;
      cache_.observe(origin, m->state, m->clock);
      recheck_waits();
    } else if (const auto* m = message_cast<clock_req>(payload)) {
      // Figure 3, lines 10-11.
      this->unicast(origin, make_message<clock_resp>(m->seq, clock_));
    } else if (const auto* m = message_cast<clock_resp>(payload)) {
      on_clock_resp(origin, *m);
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
      on_set_resp(origin, *m);
    }
  }

 private:
  // ---- messages ----
  struct gossip : message {  // the paper's unsolicited GET_RESP(state, clock)
    S state;
    std::uint64_t clock;
    gossip(S s, std::uint64_t c) : state(std::move(s)), clock(c) {}
    std::string debug_name() const override { return "GET_RESP"; }
  };
  struct clock_req : message {
    std::uint64_t seq;
    explicit clock_req(std::uint64_t k) : seq(k) {}
    std::string debug_name() const override { return "CLOCK_REQ"; }
  };
  struct clock_resp : message {
    std::uint64_t seq;
    std::uint64_t clock;
    clock_resp(std::uint64_t k, std::uint64_t c) : seq(k), clock(c) {}
    std::string debug_name() const override { return "CLOCK_RESP"; }
  };
  struct set_req : message {
    std::uint64_t seq;
    typename quorum_access<S>::update_fn update;
    set_req(std::uint64_t k, typename quorum_access<S>::update_fn u)
        : seq(k), update(std::move(u)) {}
    std::string debug_name() const override { return "SET_REQ"; }
  };
  struct set_resp : message {
    std::uint64_t seq;
    std::uint64_t clock;
    set_resp(std::uint64_t k, std::uint64_t c) : seq(k), clock(c) {}
    std::string debug_name() const override { return "SET_RESP"; }
  };

  // ---- pending operations ----
  struct pending_get {
    get_callback done;
    bool have_cutoff = false;
    std::uint64_t c_get = 0;
    quorum_response_collector<std::uint64_t> clock_resps;
    targeted_round::handle round = targeted_round::none;
  };
  struct pending_set {
    set_callback done;
    bool have_cutoff = false;
    std::uint64_t c_set = 0;
    quorum_response_collector<std::uint64_t> set_resps;
    targeted_round::handle round = targeted_round::none;
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

  void on_clock_resp(process_id from, const clock_resp& m) {
    const auto it = gets_.find(m.seq);
    if (it == gets_.end() || it->second.have_cutoff) return;
    // Lines 6-7: wait for CLOCK_RESPs from all members of some write
    // quorum; c_get = max clock among that quorum.
    const auto w_get = it->second.clock_resps.add(from, m.clock,
                                                  config_.writes);
    if (!w_get) return;
    rounds_.close(it->second.round);
    it->second.have_cutoff = true;
    it->second.c_get = max_clock_over(it->second.clock_resps, *w_get);
    recheck_waits();
  }

  void on_set_resp(process_id from, const set_resp& m) {
    const auto it = sets_.find(m.seq);
    if (it == sets_.end() || it->second.have_cutoff) return;
    // Lines 18-19: wait for SET_RESPs from all members of some write
    // quorum; c_set = max clock among that quorum.
    const auto w_set = it->second.set_resps.add(from, m.clock,
                                                config_.writes);
    if (!w_set) return;
    rounds_.close(it->second.round);
    if (!options_.use_set_confirmation) {
      auto done = std::move(it->second.done);
      sets_.erase(it);
      done();
      recheck_waits();
      return;
    }
    it->second.have_cutoff = true;
    it->second.c_set = max_clock_over(it->second.set_resps, *w_set);
    recheck_waits();
  }

  void recheck_waits() {
    // Completing an operation may invoke a callback that starts another
    // operation; restart the scan after every completion for safety.
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = gets_.begin(); it != gets_.end(); ++it) {
        if (!it->second.have_cutoff) continue;
        const auto r_get = cache_.quorum_at(config_.reads, it->second.c_get);
        if (!r_get) continue;
        std::vector<S> states = cache_.states_of(*r_get);
        auto done = std::move(it->second.done);
        gets_.erase(it);
        done(std::move(states));
        progress = true;
        break;
      }
      if (progress) continue;
      for (auto it = sets_.begin(); it != sets_.end(); ++it) {
        if (!it->second.have_cutoff) continue;
        if (!cache_.quorum_at(config_.reads, it->second.c_set)) continue;
        auto done = std::move(it->second.done);
        sets_.erase(it);
        done();
        progress = true;
        break;
      }
    }
  }

  quorum_config config_;
  push_qaf_options options_;
  S state_;
  std::uint64_t seq_ = 0;
  std::uint64_t clock_;  // the Figure 3 logical clock
  int gossip_timer_ = -1;
  gossip_cache<S> cache_;
  std::map<std::uint64_t, pending_get> gets_;
  std::map<std::uint64_t, pending_set> sets_;
  // ---- targeted-access state (empty without a selector) ----
  push_qaf_counters counters_;
  targeted_round rounds_;
  std::map<process_id, std::set<std::uint64_t>> applied_sets_;
};

}  // namespace gqs
