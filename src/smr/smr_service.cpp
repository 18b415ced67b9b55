#include "smr/smr_service.hpp"

#include <algorithm>

namespace gqs {

// ---------------------------------------------------------------------------
// options / construction

void smr_options::validate() const {
  if (shards == 0 || shards > 4096)
    throw std::invalid_argument("smr_service: bad shard count");
  if (lease_duration <= 0 || lease_backoff_unit < 0)
    throw std::invalid_argument("smr_service: bad lease parameters");
  if (heartbeat_period <= 0 || heartbeat_period >= lease_duration)
    throw std::invalid_argument(
        "smr_service: heartbeat period must undercut the lease");
  if (pipeline_window <= 0)
    throw std::invalid_argument("smr_service: bad pipeline window");
  if (max_batch == 0)
    throw std::invalid_argument("smr_service: bad batch cap");
  if (resubmit_timeout <= 0)
    throw std::invalid_argument("smr_service: bad resubmit timeout");
  if (!shard_selectors.empty() && shard_selectors.size() != shards)
    throw std::invalid_argument(
        "smr_service: shard_selectors must match shard count");
  if (!leaders.empty() && leaders.size() != shards)
    throw std::invalid_argument("smr_service: leaders must match shard count");
}

smr_service::smr_service(service_key keys, quorum_config config,
                         smr_options options)
    : keys_(keys),
      config_(std::move(config)),
      options_(std::move(options)),
      rounds_(*this, options_.escalation_timeout, counters_.escalations,
              "smr", /*self_answers=*/true) {
  if (keys_ == 0) throw std::invalid_argument("smr_service: no keys");
  config_.validate();
  options_.validate();
  for (const selector_ptr& sel : options_.shard_selectors) {
    if (!sel) continue;
    check_selector_covers(sel->strategy().writes, config_.writes, "write");
    check_selector_covers(sel->strategy().reads, config_.reads, "read");
  }
  shards_.resize(options_.shards);
  states_.resize(keys_);
  write_counts_.resize(keys_, 0);
}

process_id smr_service::leader_of(std::size_t shard, std::uint64_t view) const {
  const process_id n = system_size();
  const process_id initial =
      options_.leaders.empty()
          ? static_cast<process_id>(shard % n)
          : options_.leaders[shard];
  return static_cast<process_id>(
      (initial + static_cast<process_id>((view - 1) % n)) % n);
}

const smr_service::shard_state& smr_service::shard_at(std::size_t shard) const {
  if (shard >= shards_.size())
    throw std::out_of_range("smr_service: shard out of range");
  return shards_[shard];
}

std::uint64_t smr_service::view_of(std::size_t shard) const {
  return shard_at(shard).view;
}

const std::vector<smr_entry_ptr>& smr_service::log(std::size_t shard) const {
  return shard_at(shard).chosen;
}

std::uint64_t smr_service::applied_prefix(std::size_t shard) const {
  return shard_at(shard).applied;
}

// ---------------------------------------------------------------------------
// lifecycle

void smr_service::start() {
  register_obs();
  const process_id n = system_size();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shard_state& ss = shards_[s];
    ss.applied_seqs.resize(n);
    ss.leader_activity = now();
    if (leader_of(s, ss.view) == id())
      begin_phase1(s);
    else
      arm_lease(s);
  }
  retry_timer_ = set_timer(std::max<sim_time>(options_.resubmit_timeout / 2, 1));
}

void smr_service::register_obs() {
  obs_bundle* o = obs();
  if (!o) return;
  tracer_ = o->tracer.recording() ? &o->tracer : nullptr;
  o->metrics.observe_counters("smr.", counters_);
  if (o->sampler.enabled()) {
    o->sampler.add_probe("smr.inflight", [this] {
      std::int64_t total = 0;
      for (const shard_state& ss : shards_)
        total += static_cast<std::int64_t>(ss.inflight.size());
      return total;
    });
    o->sampler.add_probe("smr.staged", [this] {
      std::int64_t total = 0;
      for (const shard_state& ss : shards_)
        total += static_cast<std::int64_t>(ss.staged.size() +
                                           ss.fwd_staged.size());
      return total;
    });
    o->sampler.add_probe("smr.pending", [this] {
      std::int64_t total = 0;
      for (const shard_state& ss : shards_)
        total += static_cast<std::int64_t>(ss.pending.size());
      return total;
    });
    o->sampler.add_probe(
        "smr.view",
        [this] {
          std::int64_t hi = 0;
          for (const shard_state& ss : shards_)
            hi = std::max(hi, static_cast<std::int64_t>(ss.view));
          return hi;
        },
        timeseries_sampler::agg::max);
  }
}

void smr_service::on_timeout(int timer_id) {
  if (timer_id == flush_timer_) {
    flush_timer_ = -1;
    flush();
    return;
  }
  if (timer_id == retry_timer_) {
    retry_tick();
    retry_timer_ =
        set_timer(std::max<sim_time>(options_.resubmit_timeout / 2, 1));
    return;
  }
  rounds_.on_timeout(timer_id);
  const auto it = timers_.find(timer_id);
  if (it == timers_.end()) return;  // an escalation, or stale
  const timer_ref ref = it->second;
  timers_.erase(it);
  switch (ref.kind) {
    case timer_ref::kind_t::lease: {
      shard_state& ss = shards_[ref.shard];
      ss.lease_armed = false;
      if (ss.leading || ss.phase1_inflight) return;  // no lease while I lead
      if (now() - ss.leader_activity >= lease_patience(ss))
        lease_expired(ref.shard);
      else
        arm_lease(ref.shard);  // renewed since arming: sleep the remainder
      return;
    }
    case timer_ref::kind_t::heartbeat: {
      shard_state& ss = shards_[ref.shard];
      if (!ss.leading) return;  // stepped down; stop the beat
      ++counters_.heartbeats;
      broadcast(make_message<hb_msg>(ref.shard, ss.view, ss.applied));
      arm_heartbeat(ref.shard);
      return;
    }
  }
}

void smr_service::arm_lease(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  if (ss.lease_armed) return;
  const sim_time deadline = ss.leader_activity + lease_patience(ss);
  timers_[set_timer(std::max<sim_time>(deadline - now(), 1))] =
      timer_ref{timer_ref::kind_t::lease, shard};
  ss.lease_armed = true;
}

void smr_service::arm_heartbeat(std::uint32_t shard) {
  timers_[set_timer(options_.heartbeat_period)] =
      timer_ref{timer_ref::kind_t::heartbeat, shard};
}

void smr_service::renew_lease(std::uint32_t shard) {
  shards_[shard].leader_activity = now();
}

void smr_service::lease_expired(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  ++counters_.view_changes;
  if (tracer_) tracer_->leaf("smr.view_change", "smr", id(), {}, now());
  ++ss.view;
  ss.leader_activity = now();
  if (leader_of(shard, ss.view) == id())
    begin_phase1(shard);
  else
    arm_lease(shard);
}

void smr_service::adopt_view(std::uint32_t shard, std::uint64_t view) {
  shard_state& ss = shards_[shard];
  if (view <= ss.view) return;
  const bool was_leader_role = ss.leading || ss.phase1_inflight;
  ss.view = view;
  ss.leader_activity = now();
  if (was_leader_role)
    step_down(shard);
  else if (!ss.lease_armed)
    arm_lease(shard);
}

void smr_service::step_down(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  ss.leading = false;
  ss.phase1_inflight = false;
  ss.p1bs = {};
  rounds_.close(ss.phase1_round);
  for (const auto& [slot, round] : ss.inflight) rounds_.close(round.round);
  ss.inflight.clear();
  if (tracer_) {
    // Abandoned rounds: close their spans here rather than letting
    // finalize() stretch them to the end of the run.
    if (ss.phase1_span.valid()) {
      tracer_->end_span(ss.phase1_span, now());
      ss.phase1_span = {};
    }
    for (auto& [slot, sp] : ss.phase2_spans) tracer_->end_span(sp, now());
    ss.phase2_spans.clear();
    for (auto& [slot, sp] : ss.slot_spans) tracer_->end_span(sp, now());
    ss.slot_spans.clear();
  }
  // Undecided batches are not lost: re-route their commands towards the
  // new leader (duplicates are deduplicated at application).
  if (!ss.staged.empty()) {
    for (smr_command& c : ss.staged) ss.fwd_staged.push_back(std::move(c));
    ss.staged.clear();
    mark_dirty(shard);
  }
  if (!ss.lease_armed) arm_lease(shard);
}

// ---------------------------------------------------------------------------
// submission path

void smr_service::submit_write(service_key key, reg_value value,
                               write_callback done) {
  smr_command cmd;
  cmd.key = key;
  cmd.is_read = false;
  cmd.value = value;
  pending_cmd rec;
  rec.wdone = std::move(done);
  submit(std::move(cmd), std::move(rec));
}

void smr_service::submit_read(service_key key, read_callback done) {
  smr_command cmd;
  cmd.key = key;
  cmd.is_read = true;
  pending_cmd rec;
  rec.rdone = std::move(done);
  submit(std::move(cmd), std::move(rec));
}

void smr_service::submit(smr_command cmd, pending_cmd rec) {
  const std::uint32_t shard = static_cast<std::uint32_t>(shard_of(cmd.key));
  shard_state& ss = shards_[shard];
  cmd.submitter = id();
  cmd.submit_seq = ss.next_seq++;
  rec.cmd = cmd;
  rec.issued_at = now();
  if (tracer_)
    rec.span = tracer_->begin_span("smr.submit", "smr", id(), {}, now());
  ++counters_.commands_submitted;
  ss.pending.emplace(cmd.submit_seq, std::move(rec));
  route(shard, cmd);
}

void smr_service::route(std::uint32_t shard, const smr_command& cmd) {
  shard_state& ss = shards_[shard];
  if (leader_of(shard, ss.view) == id())
    ss.staged.push_back(cmd);
  else
    ss.fwd_staged.push_back(cmd);
  mark_dirty(shard);
}

void smr_service::mark_dirty(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  if (!ss.dirty) {
    ss.dirty = true;
    dirty_shards_.push_back(shard);
  }
  schedule_flush();
}

void smr_service::schedule_flush() {
  if (flush_timer_ == -1) flush_timer_ = set_timer(0);
}

/// One flush per instant (the shared-engine coalescing idiom): every
/// command staged in the same instant joins one batch or one forward.
void smr_service::flush() {
  std::vector<std::uint32_t> dirty;
  dirty.swap(dirty_shards_);
  for (const std::uint32_t s : dirty) {
    shard_state& ss = shards_[s];
    ss.dirty = false;
    if (!ss.fwd_staged.empty()) {
      const process_id target = leader_of(s, ss.view);
      if (target == id()) {
        for (smr_command& c : ss.fwd_staged)
          ss.staged.push_back(std::move(c));
        ss.fwd_staged.clear();
      } else {
        std::vector<smr_command> cmds(ss.fwd_staged.begin(),
                                      ss.fwd_staged.end());
        ss.fwd_staged.clear();
        counters_.commands_forwarded += cmds.size();
        unicast(target, make_message<fwd_msg>(s, std::move(cmds)));
      }
    }
    if (ss.leading) drain(s);
  }
}

/// Leader batching + pipelining: pack staged commands into entries of up
/// to max_batch and keep up to pipeline_window Phase-2 rounds in flight.
void smr_service::drain(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  while (!ss.staged.empty() &&
         ss.inflight.size() < static_cast<std::size_t>(options_.pipeline_window)) {
    auto entry = std::make_shared<smr_entry>();
    while (!ss.staged.empty() && entry->size() < options_.max_batch) {
      entry->push_back(std::move(ss.staged.front()));
      ss.staged.pop_front();
    }
    begin_phase2(shard, ss.next_slot++, std::move(entry));
  }
}

// ---------------------------------------------------------------------------
// Phase 1 — one promise per lease, covering every slot above the floor

/// Phase 1 draws a read quorum and Phase 2 a write quorum, both from one
/// per-process stream shared by every shard.
std::optional<process_set> smr_service::draw(std::uint32_t shard,
                                             bool phase1) {
  if (options_.shard_selectors.empty() || !options_.shard_selectors[shard])
    return std::nullopt;
  const quorum_selector& sel = *options_.shard_selectors[shard];
  return phase1 ? sel.sample_read(id(), sample_seq_++)
                : sel.sample_write(id(), sample_seq_++);
}

void smr_service::begin_phase1(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  if (ss.phase1_inflight || ss.leading) return;
  if (ss.promised > ss.view) {
    // Someone campaigns in a higher view; stand by as a follower (the
    // lease keeps ticking so this shard can never stall leaderless).
    arm_lease(shard);
    return;
  }
  ss.phase1_inflight = true;
  ss.p1bs = {};
  ++counters_.phase1_rounds;
  ss.promised = ss.view;  // self-promise
  const std::uint64_t floor = ss.applied;
  auto wire = make_message<p1a_msg>(shard, ss.view, floor);
  if (tracer_) {
    ss.phase1_span = tracer_->begin_span("smr.phase1", "smr", id(), {}, now());
    stamp_trace_span(wire, ss.phase1_span);
  }
  const std::optional<process_set> targets = draw(shard, /*phase1=*/true);
  if (targets) ++counters_.targeted_phase1;
  ss.phase1_round = rounds_.open(targets, std::move(wire), ss.phase1_span);
  // The candidate is its own first responder.
  const auto quorum = ss.p1bs.add(id(), make_report(ss, floor), config_.reads);
  if (quorum) finish_phase1(shard, *quorum);
}

smr_service::p1b_report smr_service::make_report(const shard_state& ss,
                                                 std::uint64_t floor) const {
  p1b_report report;
  report.floor = ss.applied;
  for (std::uint64_t s = floor; s < ss.chosen.size(); ++s)
    if (ss.chosen[s])
      report.slots.push_back(
          p1b_slot{s, true, accepted_rec<smr_entry_ptr>{0, ss.chosen[s]}});
  for (const auto& [s, acc] : ss.accepted) {
    if (s < floor) continue;
    if (s < ss.chosen.size() && ss.chosen[s]) continue;  // reported above
    report.slots.push_back(p1b_slot{s, false, acc});
  }
  return report;
}

void smr_service::finish_phase1(std::uint32_t shard,
                                const process_set& quorum) {
  shard_state& ss = shards_[shard];
  ss.phase1_inflight = false;
  ss.leading = true;
  ss.commit_sent = ss.applied;
  rounds_.close(ss.phase1_round);
  if (tracer_ && ss.phase1_span.valid()) {
    tracer_->end_span(ss.phase1_span, now());
    ss.phase1_span = {};
  }

  // Aggregate the quorum's reports (plus our own acceptor state, whether
  // or not we are in the covered quorum) per slot.
  std::vector<p1b_report> reports = ss.p1bs.gather(quorum);
  if (!quorum.contains(id())) reports.push_back(make_report(ss, ss.applied));
  std::map<std::uint64_t, std::vector<accepted_rec<smr_entry_ptr>>> cands;
  std::map<std::uint64_t, smr_entry_ptr> learned;
  std::uint64_t hi = ss.chosen.size();
  for (const p1b_report& r : reports) {
    for (const p1b_slot& sl : r.slots) {
      hi = std::max(hi, sl.slot + 1);
      if (sl.chosen)
        learned[sl.slot] = *sl.acc.val;
      else if (sl.acc.val)
        cands[sl.slot].push_back(sl.acc);
    }
  }
  hi = std::max(hi, ss.applied);
  ss.next_slot = hi;

  // Recover every open slot below the horizon: adopt already-decided
  // values, re-run Phase 2 on the highest accepted value, and close pure
  // gaps with no-op entries so the committed prefix can advance.
  for (std::uint64_t s = ss.applied; s < hi; ++s) {
    if (s < ss.chosen.size() && ss.chosen[s]) continue;
    const auto found = learned.find(s);
    if (found != learned.end()) {
      mark_chosen(shard, s, found->second);
      continue;
    }
    smr_entry_ptr entry;
    const auto cs = cands.find(s);
    if (cs != cands.end())
      if (auto pick = adopt_highest(cs->second)) entry = *pick;
    if (!entry) entry = std::make_shared<smr_entry>();  // no-op gap filler
    begin_phase2(shard, s, std::move(entry));
  }

  // Catch up quorum members that trail our committed prefix.
  for (const process_id p : quorum) {
    if (p == id()) continue;
    for (std::uint64_t s = ss.p1bs.at(p).floor; s < ss.applied; ++s)
      unicast(p, make_message<commit_msg>(shard, ss.view, s, ss.chosen[s]));
  }

  announce_commits(shard);
  apply_prefix(shard);
  arm_heartbeat(shard);
  drain(shard);
}

// ---------------------------------------------------------------------------
// Phase 2 — pipelined slots under the lease's promise

void smr_service::begin_phase2(std::uint32_t shard, std::uint64_t slot,
                               smr_entry_ptr entry) {
  shard_state& ss = shards_[shard];
  ++counters_.entries_proposed;  // one Phase-2 round per entry
  ss.accepted[slot] = accepted_rec<smr_entry_ptr>{ss.view, entry};  // self
  auto wire = make_message<p2a_msg>(shard, ss.view, slot, entry);
  span_ref root;
  if (tracer_) {
    // One root span per (shard, slot), open until the commit announcement.
    // The p2a wire rides the ROOT, not the phase-2 child: net sub-spans
    // must not widen phase2.end past the commit span's start.
    root = ss.slot_spans[slot];
    if (!root.valid()) {
      root = tracer_->begin_span("smr.slot", "smr", id(), {}, now());
      ss.slot_spans[slot] = root;
    }
    if (!ss.phase2_spans[slot].valid())
      ss.phase2_spans[slot] =
          tracer_->begin_span("smr.phase2", "smr", id(), root, now());
    stamp_trace_span(wire, root);
  }
  inflight_round fresh;
  fresh.entry = std::move(entry);
  inflight_round& round =
      ss.inflight.insert_or_assign(slot, std::move(fresh)).first->second;
  const std::optional<process_set> targets = draw(shard, /*phase1=*/false);
  if (targets) ++counters_.targeted_phase2;
  round.round = rounds_.open(targets, std::move(wire), root);
  if (round.acks.add(id(), config_.writes)) phase2_won(shard, slot);
}

void smr_service::phase2_won(std::uint32_t shard, std::uint64_t slot) {
  shard_state& ss = shards_[shard];
  const auto it = ss.inflight.find(slot);
  if (it == ss.inflight.end()) return;
  smr_entry_ptr entry = it->second.entry;
  rounds_.close(it->second.round);
  ss.inflight.erase(it);
  if (tracer_) {
    const auto p2 = ss.phase2_spans.find(slot);
    if (p2 != ss.phase2_spans.end()) {
      tracer_->end_span(p2->second, now());
      ss.phase2_spans.erase(p2);
    }
  }
  mark_chosen(shard, slot, entry);
  announce_commits(shard);
  apply_prefix(shard);
  drain(shard);  // a pipeline slot freed up
}

/// In-order commit announcements: slots are decided concurrently but
/// committed (and applied) strictly in log order.
void smr_service::announce_commits(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  if (!ss.leading) return;
  while (ss.commit_sent < ss.chosen.size() && ss.chosen[ss.commit_sent]) {
    ++counters_.entries_committed;
    auto wire = make_message<commit_msg>(shard, ss.view, ss.commit_sent,
                                         ss.chosen[ss.commit_sent]);
    if (tracer_) {
      const auto root = ss.slot_spans.find(ss.commit_sent);
      if (root != ss.slot_spans.end()) {
        const span_ref commit = tracer_->span("smr.commit", "smr", id(),
                                              root->second, now(), now());
        stamp_trace_span(wire, commit);
        tracer_->end_span(root->second, now());
        ss.slot_spans.erase(root);
      }
    }
    broadcast(std::move(wire));
    ++ss.commit_sent;
  }
}

// ---------------------------------------------------------------------------
// learner / state machine

void smr_service::mark_chosen(std::uint32_t shard, std::uint64_t slot,
                              const smr_entry_ptr& entry) {
  shard_state& ss = shards_[shard];
  if (ss.chosen.size() <= slot) ss.chosen.resize(slot + 1);
  if (ss.chosen[slot]) {
    if (!(*ss.chosen[slot] == *entry) && !safety_violation_)
      safety_violation_ = "shard " + std::to_string(shard) + " slot " +
                          std::to_string(slot) +
                          " chosen with two different entries";
    return;
  }
  ss.chosen[slot] = entry;
}

void smr_service::apply_prefix(std::uint32_t shard) {
  shard_state& ss = shards_[shard];
  while (ss.applied < ss.chosen.size() && ss.chosen[ss.applied]) {
    const smr_entry_ptr entry = ss.chosen[ss.applied];
    ++ss.applied;
    apply_entry(shard, *entry);
  }
  // Accepted records below the applied prefix can never be re-opened.
  ss.accepted.erase(ss.accepted.begin(), ss.accepted.lower_bound(ss.applied));
}

void smr_service::apply_entry(std::uint32_t shard, const smr_entry& entry) {
  shard_state& ss = shards_[shard];
  for (const smr_command& cmd : entry) {
    // Exactly-once: a command retried through a new leader may occupy two
    // slots; every replica applies the first occurrence only (identical
    // logs + identical filters ⇒ identical decisions everywhere).
    if (!ss.applied_seqs[cmd.submitter].mark(cmd.submit_seq)) {
      ++counters_.commands_deduped;
      continue;
    }
    ++counters_.commands_applied;
    if (!cmd.is_read) {
      ++write_counts_[cmd.key];
      states_[cmd.key].value = cmd.value;
      states_[cmd.key].version =
          reg_version{write_counts_[cmd.key], cmd.submitter};
    }
    if (cmd.submitter == id()) {
      const auto p = ss.pending.find(cmd.submit_seq);
      if (p != ss.pending.end()) {
        pending_cmd rec = std::move(p->second);
        ss.pending.erase(p);
        if (tracer_ && rec.span.valid()) tracer_->end_span(rec.span, now());
        if (cmd.is_read)
          rec.rdone(states_[cmd.key].value, states_[cmd.key].version);
        else
          rec.wdone(states_[cmd.key].version);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// message handlers

void smr_service::deliver(process_id origin, const message_ptr& payload) {
  if (const auto* m = message_cast<fwd_msg>(payload)) {
    on_fwd(*m);
  } else if (const auto* m = message_cast<p1a_msg>(payload)) {
    if (origin != id()) on_p1a(origin, *m);  // own broadcast copy: handled
  } else if (const auto* m = message_cast<p1b_msg>(payload)) {
    on_p1b(origin, *m);
  } else if (const auto* m = message_cast<p2a_msg>(payload)) {
    if (origin != id()) on_p2a(origin, *m);  // own broadcast copy: handled
  } else if (const auto* m = message_cast<p2b_msg>(payload)) {
    on_p2b(origin, *m);
  } else if (const auto* m = message_cast<commit_msg>(payload)) {
    on_commit(*m);
  } else if (const auto* m = message_cast<hb_msg>(payload)) {
    if (origin != id()) on_hb(*m);
  }
}

void smr_service::on_fwd(const fwd_msg& m) {
  shard_state& ss = shards_[m.shard];
  for (const smr_command& cmd : m.cmds) {
    if (ss.applied_seqs[cmd.submitter].seen(cmd.submit_seq))
      continue;  // a late duplicate of an already-applied command
    route(m.shard, cmd);  // stage here if I lead, else towards the leader
  }
}

void smr_service::on_p1a(process_id origin, const p1a_msg& m) {
  shard_state& ss = shards_[m.shard];
  adopt_view(m.shard, m.view);
  if (m.view < ss.promised) return;  // stale candidate; no reply
  ss.promised = m.view;
  if (m.view == ss.view) renew_lease(m.shard);  // the campaign is activity
  unicast(origin,
          make_message<p1b_msg>(m.shard, m.view, make_report(ss, m.floor)));
}

void smr_service::on_p1b(process_id origin, const p1b_msg& m) {
  shard_state& ss = shards_[m.shard];
  if (!ss.phase1_inflight || m.view != ss.view) return;  // stale round
  const auto quorum = ss.p1bs.add(origin, m.report, config_.reads);
  if (quorum) finish_phase1(m.shard, *quorum);
}

void smr_service::on_p2a(process_id origin, const p2a_msg& m) {
  shard_state& ss = shards_[m.shard];
  if (m.view < ss.promised) return;  // promised away
  adopt_view(m.shard, m.view);
  ss.promised = m.view;
  if (m.view == ss.view) renew_lease(m.shard);
  const auto acc = ss.accepted.find(m.slot);
  if (acc == ss.accepted.end() || acc->second.aview <= m.view)
    ss.accepted[m.slot] = accepted_rec<smr_entry_ptr>{m.view, m.entry};
  unicast(origin, make_message<p2b_msg>(m.shard, m.view, m.slot));
}

void smr_service::on_p2b(process_id origin, const p2b_msg& m) {
  shard_state& ss = shards_[m.shard];
  if (!ss.leading || m.view != ss.view) return;  // stale round
  const auto it = ss.inflight.find(m.slot);
  if (it == ss.inflight.end()) return;  // already decided (or never ours)
  const auto quorum = it->second.acks.add(origin, config_.writes);
  if (quorum) phase2_won(m.shard, m.slot);
}

void smr_service::on_commit(const commit_msg& m) {
  shard_state& ss = shards_[m.shard];
  adopt_view(m.shard, m.view);
  if (m.view == ss.view) renew_lease(m.shard);
  mark_chosen(m.shard, m.slot, m.entry);
  apply_prefix(m.shard);
}

void smr_service::on_hb(const hb_msg& m) {
  shard_state& ss = shards_[m.shard];
  adopt_view(m.shard, m.view);
  if (m.view == ss.view) renew_lease(m.shard);
}

// ---------------------------------------------------------------------------
// client retries

/// The liveness backstop across leader changes: a command not applied
/// within resubmit_timeout is re-routed towards the current leader.
/// Application-side dedup makes the duplicate harmless.
void smr_service::retry_tick() {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shard_state& ss = shards_[s];
    for (auto& [seq, rec] : ss.pending) {
      if (now() - rec.issued_at < options_.resubmit_timeout) continue;
      ++counters_.retries;
      rec.issued_at = now();
      route(s, rec.cmd);
    }
  }
}

// ---------------------------------------------------------------------------
// cross-replica agreement

lincheck_result check_smr_agreement(
    const std::vector<const smr_service*>& replicas) {
  if (replicas.empty()) return lincheck_result::good();
  for (const smr_service* r : replicas)
    if (r->safety_violation())
      return lincheck_result::bad(*r->safety_violation());
  const std::size_t shards = replicas.front()->shard_count();
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t slots = 0;
    for (const smr_service* r : replicas)
      slots = std::max(slots, r->log(s).size());
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const smr_entry* seen = nullptr;
      for (const smr_service* r : replicas) {
        const auto& log = r->log(s);
        if (slot >= log.size() || !log[slot]) continue;
        if (seen && !(*seen == *log[slot]))
          return lincheck_result::bad(
              "shard " + std::to_string(s) + " slot " + std::to_string(slot) +
              " chosen differently across replicas");
        seen = log[slot].get();
      }
    }
  }
  return lincheck_result::good();
}

}  // namespace gqs
