// smr_service.hpp — sharded, pipelined state-machine replication on the
// shared-engine fast path.
//
// The seed replicated log (smr/replicated_log.hpp) runs one full Figure-6
// consensus instance per slot over mux_host: every slot carries its own
// view synchronizer, every phase message is a flooded broadcast, and a
// replica submits one command at a time. smr_service keeps the Figure-6
// protocol core — the view/leader rotation, the 1B/2A/2B phases over GQS
// read and write quorums, the acceptor rules (consensus/acceptor_core.hpp)
// — but restructures it the way quorum_service restructured the register
// path:
//
//   * sharding — the keyspace is partitioned across independent consensus
//     groups (shard(key) = key mod shards), each with its own log, leader
//     and view schedule, all multiplexed over ONE component per process;
//   * leases — the leader of a shard's current view acquires one Phase-1
//     promise covering every slot (multi-decree Paxos) and keeps it while
//     followers observe leader activity (commits/heartbeats renew a lease
//     timer whose patience grows with the view, Proposition-2 style); on
//     expiry followers advance the view round-robin and the new leader
//     re-runs Phase 1 — the seed's view synchronizer, per shard instead
//     of per slot;
//   * batching — commands submitted anywhere are forwarded to the shard
//     leader and coalesced (one 0-delay flush per instant, the
//     quorum_service idiom) into multi-command log entries, so steady
//     state is ONE Phase-2 round per batch, amortized over its commands;
//   * pipelining — up to `pipeline_window` slots run Phase 2 concurrently;
//     commits are announced and applied strictly in slot order;
//   * targeted quorums — Phase-1/Phase-2 messages go only to a
//     strategy-sampled quorum, one unicast per member, with timeout
//     escalation to broadcast (quorum/targeted_round.hpp), so liveness
//     under a failure pattern is exactly this engine's broadcast mode's.
//
// That broadcast mode is NOT live under the paper's generalized patterns
// the way Figure 6 is: Phase 1 is request/response (the leader's p1a is
// answered by p1b) and followers change views only on lease expiry,
// whereas Figure 6 has every process push its 1B on entering a view. On
// Figure 1 under f1..f4, U_f members' commands never commit
// (docs/ARCHITECTURE.md, "Sharded SMR"); smr/replicated_log.hpp is the
// SMR that stays live there.
//
// Safety is per-slot Paxos over the GQS (Consistency of the quorum
// system); the acceptor side is the shared acceptor_core under one
// shard-wide promise. Exactly-once application: commands carry
// (submitter, per-shard seq) and every replica dedups through a
// sequence_filter while applying the identical log prefix, so retried
// commands (resubmitted to a new leader after a lease expiry) apply once
// at every replica deterministically.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "consensus/acceptor_core.hpp"
#include "lincheck/register_history.hpp"
#include "quorum/qaf_core.hpp"
#include "quorum/quorum_service.hpp"
#include "quorum/targeted_round.hpp"
#include "register/register_state.hpp"
#include "sim/flooding.hpp"
#include "sim/transport.hpp"
#include "strategy/selector.hpp"

namespace gqs {

/// One replicated command: a keyed read or write stamped with its
/// submitter and a per-(submitter, shard) sequence number so retries are
/// recognizable (and deduplicated) at every replica.
struct smr_command {
  service_key key = 0;
  bool is_read = false;
  reg_value value = 0;  // writes only
  process_id submitter = 0;
  std::uint32_t submit_seq = 0;

  friend bool operator==(const smr_command&, const smr_command&) = default;
};

/// A log entry: the batch of commands one Phase-2 round decides. Entries
/// are shared immutable values (leader state, wire messages and replica
/// logs all point at the same batch).
using smr_entry = std::vector<smr_command>;
using smr_entry_ptr = std::shared_ptr<const smr_entry>;

struct smr_options {
  /// Number of consensus groups the keyspace partitions across.
  std::size_t shards = 1;
  /// Follower patience before a view change, at view v:
  /// lease_duration + v · lease_backoff_unit (growing per view so correct
  /// processes eventually overlap in a view, as in consensus_options).
  sim_time lease_duration = 150000;    // 150 ms
  sim_time lease_backoff_unit = 50000; // 50 ms — the seed's C
  /// Leader keep-alive while idle (renews follower leases between
  /// batches).
  sim_time heartbeat_period = 50000;   // 50 ms
  /// Outstanding Phase-2 slots per shard (in-order commit).
  int pipeline_window = 4;
  /// Commands per log entry cap.
  std::size_t max_batch = 64;
  /// A submitter re-forwards a command to the (current) leader when it
  /// has not applied within this delay — the liveness path across leader
  /// failures. Dedup makes the retry safe.
  sim_time resubmit_timeout = 400000;  // 400 ms
  /// With a selector: delay before a phase round that still lacks quorum
  /// coverage falls back to full broadcast (targeted_round.hpp). 0
  /// disables escalation — ONLY for mutation tests.
  sim_time escalation_timeout = 40000; // 40 ms
  /// Strategy-targeted phase quorums, one selector per shard
  /// (strategy/shard_plan.hpp). Empty, or a null entry, keeps full
  /// broadcast.
  std::vector<selector_ptr> shard_selectors;
  /// Initial (view-1) leader per shard; defaults to shard mod n.
  std::vector<process_id> leaders;

  void validate() const;
};

/// Progress and wire-traffic counters of one replica.
struct smr_counters {
  std::uint64_t commands_submitted = 0;
  std::uint64_t commands_forwarded = 0;  ///< sent towards a remote leader
  std::uint64_t commands_applied = 0;    ///< applied to the state machine
  std::uint64_t commands_deduped = 0;    ///< duplicate commits skipped
  std::uint64_t entries_proposed = 0;    ///< Phase-2 rounds started here
  std::uint64_t entries_committed = 0;   ///< commit announcements sent
  std::uint64_t phase1_rounds = 0;
  std::uint64_t targeted_phase1 = 0;
  std::uint64_t targeted_phase2 = 0;
  std::uint64_t escalations = 0;
  std::uint64_t view_changes = 0;        ///< lease expiries observed here
  std::uint64_t heartbeats = 0;
  std::uint64_t retries = 0;             ///< commands re-forwarded

  /// Every field, once (metrics_registry::observe_counters reads it).
  template <class F>
  static void for_each_counter(F&& f) {
    f("commands_submitted", &smr_counters::commands_submitted);
    f("commands_forwarded", &smr_counters::commands_forwarded);
    f("commands_applied", &smr_counters::commands_applied);
    f("commands_deduped", &smr_counters::commands_deduped);
    f("entries_proposed", &smr_counters::entries_proposed);
    f("entries_committed", &smr_counters::entries_committed);
    f("phase1_rounds", &smr_counters::phase1_rounds);
    f("targeted_phase1", &smr_counters::targeted_phase1);
    f("targeted_phase2", &smr_counters::targeted_phase2);
    f("escalations", &smr_counters::escalations);
    f("view_changes", &smr_counters::view_changes);
    f("heartbeats", &smr_counters::heartbeats);
    f("retries", &smr_counters::retries);
  }
};

/// The sharded SMR engine at one process (host under single_host).
class smr_service : public component {
 public:
  using write_callback = std::function<void(reg_version)>;
  using read_callback = std::function<void(reg_value, reg_version)>;

  smr_service(service_key keys, quorum_config config,
              smr_options options = {});

  /// Replicates `key ← value`; the callback fires with the installed
  /// version once THIS replica applies the command (its log position is
  /// the linearization point).
  void submit_write(service_key key, reg_value value, write_callback done);

  /// Replicates a read of `key` through the log (a read command); the
  /// callback fires with the state at the command's log position.
  void submit_read(service_key key, read_callback done);

  std::size_t shard_count() const noexcept { return options_.shards; }
  std::size_t shard_of(service_key key) const {
    check_key(key);
    return key % options_.shards;
  }
  process_id leader_of(std::size_t shard, std::uint64_t view) const;

  std::uint64_t view_of(std::size_t shard) const;
  /// The shard's log as known here: chosen entries per slot (null =
  /// undecided or not yet learned).
  const std::vector<smr_entry_ptr>& log(std::size_t shard) const;
  /// Contiguously applied prefix of the shard's log.
  std::uint64_t applied_prefix(std::size_t shard) const;

  /// The replicated state machine: freshest applied (value, version) of a
  /// key at this replica.
  const basic_reg_state<reg_value>& state_of(service_key key) const {
    check_key(key);
    return states_[key];
  }

  service_key key_count() const noexcept { return keys_; }
  const smr_counters& counters() const noexcept { return counters_; }

  /// How many targeted phase rounds sampled each process into their
  /// quorum (realized strategy load; empty in broadcast mode).
  const std::vector<std::uint64_t>& per_process_quorum_hits() const noexcept {
    return rounds_.hits();
  }

  /// Set iff this replica ever observed two different decisions for one
  /// slot — a safety violation (never fires; tests assert it stays
  /// empty).
  const std::optional<std::string>& safety_violation() const noexcept {
    return safety_violation_;
  }

  void start() override;
  void deliver(process_id origin, const message_ptr& payload) override;
  void on_timeout(int timer_id) override;

  // ---- wire format (public so tests can craft and inject messages) ----

  /// Wire cost of one log entry: its command batch, per-command.
  static std::size_t entry_wire_size(const smr_entry_ptr& e) {
    return e ? sizeof(smr_command) * e->size() : 0;
  }

  /// Commands forwarded to the shard leader (batched per instant).
  struct fwd_msg : message {
    std::uint32_t shard;
    std::vector<smr_command> cmds;
    fwd_msg(std::uint32_t s, std::vector<smr_command> c)
        : shard(s), cmds(std::move(c)) {}
    std::string debug_name() const override { return "SMR_FWD"; }
    std::size_t wire_size() const override {
      return 8 + sizeof(smr_command) * cmds.size();
    }
  };
  /// Phase 1: the view-v leader solicits promises over every slot ≥ its
  /// committed floor.
  struct p1a_msg : message {
    std::uint32_t shard;
    std::uint64_t view;
    std::uint64_t floor;
    p1a_msg(std::uint32_t s, std::uint64_t v, std::uint64_t f)
        : shard(s), view(v), floor(f) {}
    std::string debug_name() const override { return "SMR_1A"; }
    std::size_t wire_size() const override { return 24; }
  };
  /// One slot of a 1B report: either already chosen (decided value) or
  /// the acceptor's accepted pair.
  struct p1b_slot {
    std::uint64_t slot;
    bool chosen;
    accepted_rec<smr_entry_ptr> acc;
  };
  struct p1b_report {
    std::uint64_t floor = 0;
    std::vector<p1b_slot> slots;
  };
  struct p1b_msg : message {
    std::uint32_t shard;
    std::uint64_t view;
    p1b_report report;
    p1b_msg(std::uint32_t s, std::uint64_t v, p1b_report r)
        : shard(s), view(v), report(std::move(r)) {}
    std::string debug_name() const override { return "SMR_1B"; }
    std::size_t wire_size() const override {
      std::size_t bytes = 24;
      for (const p1b_slot& s : report.slots)
        bytes += 32 + (s.acc.val ? entry_wire_size(*s.acc.val) : 0);
      return bytes;
    }
  };
  struct p2a_msg : message {
    std::uint32_t shard;
    std::uint64_t view;
    std::uint64_t slot;
    smr_entry_ptr entry;
    p2a_msg(std::uint32_t s, std::uint64_t v, std::uint64_t sl,
            smr_entry_ptr e)
        : shard(s), view(v), slot(sl), entry(std::move(e)) {}
    std::string debug_name() const override { return "SMR_2A"; }
    std::size_t wire_size() const override {
      return 24 + entry_wire_size(entry);
    }
  };
  struct p2b_msg : message {
    std::uint32_t shard;
    std::uint64_t view;
    std::uint64_t slot;
    p2b_msg(std::uint32_t s, std::uint64_t v, std::uint64_t sl)
        : shard(s), view(v), slot(sl) {}
    std::string debug_name() const override { return "SMR_2B"; }
    std::size_t wire_size() const override { return 24; }
  };
  /// In-order commit announcement (doubles as lease renewal).
  struct commit_msg : message {
    std::uint32_t shard;
    std::uint64_t view;
    std::uint64_t slot;
    smr_entry_ptr entry;
    commit_msg(std::uint32_t s, std::uint64_t v, std::uint64_t sl,
               smr_entry_ptr e)
        : shard(s), view(v), slot(sl), entry(std::move(e)) {}
    std::string debug_name() const override { return "SMR_COMMIT"; }
    std::size_t wire_size() const override {
      return 24 + entry_wire_size(entry);
    }
  };
  /// Leader keep-alive between batches.
  struct hb_msg : message {
    std::uint32_t shard;
    std::uint64_t view;
    std::uint64_t floor;
    hb_msg(std::uint32_t s, std::uint64_t v, std::uint64_t f)
        : shard(s), view(v), floor(f) {}
    std::string debug_name() const override { return "SMR_HB"; }
    std::size_t wire_size() const override { return 24; }
  };

 private:
  /// One Phase-2 round in flight at the leader.
  struct inflight_round {
    smr_entry_ptr entry;
    quorum_cover_tracker acks;
    targeted_round::handle round = targeted_round::none;
  };

  /// A command submitted here, until this replica applies it.
  struct pending_cmd {
    smr_command cmd;
    sim_time issued_at = 0;
    write_callback wdone;
    read_callback rdone;
    span_ref span;  ///< "smr.submit", open until applied here
  };

  /// Per-shard protocol state at this replica.
  struct shard_state {
    std::uint64_t view = 1;
    // -- acceptor --
    std::uint64_t promised = 0;  ///< shard-wide promise (covers all slots)
    std::map<std::uint64_t, accepted_rec<smr_entry_ptr>> accepted;
    // -- learner --
    std::vector<smr_entry_ptr> chosen;  ///< the log (indexed by slot)
    std::uint64_t applied = 0;          ///< contiguous applied prefix
    std::vector<sequence_filter> applied_seqs;  ///< per-submitter dedup
    // -- leader --
    bool leading = false;
    bool phase1_inflight = false;
    targeted_round::handle phase1_round = targeted_round::none;
    quorum_response_collector<p1b_report> p1bs;
    std::uint64_t next_slot = 0;    ///< next slot to propose into
    std::uint64_t commit_sent = 0;  ///< commits announced while leading
    std::map<std::uint64_t, inflight_round> inflight;
    std::deque<smr_command> staged;      ///< awaiting a batch (I lead)
    std::deque<smr_command> fwd_staged;  ///< awaiting a forward
    // -- client --
    std::map<std::uint32_t, pending_cmd> pending;  ///< by submit_seq
    std::uint32_t next_seq = 0;
    // -- timers --
    sim_time leader_activity = 0;  ///< lazily-checked lease renewal
    bool lease_armed = false;      ///< one outstanding lease timer
    bool dirty = false;  ///< staged/fwd_staged non-empty this instant
    // -- tracing (populated only while a trace is recorded) --
    span_ref phase1_span;                         ///< open "smr.phase1"
    std::map<std::uint64_t, span_ref> slot_spans;  ///< root "smr.slot"
    std::map<std::uint64_t, span_ref> phase2_spans;  ///< "smr.phase2" child
  };

  struct timer_ref {
    enum class kind_t { lease, heartbeat } kind;
    std::uint32_t shard;
  };

  void check_key(service_key key) const {
    if (key >= keys_)
      throw std::out_of_range("smr_service: key out of range");
  }
  const shard_state& shard_at(std::size_t shard) const;

  sim_time lease_patience(const shard_state& ss) const {
    return options_.lease_duration +
           static_cast<sim_time>(ss.view) * options_.lease_backoff_unit;
  }

  void submit(smr_command cmd, pending_cmd rec);
  void route(std::uint32_t shard, const smr_command& cmd);
  void mark_dirty(std::uint32_t shard);
  void schedule_flush();
  void flush();
  void drain(std::uint32_t shard);

  void begin_phase1(std::uint32_t shard);
  void finish_phase1(std::uint32_t shard, const process_set& quorum);
  p1b_report make_report(const shard_state& ss, std::uint64_t floor) const;
  void begin_phase2(std::uint32_t shard, std::uint64_t slot,
                    smr_entry_ptr entry);
  void phase2_won(std::uint32_t shard, std::uint64_t slot);
  void announce_commits(std::uint32_t shard);

  void adopt_view(std::uint32_t shard, std::uint64_t view);
  void step_down(std::uint32_t shard);
  void arm_lease(std::uint32_t shard);
  void arm_heartbeat(std::uint32_t shard);
  void renew_lease(std::uint32_t shard);
  void lease_expired(std::uint32_t shard);

  void mark_chosen(std::uint32_t shard, std::uint64_t slot,
                   const smr_entry_ptr& entry);
  void apply_prefix(std::uint32_t shard);
  void apply_entry(std::uint32_t shard, const smr_entry& entry);

  void on_fwd(const fwd_msg& m);
  void on_p1a(process_id origin, const p1a_msg& m);
  void on_p1b(process_id origin, const p1b_msg& m);
  void on_p2a(process_id origin, const p2a_msg& m);
  void on_p2b(process_id origin, const p2b_msg& m);
  void on_commit(const commit_msg& m);
  void on_hb(const hb_msg& m);

  /// The quorum a phase round of `shard` targets; none without a selector.
  std::optional<process_set> draw(std::uint32_t shard, bool phase1);
  void retry_tick();

  /// Binds counters and probes onto the host's observability surface
  /// (no-op without one) and latches tracer_ when spans are recorded.
  void register_obs();

  service_key keys_;
  quorum_config config_;
  smr_options options_;

  std::vector<shard_state> shards_;
  std::vector<basic_reg_state<reg_value>> states_;  // the state machine
  std::vector<std::uint64_t> write_counts_;         // per-key versions
  std::vector<std::uint32_t> dirty_shards_;

  std::uint64_t sample_seq_ = 0;  ///< per-process selector stream cursor
  int flush_timer_ = -1;
  int retry_timer_ = -1;
  std::map<int, timer_ref> timers_;  ///< lease and heartbeat timers
  smr_counters counters_;
  targeted_round rounds_;
  trace_recorder* tracer_ = nullptr;  ///< non-null iff recording spans
  std::optional<std::string> safety_violation_;
};

/// Agreement across replicas: no slot of any shard chosen with two
/// different entries (the sharded analogue of check_log_agreement).
lincheck_result check_smr_agreement(
    const std::vector<const smr_service*>& replicas);

}  // namespace gqs
