// snapshot.hpp — SWMR atomic snapshots from MWMR atomic registers.
//
// Theorem 1 obtains the snapshot upper bound by construction: "atomic
// snapshots can be constructed from atomic registers [2]" (Afek, Attiya,
// Dolev, Gafni, Merritt, Shavit 1993). This module implements the classic
// unbounded-register version of that construction:
//
//   * One register per segment; process i is the sole writer of segment i.
//     Each register holds a cell (value, seq, embedded_scan).
//   * scan(): repeatedly collect all segments. If two consecutive collects
//     show no seq change anywhere, the direct values form an atomic
//     snapshot. Otherwise, a writer observed to move *twice* since the
//     scan began must have embedded a scan taken entirely within our
//     interval — borrow it.
//   * update(x): take a scan, then write (x, seq+1, scan) to own segment.
//
// Every register operation is a full Figure 4 two-phase operation over the
// quorum access functions, so the snapshot inherits (F, τ)-wait-freedom
// within U_f: a scan performs at most n+2 collects (after n+1 of them some
// writer moved twice by pigeonhole).
//
// The segment registers are keys of one multi-object quorum service
// (keyed_register over quorum_service): all n segments share a single
// engine per process — one gossip stream carrying a dirty-key batch
// instead of the seed's n per-segment broadcast streams, and collects
// coalesce into single batched wire messages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "register/keyed_register.hpp"
#include "sim/transport.hpp"

namespace gqs {

/// A snapshot segment cell: the stored application value, the writer's
/// write counter, and the scan embedded by the write.
template <class V>
struct snapshot_cell {
  V value{};
  std::uint64_t seq = 0;          ///< 0 = never written
  std::vector<V> embedded_scan;   ///< scan taken just before the write

  friend bool operator==(const snapshot_cell&,
                         const snapshot_cell&) = default;
};

/// SWMR atomic snapshot object over values of type V.
///
/// The underlying keyed register runs the generalized (Figure 3) access
/// functions, so the snapshot works under any fail-prone system admitting
/// a GQS, with wait-freedom inside U_f. The options are the engine's own
/// (service_options), passed through whole: a selector targets the
/// segments' shared engine.
template <class V>
class snapshot_node : public single_host {
 public:
  using cell = snapshot_cell<V>;
  using register_service = keyed_register<cell>;
  using scan_callback = std::function<void(std::vector<V>)>;
  using update_callback = std::function<void()>;

  snapshot_node(process_id segments, quorum_config config,
                service_options options = {})
      : single_host(std::make_unique<register_service>(
            segments, std::move(config), std::move(options))),
        segments_(segments),
        registers_(&as<register_service>()) {}

  /// Writes x into this process's segment (process i owns segment i).
  void update(V x, update_callback done) {
    scan([this, x = std::move(x), done = std::move(done)](
             std::vector<V> embedded) {
      const cell c{std::move(x), ++write_seq_, std::move(embedded)};
      registers_->write(id(), c, [done](reg_version) { done(); });
    });
  }

  /// Takes an atomic snapshot of all segments.
  void scan(scan_callback done) {
    auto op = std::make_shared<scan_state>();
    op->done = std::move(done);
    op->moved.assign(segments_, 0);
    scan_round(std::move(op));
  }

  process_id segment_count() const noexcept { return segments_; }

  /// The shared engine beneath the segments (counters, clocks).
  const register_service& service() const noexcept { return *registers_; }

 private:
  struct scan_state {
    scan_callback done;
    std::vector<cell> previous;
    bool have_previous = false;
    std::vector<int> moved;
  };

  void scan_round(std::shared_ptr<scan_state> op) {
    collect([this, op](std::vector<cell> current) {
      if (op->have_previous) {
        bool clean = true;
        for (process_id j = 0; j < segments_; ++j) {
          if (op->previous[j].seq == current[j].seq) continue;
          clean = false;
          if (++op->moved[j] >= 2) {
            // The writer of segment j completed two writes inside our
            // interval; its second embedded scan was taken inside it too.
            op->done(current[j].embedded_scan);
            return;
          }
        }
        if (clean) {
          // Successful double collect: direct snapshot.
          std::vector<V> values;
          values.reserve(segments_);
          for (const cell& c : current) values.push_back(c.value);
          op->done(std::move(values));
          return;
        }
      }
      op->previous = std::move(current);
      op->have_previous = true;
      scan_round(op);
    });
  }

  /// Reads all segment registers concurrently (a "collect" — not atomic by
  /// itself, which is the whole point of the double-collect machinery).
  /// The reads are issued in one instant, so the service coalesces them
  /// into one batched round on the wire.
  void collect(std::function<void(std::vector<cell>)> done) {
    struct collect_state {
      std::vector<cell> cells;
      process_id remaining;
      std::function<void(std::vector<cell>)> done;
    };
    auto st = std::make_shared<collect_state>();
    st->cells.resize(segments_);
    st->remaining = segments_;
    st->done = std::move(done);
    for (process_id j = 0; j < segments_; ++j)
      registers_->read(j, [st, j](cell c, reg_version) {
        st->cells[j] = std::move(c);
        if (--st->remaining == 0) st->done(std::move(st->cells));
      });
  }

  process_id segments_;
  std::uint64_t write_seq_ = 0;
  register_service* registers_;
};

}  // namespace gqs
