// trace.hpp — causal operation tracing for the simulator.
//
// Causal spans: named intervals of simulated time with a parent link
// (`span_ref` = trace id + span id), opened and closed by the protocol
// layers (quorum_service flush groups, smr_service phase/commit rounds,
// the channel layer's queueing/serialization) and carried across
// processes ON the messages themselves (message::trace_span, copied into
// flooding envelopes), so a receiver attaches its work to the sender's
// span. The simulator adds one "net"-category leaf per
// network event (net.send / net.deliver / net.drop_channel /
// net.drop_crashed / net.timer), attached to the
// message's span when it was stamped. The recorder's output is Chrome
// trace-event JSON ("X" complete events, microsecond timestamps),
// loadable directly in Perfetto.
//
// Span ids are plain counters, so a recorded trace is a pure function of
// the run: bit-identical across repeats and runner thread counts.
//
// Well-formedness contract (finalize()): every span's parent exists and
// was opened no later than the child; finalize() closes still-open spans
// and widens each parent to cover its children ("a span covers its causal
// children"), so exported traces always nest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace gqs {

using process_id = std::uint32_t;  // matches graph/process_set.hpp

/// Reference to a span: carried on messages so receivers can attach their
/// work to the sender's causal context. id 0 = "no span".
struct span_ref {
  std::uint32_t trace = 0;  ///< recorder instance (one per simulation)
  std::uint32_t id = 0;     ///< span within the trace; 0 = null

  bool valid() const noexcept { return id != 0; }
  bool operator==(const span_ref&) const = default;
};

/// One recorded span: a named interval of simulated time at one process,
/// optionally nested under a parent span.
struct span_rec {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  process_id process = 0;
  sim_time start = 0;
  sim_time end = -1;  ///< -1 while open; finalize() closes leftovers
  std::string name;
  std::string category;  ///< layer tag: "net", "svc", "smr", ...

  bool open() const noexcept { return end < start; }
  bool operator==(const span_rec&) const = default;
};

/// Span recorder of one simulation.
class trace_recorder {
 public:
  /// The simulator's single hot-path guard for network-event leaves.
  bool recording() const noexcept { return recording_; }
  void start_recording() noexcept { recording_ = true; }

  std::uint32_t trace_id() const noexcept { return trace_id_; }

  /// Opens a span at `at`. No-op (returns a null ref) when not recording.
  span_ref begin_span(std::string name, std::string category,
                      process_id process, span_ref parent, sim_time at);

  /// Closes span `s` at `at` (ignored for null refs / foreign traces).
  void end_span(span_ref s, sim_time at);

  /// Records an instantaneous leaf event (a zero-length span).
  span_ref leaf(std::string name, std::string category, process_id process,
                span_ref parent, sim_time at);

  /// Convenience: a span already known to cover [start, end].
  span_ref span(std::string name, std::string category, process_id process,
                span_ref parent, sim_time start, sim_time end);

  /// Closes every still-open span (at `at`, or at its latest child) and
  /// widens parents to cover their children. Call once, after the run.
  void finalize(sim_time at);

  const std::vector<span_rec>& spans() const noexcept { return spans_; }

  /// Renders all recorded spans as Chrome trace-event JSON (an object
  /// with a "traceEvents" array of "X" events; ts/dur in microseconds).
  std::string chrome_json() const;

  /// chrome_json() to a file; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool recording_ = false;
  std::uint32_t trace_id_ = 1;
  std::vector<span_rec> spans_;  // spans_[id - 1]
};

}  // namespace gqs
