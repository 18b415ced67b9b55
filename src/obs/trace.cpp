#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace gqs {

span_ref trace_recorder::begin_span(std::string name, std::string category,
                                    process_id process, span_ref parent,
                                    sim_time at) {
  if (!recording_) return {};
  span_rec rec;
  rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
  rec.parent = parent.trace == trace_id_ ? parent.id : 0;
  rec.process = process;
  rec.start = at;
  rec.end = -1;
  rec.name = std::move(name);
  rec.category = std::move(category);
  spans_.push_back(std::move(rec));
  return {trace_id_, spans_.back().id};
}

void trace_recorder::end_span(span_ref s, sim_time at) {
  if (!recording_ || s.trace != trace_id_ || s.id == 0 ||
      s.id > spans_.size())
    return;
  span_rec& rec = spans_[s.id - 1];
  if (rec.open()) rec.end = std::max(rec.start, at);
}

span_ref trace_recorder::leaf(std::string name, std::string category,
                              process_id process, span_ref parent,
                              sim_time at) {
  return span(std::move(name), std::move(category), process, parent, at, at);
}

span_ref trace_recorder::span(std::string name, std::string category,
                              process_id process, span_ref parent,
                              sim_time start, sim_time end) {
  span_ref s =
      begin_span(std::move(name), std::move(category), process, parent, start);
  end_span(s, end);
  return s;
}

void trace_recorder::finalize(sim_time at) {
  // Children always carry a higher id than their parent (they are created
  // later), so one reverse pass settles every subtree bottom-up: close any
  // still-open span, then widen its parent to cover it.
  for (std::size_t i = spans_.size(); i-- > 0;) {
    span_rec& rec = spans_[i];
    if (rec.open()) rec.end = std::max(rec.start, at);
    if (rec.parent != 0) {
      span_rec& parent = spans_[rec.parent - 1];
      if (parent.open() || parent.end < rec.end) parent.end = rec.end;
      // A stamped message can only be created inside its parent span, so
      // starts already nest; guard anyway for defensive containment.
      if (parent.start > rec.start) parent.start = rec.start;
    }
  }
}

std::string trace_recorder::chrome_json() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const span_rec& rec : spans_) {
    if (!first) out << ",";
    first = false;
    const sim_time dur = rec.end >= rec.start ? rec.end - rec.start : 0;
    out << "{\"name\":\"" << rec.name << "\",\"cat\":\"" << rec.category
        << "\",\"ph\":\"X\",\"ts\":" << rec.start << ",\"dur\":" << dur
        << ",\"pid\":1,\"tid\":" << rec.process << ",\"args\":{\"span\":"
        << rec.id << ",\"parent\":" << rec.parent << "}}";
  }
  out << "]}";
  return out.str();
}

bool trace_recorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_json();
  return static_cast<bool>(out);
}

}  // namespace gqs
