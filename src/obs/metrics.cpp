#include "obs/metrics.hpp"

#include <map>

namespace gqs {

// ---- metrics_registry ----

metrics_snapshot metrics_registry::snapshot() const {
  // std::map iteration is name-sorted, so rows come out in canonical order.
  std::map<std::string, std::uint64_t> acc;
  for (const auto& [name, cell] : cells_) acc[name] += *cell;
  metrics_snapshot snap;
  snap.rows.reserve(acc.size());
  for (const auto& [name, value] : acc) snap.rows.push_back({name, value});
  return snap;
}

// ---- metrics_snapshot ----

void metrics_snapshot::merge(const metrics_snapshot& other) {
  std::vector<metric_row> out;
  out.reserve(rows.size() + other.rows.size());
  auto a = rows.begin();
  auto b = other.rows.begin();
  while (a != rows.end() || b != other.rows.end()) {
    if (b == other.rows.end() || (a != rows.end() && a->name < b->name)) {
      out.push_back(std::move(*a++));
    } else if (a == rows.end() || b->name < a->name) {
      out.push_back(*b++);
    } else {
      metric_row merged = std::move(*a++);
      merged.value += b++->value;
      out.push_back(std::move(merged));
    }
  }
  rows = std::move(out);
}

std::uint64_t metrics_snapshot::counter_value(const std::string& name) const {
  for (const metric_row& r : rows)
    if (r.name == name) return r.value;
  return 0;
}

std::uint64_t metrics_snapshot::digest() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix_byte = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const metric_row& r : rows) {
    for (const char c : r.name) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0xff);  // terminator so "ab","c" != "a","bc"
    for (int i = 0; i < 8; ++i) mix_byte((r.value >> (i * 8)) & 0xff);
  }
  return h;
}

std::string metrics_snapshot::to_json() const {
  if (rows.empty()) return "{}";
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += rows[i].name;
    out += "\":";
    out += std::to_string(rows[i].value);
  }
  out += "}}";
  return out;
}

}  // namespace gqs
