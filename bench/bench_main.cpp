#include "bench_main.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "workload/stats.hpp"

namespace {

// Locale-independent double rendering: a comma-decimal global locale
// must not corrupt the JSON records.
using gqs::fmt_json_double;

// argv[0] -> "bench_fig1_gqs" (strip directories and a trailing extension).
std::string bench_name(const char* argv0) {
  std::filesystem::path p(argv0 ? argv0 : "bench_unknown");
  return p.stem().string();
}

// Minimal JSON string escaping so arbitrary exception text can't corrupt
// the record.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::filesystem::path out_dir() {
  if (const char* env = std::getenv("GQS_BENCH_OUT_DIR")) return env;
#ifdef GQS_BENCH_OUT_DEFAULT
  return GQS_BENCH_OUT_DEFAULT;
#else
  return "bench/out";
#endif
}

// Extra record fields attached by the bench via gqs_bench::record*.
// Values are stored pre-rendered as JSON.
std::vector<std::pair<std::string, std::string>>& extra_fields() {
  static std::vector<std::pair<std::string, std::string>> fields;
  return fields;
}

void set_field(const std::string& key, std::string rendered) {
  for (auto& [k, v] : extra_fields())
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  extra_fields().emplace_back(key, std::move(rendered));
}

}  // namespace

namespace gqs_bench {

void record(const std::string& key, double value) {
  set_field(key, fmt_json_double(value));
}

void record(const std::string& key, std::uint64_t value) {
  set_field(key, std::to_string(value));
}

void record(const std::string& key, const std::string& value) {
  set_field(key, "\"" + json_escape(value) + "\"");
}

void record_json(const std::string& key, const std::string& raw_json) {
  set_field(key, raw_json);
}

}  // namespace gqs_bench

int main(int, char** argv) {
  const std::string name = bench_name(argv[0]);

  const auto start = std::chrono::steady_clock::now();
  int exit_code = 0;
  std::string error;
  try {
    exit_code = bench_entry();
  } catch (const std::exception& e) {
    exit_code = 1;
    error = e.what();
  } catch (...) {
    exit_code = 1;
    error = "unknown exception";
  }
  const auto stop = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  std::error_code ec;
  const std::filesystem::path dir = out_dir();
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path record = dir / (name + ".json");
  std::ofstream out(record);
  if (out) {
    out << "{\n"
        << "  \"bench\": \"" << name << "\",\n"
        << "  \"wall_ms\": " << fmt_json_double(wall_ms) << ",\n"
        << "  \"exit_code\": " << exit_code;
    if (!error.empty())
      out << ",\n  \"error\": \"" << json_escape(error) << "\"";
    for (const auto& [key, rendered] : extra_fields())
      out << ",\n  \"" << json_escape(key) << "\": " << rendered;
    out << "\n}\n";
  } else {
    std::cerr << name << ": cannot write " << record << "\n";
  }

  if (!error.empty()) std::cerr << name << ": " << error << "\n";
  std::cerr << name << ": " << wall_ms << " ms, record in " << record << "\n";
  return exit_code;
}
