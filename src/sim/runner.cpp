#include "sim/runner.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace gqs {

run_aggregate aggregate(const std::vector<run_result>& results) {
  run_aggregate a;
  sample_accumulator latencies;
  sample_accumulator link_bytes;
  for (const run_result& r : results) {
    ++a.runs;
    if (!r.ok) ++a.failed;
    a.totals += r.metrics;
    a.obs.merge(r.obs);
    a.wall_ms += r.wall_ms;
    latencies.add(r.latencies_us);
    link_bytes.add(r.link_bytes);
  }
  a.latency_us = latencies.summary();
  a.link_bytes = link_bytes.summary();
  if (a.wall_ms > 0)
    a.events_per_sec = static_cast<double>(a.totals.events_processed) /
                       (a.wall_ms / 1000.0);
  return a;
}

std::string to_json(const run_aggregate& a) {
  // Integers are locale-proof; every double goes through fmt_json_double
  // so a comma-decimal global locale cannot corrupt the record. mean/max
  // ride alongside the percentiles — load-imbalance records (max/mean
  // per-process load) need both ends of the sample.
  std::ostringstream out;
  out << "{\"runs\": " << a.runs << ", \"failed\": " << a.failed
      << ", \"events\": " << a.totals.events_processed
      << ", \"messages_sent\": " << a.totals.messages_sent
      << ", \"messages_delivered\": " << a.totals.messages_delivered
      << ", \"latency_us\": {\"count\": " << a.latency_us.count
      << ", \"mean\": " << fmt_json_double(a.latency_us.mean)
      << ", \"p50\": " << fmt_json_double(a.latency_us.p50)
      << ", \"p95\": " << fmt_json_double(a.latency_us.p95)
      << ", \"p99\": " << fmt_json_double(a.latency_us.p99)
      << ", \"min\": " << fmt_json_double(a.latency_us.min)
      << ", \"max\": " << fmt_json_double(a.latency_us.max) << "}"
      << ", \"bytes_sent\": " << a.totals.bytes_sent
      << ", \"bytes_delivered\": " << a.totals.bytes_delivered
      << ", \"dropped_queue_full\": " << a.totals.dropped_queue_full
      << ", \"max_link_queue_depth\": " << a.totals.max_link_queue_depth
      << ", \"link_bytes\": {\"count\": " << a.link_bytes.count
      << ", \"mean\": " << fmt_json_double(a.link_bytes.mean)
      << ", \"p99\": " << fmt_json_double(a.link_bytes.p99)
      << ", \"max\": " << fmt_json_double(a.link_bytes.max) << "}"
      << ", \"wall_ms\": " << fmt_json_double(a.wall_ms)
      << ", \"events_per_sec\": " << fmt_json_double(a.events_per_sec);
  if (!a.obs.empty()) out << ", \"obs\": " << a.obs.to_json();
  out << "}";
  return out.str();
}

namespace {

/// The first field (wall_ms aside) in which two results differ, or
/// nullptr when they agree.
const char* first_difference(const run_result& a, const run_result& b) {
  if (a.ok != b.ok) return "ok";
  if (a.error != b.error) return "error";
  if (a.metrics != b.metrics) return "metrics";
  if (a.sim_end != b.sim_end) return "sim_end";
  if (a.latencies_us != b.latencies_us) return "latencies_us";
  if (a.link_bytes != b.link_bytes) return "link_bytes";
  if (a.stats != b.stats) return "stats";
  if (a.obs != b.obs) return "obs";
  if (a.series != b.series) return "series";
  return nullptr;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

determinism_report check_determinism(
    const std::vector<run_spec>& specs,
    const std::vector<unsigned>& thread_counts) {
  determinism_report report;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const unsigned threads = thread_counts[t];
    std::vector<run_result> results =
        experiment_runner(threads).run_all(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::ostringstream why;
      const char* field = nullptr;
      if (!results[i].ok)
        why << " failed at " << threads
            << " runner threads: " << results[i].error;
      else if (t > 0 &&
               (field = first_difference(report.results[i], results[i])))
        why << " differs between " << thread_counts[0] << " and " << threads
            << " runner threads (" << field << ")";
      else
        continue;
      report.error = "cell " + specs[i].label + why.str();
      return report;
    }
    if (t == 0) report.results = std::move(results);
  }
  return report;
}

std::uint64_t grid_seed(std::uint64_t base, std::size_t config,
                        std::size_t plan, std::size_t rep) {
  return splitmix64(splitmix64(splitmix64(base ^ config) ^ plan) ^ rep);
}

std::optional<std::uint64_t> env_count(const char* name, std::uint64_t max) {
  const char* env = std::getenv(name);
  if (!env || *env == '\0') return std::nullopt;
  const std::string_view text(env);
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value > max) {
    std::string what(name);
    what += "=\"";
    what += text;
    what += "\" is not a count in [0, ";
    what += std::to_string(max);
    what += "]";
    throw std::invalid_argument(what);
  }
  return value;
}

experiment_runner::experiment_runner(unsigned threads) : threads_(threads) {
  if (threads_ == 0)
    threads_ = static_cast<unsigned>(
        env_count("GQS_RUNNER_THREADS", std::numeric_limits<unsigned>::max())
            .value_or(0));
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

std::vector<run_result> experiment_runner::run_all(
    const std::vector<run_spec>& specs) const {
  std::vector<run_result> results(specs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      const auto begin = std::chrono::steady_clock::now();
      run_result r;
      try {
        r = specs[i].run();
      } catch (const std::exception& e) {
        r = run_result{};
        r.ok = false;
        r.error = e.what();
      } catch (...) {
        r = run_result{};
        r.ok = false;
        r.error = "unknown exception";
      }
      const auto end = std::chrono::steady_clock::now();
      r.wall_ms =
          std::chrono::duration<double, std::milli>(end - begin).count();
      results[i] = std::move(r);
    }
  };

  const std::size_t pool =
      std::min<std::size_t>(threads_, specs.size() ? specs.size() : 1);
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) workers.emplace_back(worker);
    for (std::thread& w : workers) w.join();
  }
  return results;
}

}  // namespace gqs
