// gqs_bench — runs one benchmark workload and prints one JSON line.
//
//   gqs_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke]
//
// --trace 0 repeats the fixed-size round of the workload until S seconds
// have passed (at least three rounds) and reports the end-to-end metrics:
// the median round throughput, the median over twelve or more set-ups,
// and the peak RSS after the first round. Every round must reproduce the
// first bit for bit — except in distinct-round workloads, whose rounds
// draw fresh inputs and whose throughput is the total over all rounds.
//
// --trace 1 runs one untraced round for the deterministic per-layer
// counts and one span-recording run of the workload's smaller slice for
// the simulated-time span metrics, then alternates an untraced and a
// timed run of the slice until S seconds have passed; the median host
// split of the timed runs is reported. Every instrumented slice must
// reproduce the untraced one exactly: instrumentation is read-only.
//
// --smoke shrinks every input to about 1% and runs a single round/pair.
// The exit code is 0 iff every correctness gate passed.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace bench {

seeds seeds::from(std::uint64_t seed) {
  seeds s;
  s.sim = splitmix64(seed ^ 0x51u);
  s.workload = splitmix64(seed ^ 0x57u);
  s.selector = splitmix64(seed ^ 0x5eu);
  s.corpus = splitmix64(seed ^ 0xc0u);
  return s;
}

// Sizes: a full round takes 1-6 s on one core of a 2-core x86-64
// container; slices are the traced sizes; smoke is ~1% of the round.
//   fig1      ops per U_f client (a and b)
//   targeted  ops per process (8 processes)
//   smr       commands per process (8 processes)
//   corpus    seeds per topology family (42 families)
const std::vector<workload_def>& workloads() {
  static const std::vector<workload_def> table = {
      {"svc-fig1-f1", run_fig1, 2500, 500, 50},
      {"svc-n8-targeted", run_targeted, 40000, 2500, 2500},
      {"smr-n8-congested", run_smr, 30000, 2500, 1800},
      {"plan-corpus", run_corpus, 8, 5, 1, true},
  };
  return table;
}

}  // namespace bench

namespace {

using namespace bench;
using steady = std::chrono::steady_clock;

struct cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "gqs_bench: " << why
            << "\nusage: gqs_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\n";
  std::exit(2);
}

cli parse(int argc, char** argv) {
  cli c;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") c.workload = value();
      else if (arg == "--seed") c.seed = std::stoull(value());
      else if (arg == "--seconds") c.seconds = std::stod(value());
      else if (arg == "--trace") c.trace = std::stoi(value());
      else if (arg == "--smoke") c.smoke = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (c.trace != 0 && c.trace != 1) usage("--trace must be 0 or 1");
  if (!(c.seconds >= 0)) usage("--seconds must be >= 0");
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double elapsed(steady::time_point t) {
  return std::chrono::duration<double>(steady::now() - t).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0);
    out += '"';
    out += name;
    out += "\": ";
    out += buf;
  }
  return out + "}";
}

struct report {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int passes = 0;
  std::map<std::string, double> metrics;
  /// Values that are a pure function of (workload, seed): compared across
  /// repeated runs by run.py --repeat.
  std::map<std::string, double> deterministic;
  std::string digest;

  void check(const pass_result& p) {
    if (!p.ok && correct) {
      correct = false;
      why = p.why;
    }
  }
  void mismatch(const std::string& what) {
    if (correct) why = what;
    correct = false;
  }
};

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024;
}

void run_rounds(const workload_def& w, const cli& c, report& out) {
  pass_config cfg{seeds::from(c.seed), c.smoke ? w.smoke : w.full};
  const int min_rounds = c.smoke ? 1 : 3;
  std::vector<double> rates, setups;
  double ops = 0, wall = 0;
  pass_result first;
  const steady::time_point begin = steady::now();
  do {
    cfg.round = w.distinct_rounds ? static_cast<std::uint64_t>(out.passes) : 0;
    pass_result p = w.run(cfg);
    out.check(p);
    out.attempted += p.attempted;
    out.failed += p.failed;
    if (out.passes == 0) {
      first = p;
      // Later rounds only add heap fragmentation, whose growth would make
      // the peak depend on how many rounds fit in --seconds.
      out.metrics["peak_rss_mb"] = peak_rss_mb();
    } else if (!w.distinct_rounds &&
               (p.digest != first.digest || p.counts != first.counts)) {
      out.mismatch("round " + std::to_string(out.passes) +
                   " diverged from round 0 under the same seed");
    }
    ++out.passes;
    rates.push_back(p.wall_s > 0 ? static_cast<double>(p.completed) / p.wall_s
                                 : 0);
    ops += static_cast<double>(p.completed);
    wall += p.wall_s;
    setups.push_back(p.setup_s);
    if (!out.correct) break;
  } while (out.passes < min_rounds ||
           (!c.smoke && elapsed(begin) < c.seconds));

  // More set-ups than rounds: a set-up can take well under a millisecond,
  // so its median needs many samples to hold from one run to the next.
  cfg.setup_only = true;
  for (int i = 0; i < (c.smoke ? 0 : 9) && out.correct; ++i) {
    cfg.round = w.distinct_rounds ? cfg.round + 1 : 0;
    setups.push_back(w.run(cfg).setup_s);
  }

  // Repeated rounds: the median round resists host hiccups. Distinct
  // rounds differ in cost, so only the total rate weighs each input fairly.
  out.metrics["ops_per_s"] =
      w.distinct_rounds ? (wall > 0 ? ops / wall : 0) : median(rates);
  out.metrics["setup_s"] = median(setups);
  out.deterministic = first.counts;
  out.digest = hex(first.digest);
}

/// Instrumentation must be read-only: same history, same simulation.
void same_run(const pass_result& plain, const pass_result& instrumented,
              const char* what, report& out) {
  out.check(instrumented);
  if (plain.digest != instrumented.digest || !(plain.sim == instrumented.sim) ||
      plain.counts != instrumented.counts)
    out.mismatch(std::string("the ") + what +
                 " slice diverged from the untraced slice");
}

void run_traced(const workload_def& w, const cli& c, report& out) {
  const seeds s = seeds::from(c.seed);
  const steady::time_point begin = steady::now();
  const pass_result full = w.run(pass_config{s, c.smoke ? w.smoke : w.full});
  out.check(full);
  out.attempted = full.attempted;
  out.failed = full.failed;

  const pass_config slice{s, c.smoke ? w.smoke : w.slice};
  pass_config spans_cfg = slice;
  spans_cfg.spans = true;
  const pass_result spans = w.run(spans_cfg);
  out.passes = 2;

  std::vector<double> overhead, layer_sum;
  std::array<std::vector<double>, kLayers> self_per_op;
  std::vector<double> plan_s;
  do {
    const pass_result u = w.run(slice);
    out.check(u);
    layer_clock clock;
    pass_config timed_cfg = slice;
    timed_cfg.clock = &clock;
    const pass_result t = w.run(timed_cfg);
    same_run(u, t, "timed", out);
    same_run(u, spans, "span-recording", out);
    out.passes += 2;
    if (!out.correct) break;

    overhead.push_back(u.wall_s > 0 ? t.wall_s / u.wall_s : 0);
    double sum = 0;
    for (std::size_t l = 0; l < kLayers; ++l) {
      sum += t.self_s[l];
      self_per_op[l].push_back(t.self_s[l] / static_cast<double>(t.completed));
    }
    layer_sum.push_back(t.wall_s > 0 ? sum / t.wall_s : 0);
    plan_s.push_back(t.plan_s);
  } while (!c.smoke && elapsed(begin) < c.seconds);

  auto host = [&](layer l, double scale) {
    return median(self_per_op[static_cast<std::size_t>(l)]) * scale;
  };
  out.deterministic = full.counts;
  for (const auto& [name, value] : spans.spans)
    out.deterministic[name] = value;
  out.digest = hex(full.digest) + "/" + hex(spans.digest);

  out.metrics = out.deterministic;
  out.metrics["sim.host_us_per_op"] = host(layer::sim, 1e6);
  out.metrics["quorum.host_us_per_op"] = host(layer::quorum, 1e6);
  out.metrics["smr.host_us_per_op"] = host(layer::smr, 1e6);
  out.metrics["workload.host_us_per_op"] = host(layer::workload, 1e6);
  out.metrics["lincheck.host_us_per_op"] = host(layer::lincheck, 1e6);
  out.metrics["core.solve_ms_per_inst"] = host(layer::solve, 1e3);
  out.metrics["core.verify_ms_per_inst"] = host(layer::verify, 1e3);
  // Exactly one term is nonzero: the corpus plans per instance inside the
  // measured phase, the simulated workloads plan once during set-up.
  out.metrics["strategy.plan_ms_per_inst"] =
      host(layer::plan, 1e3) + median(plan_s) * 1e3;
  out.metrics["trace.overhead"] = median(overhead);
  out.metrics["trace.layer_sum_ratio"] = median(layer_sum);
}

}  // namespace

int main(int argc, char** argv) {
  const cli c = parse(argc, argv);
  const workload_def* w = nullptr;
  for (const workload_def& d : workloads())
    if (c.workload == d.name) w = &d;
  if (!w) usage("unknown workload '" + c.workload + "'");

  report out;
  try {
    if (c.trace == 0)
      run_rounds(*w, c, out);
    else
      run_traced(*w, c, out);
  } catch (const std::exception& e) {
    out.mismatch(std::string("exception: ") + e.what());
  }

  std::cout << "{\"workload\": \"" << w->name << "\", \"correct\": "
            << (out.correct ? "true" : "false") << ", \"why\": \""
            << json_escape(out.why) << "\", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"passes\": " << out.passes
            << ", \"digest\": \"" << out.digest
            << "\", \"metrics\": " << json_object(out.metrics)
            << ", \"deterministic\": " << json_object(out.deterministic)
            << "}" << std::endl;
  return out.correct ? 0 : 1;
}
