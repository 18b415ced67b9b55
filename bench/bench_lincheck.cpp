// bench_lincheck — the white-box dependency-graph checker vs the faithful
// Wing–Gong baseline, plus its million-op batch/streaming/keyed rates.
//
// Head-to-head: a corpus of Wing–Gong-sized (≤64 op) synthetic histories
// — half valid, half carrying an injected stale read, the mix a test
// harness actually sees — is checked by both engines: the seed's memoized
// Wing–Gong search (lincheck/wing_gong.cpp, the black-box exhaustive
// checker) and the new history_checker (sparse Appendix-B dependency
// graph + Pearce–Kelly). Both verdicts must agree on every history before
// any timing is reported. Valid histories are where Wing–Gong looks good
// (the forced witness is found greedily); non-linearizable ones are where
// its exponential nature bites, because refusal means exhausting the
// memoized search space. The acceptance bar is checker ≥ 24× Wing–Gong
// checked-ops/sec over the mixed corpus (`lincheck_speedup`); the bench
// exits 1 below it.
//
// Scale: one million-op history is checked in batch mode
// (`checker_ops_per_sec`, a per-host rate, never gated), streamed through
// the windowed checker (rate and peak live-window size — the O(window)
// memory claim, measured), and a million-op keyed history is checked key
// by key once.
#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>

#include "lincheck/history_checker.hpp"
#include "lincheck/history_gen.hpp"
#include "lincheck/wing_gong.hpp"
#include "workload/table.hpp"

// The shared mutation corpus (tests/ is on this bench's include path):
// the UNSAT half of the head-to-head corpus uses the same stale-read
// mutator the differential and mutation tests inject.
#include "history_mutations.hpp"

namespace {

using namespace gqs;

constexpr std::size_t kCorpusHistories = 96;
constexpr std::size_t kCorpusOps = 56;  // under Wing–Gong's 64-op cap
constexpr std::size_t kMillion = 1'000'000;
constexpr int kReps = 3;  // best-of per engine
constexpr double kBar = 24.0;

double time_s(const std::function<void()>& body) {
  const auto begin = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

int bench_entry() {
  std::cout << "bench_lincheck — scalable dependency-graph checker vs the "
               "Wing–Gong baseline\n";
  print_heading(std::to_string(kCorpusHistories) + " histories x " +
                std::to_string(kCorpusOps) +
                " ops head-to-head, then one million-op history (best of " +
                std::to_string(kReps) + ")");

  // ---- corpus + verdict agreement before any timing ----
  // Even indices stay linearizable; odd indices get a black-box-visible
  // stale read. Both engines must produce the matching verdict on every
  // history before any timing counts.
  std::vector<register_history> corpus;
  std::vector<bool> expect_sat;
  corpus.reserve(kCorpusHistories);
  for (std::size_t i = 0; corpus.size() < kCorpusHistories &&
                          i < 4 * kCorpusHistories;
       ++i) {
    synthetic_history_options o;
    o.ops = kCorpusOps;
    o.procs = 8;
    o.overlap = 8;
    o.read_permille = 500;
    register_history h = make_synthetic_history(1000 + i, o);
    bool sat = true;
    if (i % 2 == 1) {
      // A rewound read is always a white-box violation, but the black-box
      // Wing-Gong baseline can sometimes reorder the (untagged) writes
      // around it; keep only mutants both engines must reject so the
      // timed corpus has one agreed verdict per history.
      if (mutate_stale_read(h, i).empty()) continue;  // nothing to rewind
      if (check_linearizable(h).linearizable) continue;
      sat = false;
    }
    corpus.push_back(std::move(h));
    expect_sat.push_back(sat);
  }
  std::uint64_t corpus_ops = 0;
  std::uint64_t corpus_unsat = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    corpus_ops += corpus[i].size();
    corpus_unsat += !expect_sat[i];
    const auto wg = check_linearizable(corpus[i]);
    const auto fast = check_history(corpus[i]);
    if (wg.linearizable != expect_sat[i] ||
        fast.linearizable != expect_sat[i]) {
      std::cerr << "corpus verdict disagreement at history " << i
                << " (expected " << (expect_sat[i] ? "SAT" : "UNSAT")
                << "): wg=" << wg.linearizable
                << " fast=" << fast.linearizable << " " << fast.reason
                << "\n";
      return 1;
    }
  }
  if (corpus_unsat == 0 || corpus_unsat == corpus.size()) {
    std::cerr << "corpus must mix SAT and UNSAT histories\n";
    return 1;
  }

  // ---- head-to-head timing ----
  double wg_best = 1e30, fast_best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    wg_best = std::min(wg_best, time_s([&] {
                         for (std::size_t i = 0; i < corpus.size(); ++i)
                           if (check_linearizable(corpus[i]).linearizable !=
                               expect_sat[i])
                             std::abort();
                       }));
    fast_best = std::min(fast_best, time_s([&] {
                           for (std::size_t i = 0; i < corpus.size(); ++i)
                             if (check_history(corpus[i]).linearizable !=
                                 expect_sat[i])
                               std::abort();
                         }));
  }
  const double wg_rate = static_cast<double>(corpus_ops) / wg_best;
  const double fast_rate = static_cast<double>(corpus_ops) / fast_best;
  const double speedup = wg_rate > 0 ? fast_rate / wg_rate : 0;

  // ---- million-op batch ----
  synthetic_history_options big;
  big.ops = kMillion;
  big.procs = 16;
  big.overlap = 8;
  big.read_permille = 600;
  const register_history h1m = make_synthetic_history(7, big);
  double batch_best = 1e30;
  bool batch_ok = true;
  for (int rep = 0; rep < 2; ++rep)
    batch_best = std::min(batch_best, time_s([&] {
                            batch_ok &= check_history(h1m).linearizable;
                          }));
  if (!batch_ok) {
    std::cerr << "million-op batch check reported a violation on a valid "
                 "history\n";
    return 1;
  }
  const double batch_rate = static_cast<double>(h1m.size()) / batch_best;

  // ---- million-op streaming, with the peak live window measured ----
  struct event {
    std::uint64_t at;
    bool ret;
    std::uint32_t idx;
  };
  std::vector<event> events;
  events.reserve(2 * h1m.size());
  for (std::size_t i = 0; i < h1m.size(); ++i) {
    events.push_back({h1m[i].invoked_stamp, false,
                      static_cast<std::uint32_t>(i)});
    if (h1m[i].complete())
      events.push_back({h1m[i].returned_stamp, true,
                        static_cast<std::uint32_t>(i)});
  }
  std::sort(events.begin(), events.end(),
            [](const event& a, const event& b) { return a.at < b.at; });
  std::size_t peak_window = 0;
  std::uint64_t retired = 0;
  bool stream_ok = true;
  const double stream_s = time_s([&] {
    streaming_checker checker(1);
    for (const event& e : events) {
      if (e.ret) {
        checker.on_complete(0, h1m[e.idx], e.idx);
        peak_window = std::max(peak_window, checker.active_ops());
      } else {
        checker.on_invoke(0, h1m[e.idx].invoked_stamp);
      }
    }
    stream_ok = checker.finish().linearizable;
    retired = checker.retired_ops();
  });
  if (!stream_ok || retired != h1m.size()) {
    std::cerr << "streaming pass failed (ok=" << stream_ok << ", retired "
              << retired << "/" << h1m.size() << ")\n";
    return 1;
  }
  const double stream_rate = static_cast<double>(h1m.size()) / stream_s;

  // ---- million-op keyed history, checked key by key ----
  constexpr service_key kKeys = 8;
  std::vector<keyed_register_op> keyed;
  keyed.reserve(kMillion);
  {
    std::vector<register_history> per_key(kKeys);
    for (service_key k = 0; k < kKeys; ++k) {
      synthetic_history_options o;
      o.ops = kMillion / kKeys;
      o.procs = 8;
      o.overlap = 6;
      per_key[k] = make_synthetic_history(300 + k, o);
    }
    for (std::size_t i = 0; i < kMillion / kKeys; ++i)
      for (service_key k = 0; k < kKeys; ++k)
        keyed.push_back({k, per_key[k][i]});
  }
  lincheck_result keyed_result;
  const double keyed_s =
      time_s([&] { keyed_result = check_keyed_history(keyed, kKeys); });
  if (!keyed_result.linearizable || keyed_result.checked_ops != keyed.size()) {
    std::cerr << "million-op keyed check failed: " << keyed_result.reason
              << "\n";
    return 1;
  }
  const double keyed_rate = static_cast<double>(keyed.size()) / keyed_s;

  // ---- report ----
  text_table t({"engine", "checked ops/sec", "notes"});
  t.add_row({"Wing-Gong (" + std::to_string(kCorpusOps) + "-op histories)",
             fmt_count(static_cast<std::uint64_t>(wg_rate)),
             "memoized exhaustive search"});
  t.add_row({"checker (same mixed corpus)",
             fmt_count(static_cast<std::uint64_t>(fast_rate)),
             "sparse graph + Pearce-Kelly"});
  t.add_row({"checker (10^6-op batch)",
             fmt_count(static_cast<std::uint64_t>(batch_rate)),
             "single key"});
  t.add_row({"checker (10^6-op streaming)",
             fmt_count(static_cast<std::uint64_t>(stream_rate)),
             "peak window " + fmt_count(peak_window) + " ops"});
  t.add_row({"checker (10^6-op keyed x" + std::to_string(kKeys) + ")",
             fmt_count(static_cast<std::uint64_t>(keyed_rate)),
             "key by key"});
  t.print();
  std::cout << "\nspeedup (checker/Wing–Gong): " << fmt_double(speedup, 1)
            << "x — acceptance bar " << fmt_double(kBar, 1) << "x\n";

  gqs_bench::record("lincheck_speedup", speedup);
  gqs_bench::record("checker_ops_per_sec", batch_rate);
  gqs_bench::record("checker_corpus_ops_per_sec", fast_rate);
  gqs_bench::record("wg_ops_per_sec", wg_rate);
  gqs_bench::record("streaming_ops_per_sec", stream_rate);
  gqs_bench::record("streaming_peak_window",
                    static_cast<std::uint64_t>(peak_window));
  gqs_bench::record("keyed_ops_per_sec", keyed_rate);
  gqs_bench::record("corpus_histories",
                    static_cast<std::uint64_t>(corpus.size()));
  gqs_bench::record("corpus_unsat", corpus_unsat);
  gqs_bench::record("corpus_ops", corpus_ops);

  return speedup >= kBar ? 0 : 1;
}
