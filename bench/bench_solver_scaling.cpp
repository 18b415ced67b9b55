// bench_solver_scaling — existence-solver throughput on the topology
// scenario corpus.
//
// Three parts:
//
//   corpus     — every decision instance of the corpus (|F| = 16,
//                n = 12..64) decided by existence_solver, best of 3
//                passes over fresh systems (table builds included),
//                recording solved/sec, search nodes and prunes;
//   scaling    — sweep of n up to 256 across topology kinds, recording
//                solved/sec, search nodes and prune counts per size band;
//   structured — decision/validation timings for the structured families
//                (single-crash existence at n = 64..256, Definition 2
//                validation of the grid/tree/cluster constructions at
//                n = 256).
//
// Verdicts are checked against independent searches in
// tests/solver_test.cpp (the exhaustive oracle at n <= 8, a plain
// backtracker on this corpus's shape at n = 12..64).
#include "bench_main.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <random>
#include <vector>

#include "core/factories.hpp"
#include "core/quorum_system.hpp"
#include "core/solver.hpp"
#include "workload/table.hpp"
#include "workload/topologies.hpp"

namespace {

using namespace gqs;

std::vector<fail_prone_system> build_instances(process_id min_n,
                                               process_id max_n, int patterns,
                                               int seeds_per_family,
                                               std::uint64_t seed_base) {
  std::vector<fail_prone_system> instances;
  for (const scenario_family& family : topology_corpus(max_n)) {
    if (family.params.topology.n < min_n) continue;
    scenario_params params = family.params;
    params.patterns = patterns;
    for (int s = 0; s < seeds_per_family; ++s) {
      std::mt19937_64 rng(seed_base + s * 7919 + family.name.size());
      instances.push_back(scenario_system(params, rng));
    }
  }
  return instances;
}

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

int bench_entry() {
  std::cout << "bench_solver_scaling — existence solver on the topology "
               "corpus\n";

  // ---- part 1: corpus ---------------------------------------------------
  // |F| = 16 over every topology kind at n = 12..64: sized so the
  // per-pattern candidate tables and the search both carry real weight.
  // Toy sizes (n < 12, decided in single-digit microseconds) are measured
  // by the scaling sweep below instead of diluting the corpus.
  const auto draw_corpus = [] {
    return build_instances(/*min_n=*/12, /*max_n=*/64, /*patterns=*/16,
                           /*seeds_per_family=*/4, /*seed_base=*/1234);
  };
  std::vector<fail_prone_system> corpus = draw_corpus();
  print_heading("Corpus: " + std::to_string(corpus.size()) +
                " instances, |F| = 16, n = 12..64");

  // Best of 3 passes to shrug off scheduler noise.
  constexpr int kPasses = 3;
  std::uint64_t nodes = 0, forward_prunes = 0;
  int sat = 0;
  double solver_secs = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    // Pattern tables are compiled on a pattern's first query and cached,
    // so every pass solves freshly drawn systems, drawn outside the timed
    // region: each pass times the table builds as well as the search.
    if (pass > 0) corpus = draw_corpus();
    nodes = forward_prunes = 0;
    sat = 0;
    const auto begin = std::chrono::steady_clock::now();
    for (const fail_prone_system& fps : corpus) {
      existence_solver solver(fps);
      sat += solver.exists() ? 1 : 0;
      nodes += solver.stats().nodes;
      forward_prunes += solver.stats().forward_prunes;
    }
    const double secs = seconds_since(begin);
    solver_secs = pass == 0 ? secs : std::min(solver_secs, secs);
  }
  const double solver_rate = corpus.size() / solver_secs;

  text_table corpus_table({"engine", "solved/sec", "total secs"});
  corpus_table.add_row({"existence_solver", fmt_double(solver_rate, 1),
                        fmt_double(solver_secs, 3)});
  corpus_table.print();
  std::cout << "sat " << sat << " / " << corpus.size() << ", solver nodes "
            << nodes << ", forward prunes " << forward_prunes << "\n\n";

  gqs_bench::record("corpus_instances", std::uint64_t{corpus.size()});
  gqs_bench::record("corpus_sat", static_cast<std::uint64_t>(sat));
  gqs_bench::record("solver_solved_per_sec", solver_rate);
  gqs_bench::record("solver_nodes", nodes);
  gqs_bench::record("solver_forward_prunes", forward_prunes);

  // ---- part 2: scaling sweep --------------------------------------------
  print_heading("Scaling sweep: solver only, n up to 256");
  text_table sweep({"n", "|F|", "instances", "sat", "solved/sec", "nodes",
                    "prunes"});
  for (const auto& [band_n, band_patterns] :
       std::vector<std::pair<process_id, int>>{{8, 12},
                                               {16, 14},
                                               {32, 16},
                                               {48, 16},
                                               {64, 16},
                                               {128, 16},
                                               {256, 16}}) {
    // The multi-word bands cost ~n× the per-instance table work of the
    // small ones; one seed per family keeps the sweep's wall time flat.
    const int band_seeds = band_n > 64 ? 1 : 3;
    std::vector<fail_prone_system> band;
    for (const scenario_family& family : topology_corpus(band_n)) {
      if (family.params.topology.n != band_n) continue;
      scenario_params params = family.params;
      params.patterns = band_patterns;
      for (int s = 0; s < band_seeds; ++s) {
        std::mt19937_64 rng(4321 + s * 104729 + family.name.size());
        band.push_back(scenario_system(params, rng));
      }
    }
    if (band.empty()) continue;
    std::uint64_t band_nodes = 0, band_prunes = 0;
    int band_sat = 0;
    const auto begin = std::chrono::steady_clock::now();
    for (const fail_prone_system& fps : band) {
      existence_solver solver(fps);
      band_sat += solver.exists() ? 1 : 0;
      band_nodes += solver.stats().nodes;
      band_prunes += solver.stats().forward_prunes;
    }
    const double secs = seconds_since(begin);
    const double rate = band.size() / secs;
    sweep.add_row({std::to_string(band_n), std::to_string(band_patterns),
                   std::to_string(band.size()), std::to_string(band_sat),
                   fmt_double(rate, 1), fmt_count(band_nodes),
                   fmt_count(band_prunes)});
    const std::string prefix = "n" + std::to_string(band_n) + "_";
    gqs_bench::record(prefix + "solved_per_sec", rate);
    gqs_bench::record(prefix + "nodes", band_nodes);
    gqs_bench::record(prefix + "prunes", band_prunes);
    gqs_bench::record(prefix + "sat", static_cast<std::uint64_t>(band_sat));
  }
  sweep.print();
  std::cout << "\n";

  // ---- part 3: structured large-n families ------------------------------
  // The instances the 64-process ceiling used to exclude outright: the
  // single-crash existence decision (|F| = n, one SCC per pattern — pure
  // table-building throughput at full multi-word width) and Definition 2
  // validation of the structured O(1/√n)-load constructions at n = 256.
  print_heading("Structured large-n families (multi-word process_set)");
  text_table structured({"family", "n", "size", "result", "ms"});
  for (process_id n : {64u, 128u, 256u}) {
    const auto fps = single_crash_fail_prone_system(n);
    const auto begin = std::chrono::steady_clock::now();
    existence_solver solver(fps);
    const bool sat_verdict = solver.exists();
    const double ms = seconds_since(begin) * 1000;
    structured.add_row({"single-crash existence", std::to_string(n),
                        std::to_string(fps.size()) + " patterns",
                        sat_verdict ? "sat" : "UNSAT?!", fmt_double(ms, 1)});
    if (!sat_verdict) {
      std::cerr << "single-crash system at n=" << n << " reported UNSAT\n";
      return 1;
    }
    gqs_bench::record("single_crash_n" + std::to_string(n) + "_ms", ms);
  }
  const std::pair<const char*,
                  generalized_quorum_system (*)(process_id)>
      constructions[] = {{"grid", grid_quorum_system},
                         {"tree", tree_quorum_system},
                         {"cluster", hierarchical_quorum_system}};
  for (const auto& [cname, make_qs] : constructions) {
    const auto qs = make_qs(256);
    const auto begin = std::chrono::steady_clock::now();
    const bool valid = check_generalized(qs).ok;
    const double ms = seconds_since(begin) * 1000;
    structured.add_row({std::string(cname) + " validation (Def. 2)", "256",
                        std::to_string(qs.writes.size()) + " quorums",
                        valid ? "ok" : "INVALID?!", fmt_double(ms, 1)});
    if (!valid) {
      std::cerr << cname << " construction failed Definition 2 at n=256\n";
      return 1;
    }
    gqs_bench::record(std::string(cname) + "_validate_n256_ms", ms);
  }
  structured.print();
  return 0;
}
