// bench_graph_micro — Experiment E11
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// google-benchmark microbenchmarks of the combinatorial kernels everything
// else is built on: SCC decomposition, reachability closures, the
// Definition 2 check, U_f computation, the existence search and the
// strategy planner.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "core/pattern_table.hpp"
#include "core/random_systems.hpp"
#include "core/solver.hpp"
#include "sim/message.hpp"
#include "strategy/planner.hpp"
#include "workload/topologies.hpp"

namespace {

using namespace gqs;

digraph random_graph(process_id n, double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution edge_flip(density);
  digraph g(n);
  for (process_id u = 0; u < n; ++u)
    for (process_id v = 0; v < n; ++v)
      if (u != v && edge_flip(rng)) g.add_edge(u, v);
  return g;
}

void bm_sccs(benchmark::State& state) {
  const auto g = random_graph(static_cast<process_id>(state.range(0)), 0.15, 7);
  for (auto _ : state) benchmark::DoNotOptimize(g.sccs());
}
BENCHMARK(bm_sccs)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_reachable_from(benchmark::State& state) {
  const auto g = random_graph(static_cast<process_id>(state.range(0)), 0.15, 8);
  for (auto _ : state) benchmark::DoNotOptimize(g.reachable_from(0));
}
BENCHMARK(bm_reachable_from)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void bm_transitive_closure(benchmark::State& state) {
  const auto g = random_graph(static_cast<process_id>(state.range(0)), 0.15, 9);
  for (auto _ : state) benchmark::DoNotOptimize(g.transitive_closure());
}
BENCHMARK(bm_transitive_closure)->Arg(8)->Arg(16)->Arg(32);

void bm_check_generalized_figure1(benchmark::State& state) {
  const auto fig = make_figure1();
  for (auto _ : state) benchmark::DoNotOptimize(check_generalized(fig.gqs));
}
BENCHMARK(bm_check_generalized_figure1);

void bm_check_classical_threshold(benchmark::State& state) {
  const auto qs =
      threshold_quorum_system(static_cast<process_id>(state.range(0)),
                              (static_cast<int>(state.range(0)) - 1) / 2);
  for (auto _ : state) benchmark::DoNotOptimize(check_classical(qs));
}
BENCHMARK(bm_check_classical_threshold)->Arg(5)->Arg(7)->Arg(9);

void bm_compute_uf(benchmark::State& state) {
  const auto fig = make_figure1();
  for (auto _ : state)
    for (int i = 0; i < 4; ++i)
      benchmark::DoNotOptimize(compute_u_f(fig.gqs, fig.gqs.fps[i]));
}
BENCHMARK(bm_compute_uf);

void bm_find_gqs_figure1(benchmark::State& state) {
  const auto fps = make_figure1().gqs.fps;
  for (auto _ : state) benchmark::DoNotOptimize(find_gqs(fps));
}
BENCHMARK(bm_find_gqs_figure1);

void bm_find_gqs_example9(benchmark::State& state) {
  const auto fps = make_example9_variant();  // the unsatisfiable instance
  for (auto _ : state) benchmark::DoNotOptimize(find_gqs(fps));
}
BENCHMARK(bm_find_gqs_example9);

void bm_find_gqs_random(benchmark::State& state) {
  std::mt19937_64 rng(11);
  random_system_params params;
  params.n = static_cast<process_id>(state.range(0));
  params.patterns = 4;
  std::vector<fail_prone_system> instances;
  for (int i = 0; i < 32; ++i)
    instances.push_back(random_fail_prone_system(params, rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_gqs(instances[i % instances.size()]));
    ++i;
  }
}
BENCHMARK(bm_find_gqs_random)->Arg(5)->Arg(8)->Arg(12);

// ---- the deploy-time path on one corpus draw ----
//
// Solve, verify and plan are the three steps of the plan-corpus benchmark.
// These run each step alone on one draw shaped like its instances
// (n = 24, |F| = 16, scenario capacities), plus the read-mostly plan
// behind the targeted service and sharded SMR selectors.

struct corpus_draw {
  scenario_params params;
  fail_prone_system fps;
  gqs_witness witness;
};

/// The geometric24 family drawn with |F| = 16 from seed 1, with its solver
/// witness; skips the benchmark if the family is missing or the draw
/// admits no GQS.
std::optional<corpus_draw> geometric24_draw(benchmark::State& state) {
  const auto corpus = topology_corpus(24);
  const auto family = std::find_if(
      corpus.begin(), corpus.end(),
      [](const scenario_family& f) { return f.name == "geometric24"; });
  if (family == corpus.end()) {
    state.SkipWithError("no geometric24 family");
    return std::nullopt;
  }
  scenario_params params = family->params;
  params.patterns = 16;
  std::mt19937_64 rng(1);
  fail_prone_system fps = scenario_system(params, rng);
  auto witness = find_gqs(fps);
  if (!witness) {
    state.SkipWithError("geometric24 draw admits no GQS");
    return std::nullopt;
  }
  return corpus_draw{params, std::move(fps), std::move(*witness)};
}

void bm_solve_corpus(benchmark::State& state) {
  const auto draw = geometric24_draw(state);
  if (!draw) return;
  for (auto _ : state) {
    existence_solver solver(draw->fps);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(bm_solve_corpus);

void bm_check_generalized_corpus(benchmark::State& state) {
  const auto draw = geometric24_draw(state);
  if (!draw) return;
  for (auto _ : state)
    benchmark::DoNotOptimize(check_generalized(draw->witness.system));
}
BENCHMARK(bm_check_generalized_corpus);

/// The topology_corpus(256) family `name` with |F| = 16; skips the
/// benchmark if the family is missing.
std::optional<scenario_params> corpus_family(benchmark::State& state,
                                             const std::string& name) {
  const auto corpus = topology_corpus(256);
  const auto family = std::find_if(
      corpus.begin(), corpus.end(),
      [&](const scenario_family& f) { return f.name == name; });
  if (family == corpus.end()) {
    state.SkipWithError("family missing from topology_corpus(256)");
    return std::nullopt;
  }
  scenario_params params = family->params;
  params.patterns = 16;
  return params;
}

/// Generating one |F| = 16 system of a corpus family: the topology plus
/// 16 failure patterns, each built as rows of faulty channels.
void bm_scenario_system(benchmark::State& state, const char* name) {
  const auto params = corpus_family(state, name);
  if (!params) return;
  std::mt19937_64 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(scenario_system(*params, rng));
}
BENCHMARK_CAPTURE(bm_scenario_system, ring64uni, "ring64uni");
BENCHMARK_CAPTURE(bm_scenario_system, clique64, "clique64");
BENCHMARK_CAPTURE(bm_scenario_system, geometric256, "geometric256");

/// Compiling the residual tables of one |F| = 16 corpus draw in place (one
/// iteration builds all 16), on both sides of the one-word boundary. The
/// family is `kind`, the size Arg(0) and `suffix`, e.g. ring64uni.
void bm_pattern_table(benchmark::State& state, const char* kind,
                      const char* suffix) {
  std::string name = kind;
  name += std::to_string(state.range(0));
  name += suffix;
  const auto params = corpus_family(state, name);
  if (!params) return;
  std::mt19937_64 rng(1);
  const fail_prone_system fps = scenario_system(*params, rng);
  pattern_table t;
  for (auto _ : state)
    for (const failure_pattern& f : fps) {
      build_pattern_table_into(f, t);
      benchmark::DoNotOptimize(t.components.data());
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fps.size()));
}
BENCHMARK_CAPTURE(bm_pattern_table, ring_uni, "ring", "uni")
    ->Arg(24)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(bm_pattern_table, clique, "clique", "")
    ->Arg(24)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(bm_pattern_table, grid, "grid", "")
    ->Arg(24)->Arg(64)->Arg(128)->Arg(256);

void bm_plan_optimal_threshold(benchmark::State& state) {
  const auto qs = threshold_quorum_system(8, 2);
  planner_options options;
  options.read_ratio = 0.9;
  for (auto _ : state) benchmark::DoNotOptimize(plan_optimal(qs, options));
}
BENCHMARK(bm_plan_optimal_threshold);

void bm_plan_optimal_corpus(benchmark::State& state) {
  const auto draw = geometric24_draw(state);
  if (!draw) return;
  planner_options options;
  options.capacities = process_capacities(draw->params);
  for (auto _ : state)
    benchmark::DoNotOptimize(plan_optimal(draw->witness.system, options));
}
BENCHMARK(bm_plan_optimal_corpus);

/// The large-LP end: 81 quorums per family over 144 processes, whose
/// optimum spreads mass over every quorum, so column generation prices
/// the whole family into the master.
void bm_plan_optimal_tree144(benchmark::State& state) {
  const auto qs = tree_quorum_system(144);
  for (auto _ : state) benchmark::DoNotOptimize(plan_optimal(qs));
}
BENCHMARK(bm_plan_optimal_tree144);

/// The f-aware planner over every pattern of the plan-corpus-shaped draw.
void bm_plan_for_pattern_corpus(benchmark::State& state) {
  const auto draw = geometric24_draw(state);
  if (!draw) return;
  const generalized_quorum_system& gqs = draw->witness.system;
  planner_options options;
  options.capacities = process_capacities(draw->params);
  for (auto _ : state)
    for (std::size_t i = 0; i < gqs.fps.size(); ++i)
      benchmark::DoNotOptimize(plan_for_pattern(gqs, i, options));
}
BENCHMARK(bm_plan_for_pattern_corpus);

void bm_plan_for_pattern_figure1(benchmark::State& state) {
  const auto fig = make_figure1();
  for (auto _ : state)
    for (std::size_t i = 0; i < fig.gqs.fps.size(); ++i)
      benchmark::DoNotOptimize(plan_for_pattern(fig.gqs, i));
}
BENCHMARK(bm_plan_for_pattern_figure1);

// ---- message dispatch: tag compare vs dynamic_cast ----
//
// Every protocol deliver() resolves each incoming payload through a chain
// of message_cast calls. make_message stamps each message with a per-type tag, so the
// cast is a pointer compare; the benchmarks measure that against the
// seed's dynamic_cast resolution on the same mixed stream (worst case:
// the matching type is the last of five tried, exactly the generalized
// QAF's deliver chain shape).

struct dispatch_a : message { int x = 1; };
struct dispatch_b : message { int x = 2; };
struct dispatch_c : message { int x = 3; };
struct dispatch_d : message { int x = 4; };
struct dispatch_e : message { int x = 5; };

std::vector<message_ptr> dispatch_stream() {
  std::vector<message_ptr> stream;
  std::mt19937_64 rng(23);
  for (int i = 0; i < 1024; ++i) {
    switch (rng() % 5) {
      case 0: stream.push_back(make_message<dispatch_a>()); break;
      case 1: stream.push_back(make_message<dispatch_b>()); break;
      case 2: stream.push_back(make_message<dispatch_c>()); break;
      case 3: stream.push_back(make_message<dispatch_d>()); break;
      default: stream.push_back(make_message<dispatch_e>()); break;
    }
  }
  return stream;
}

template <class M>
const M* dynamic_cast_resolve(const message_ptr& m) {
  return dynamic_cast<const M*>(m.get());
}

void bm_dispatch_tag(benchmark::State& state) {
  const auto stream = dispatch_stream();
  for (auto _ : state) {
    int sum = 0;
    for (const message_ptr& m : stream) {
      if (const auto* a = message_cast<dispatch_a>(m)) sum += a->x;
      else if (const auto* b = message_cast<dispatch_b>(m)) sum += b->x;
      else if (const auto* c = message_cast<dispatch_c>(m)) sum += c->x;
      else if (const auto* d = message_cast<dispatch_d>(m)) sum += d->x;
      else if (const auto* e = message_cast<dispatch_e>(m)) sum += e->x;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(bm_dispatch_tag);

void bm_dispatch_dynamic_cast(benchmark::State& state) {
  const auto stream = dispatch_stream();
  for (auto _ : state) {
    int sum = 0;
    for (const message_ptr& m : stream) {
      if (const auto* a = dynamic_cast_resolve<dispatch_a>(m)) sum += a->x;
      else if (const auto* b = dynamic_cast_resolve<dispatch_b>(m)) sum += b->x;
      else if (const auto* c = dynamic_cast_resolve<dispatch_c>(m)) sum += c->x;
      else if (const auto* d = dynamic_cast_resolve<dispatch_d>(m)) sum += d->x;
      else if (const auto* e = dynamic_cast_resolve<dispatch_e>(m)) sum += e->x;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(bm_dispatch_dynamic_cast);

}  // namespace

BENCHMARK_MAIN();
