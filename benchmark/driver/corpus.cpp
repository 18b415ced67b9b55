// corpus.cpp — the deploy-time path without a simulation: does a
// fail-prone system admit a GQS, and with which strategy? Per instance,
// existence_solver::solve(), then check_generalized and plan_optimal on
// each witness.
//
// The planner runs with a budget of kPlanIterations. Per-instance cost is
// heavy-tailed: most instances take under a millisecond, while the few
// whose plan does not converge run the default 50,000 iterations for
// 0.1-0.25 s each, and a 336-instance round draws between 2 and 9 of
// them. Unbudgeted, throughput tracks that draw (29% spread across
// seeds). The budget bounds the tail; the certified gap keeps a stopped
// plan's quality known (strategy/planner.hpp).
#include <bit>
#include <optional>
#include <random>

#include "bench.hpp"
#include "core/solver.hpp"
#include "strategy/planner.hpp"
#include "workload/topologies.hpp"

namespace bench {
namespace {

using namespace gqs;
using steady = std::chrono::steady_clock;

constexpr int kPlanIterations = 10000;

void mix_set(fnv& d, const process_set& s) {
  d.mix(s.size());
  for (process_id p : s) d.mix(p);
}

}  // namespace

pass_result run_corpus(const pass_config& cfg) {
  pass_result r;
  const steady::time_point t0 = steady::now();
  // cfg.size seeds per family: the families of topology_corpus(64) with
  // n >= 12, each drawn with |F| = 16.
  const std::uint64_t round_seed = splitmix64(cfg.seed.corpus + cfg.round);
  std::vector<fail_prone_system> instances;
  const std::vector<scenario_family> families = topology_corpus(64);
  for (std::size_t i = 0; i < families.size(); ++i) {
    scenario_params params = families[i].params;
    if (params.topology.n < 12) continue;
    params.patterns = 16;
    for (std::uint64_t s = 0; s < cfg.size; ++s) {
      std::mt19937_64 rng(splitmix64(round_seed ^ (i << 32) ^ s));
      instances.push_back(scenario_system(params, rng));
    }
  }
  const steady::time_point t1 = steady::now();
  r.setup_s = std::chrono::duration<double>(t1 - t0).count();
  if (cfg.setup_only) return r;

  if (cfg.clock) cfg.clock->start(layer::workload);
  // One solver thread: stage-2 search counts vary with the thread count.
  solver_options so;
  so.threads = 1;
  planner_options po;
  po.max_iterations = kPlanIterations;
  fnv d;
  std::uint64_t nodes = 0, stage2 = 0, sat = 0, invalid = 0, iterations = 0,
                converged = 0;
  for (const fail_prone_system& fps : instances) {
    std::optional<gqs_witness> w;
    {
      scope s(cfg.clock, layer::solve);
      existence_solver solver(fps, so);
      w = solver.solve();
      nodes += solver.stats().nodes;
      stage2 += solver.stats().escalations > 0;
    }
    d.mix(w.has_value());
    if (!w) continue;
    ++sat;
    for (const process_set& q : w->chosen_writes) mix_set(d, q);
    bool valid = false;
    {
      scope s(cfg.clock, layer::verify);
      valid = check_generalized(w->system).ok;
    }
    if (!valid) {
      ++invalid;
      continue;
    }
    plan_result plan;
    {
      scope s(cfg.clock, layer::plan);
      plan = plan_optimal(w->system, po);
    }
    iterations += static_cast<std::uint64_t>(plan.iterations);
    converged += plan.converged;
    d.mix(std::bit_cast<std::uint64_t>(plan.weighted_load));
    d.mix(static_cast<std::uint64_t>(plan.iterations));
  }
  if (cfg.clock) r.self_s = cfg.clock->lap();
  r.wall_s = std::chrono::duration<double>(steady::now() - t1).count();

  r.attempted = r.completed = instances.size();
  r.failed = invalid;
  if (invalid > 0)
    r.fail(std::to_string(invalid) + " solver witnesses fail check_generalized");
  r.digest = d.h;
  const auto n = static_cast<double>(instances.size());
  const auto planned = static_cast<double>(sat - invalid);
  auto& c = r.counts;
  c["ops_failed_frac"] = sat > 0 ? static_cast<double>(invalid) / sat : 0;
  c["core.nodes_per_inst"] = static_cast<double>(nodes) / n;
  c["core.stage2_frac"] = static_cast<double>(stage2) / n;
  c["core.sat_frac"] = static_cast<double>(sat) / n;
  c["strategy.iterations_per_inst"] =
      planned > 0 ? static_cast<double>(iterations) / planned : 0;
  c["strategy.converged_frac"] =
      planned > 0 ? static_cast<double>(converged) / planned : 0;
  return r;
}

}  // namespace bench
