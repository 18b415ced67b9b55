#include "workload/topologies.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/sampling.hpp"

namespace gqs {

std::string to_string(topology_kind kind) {
  switch (kind) {
    case topology_kind::ring:
      return "ring";
    case topology_kind::clique:
      return "clique";
    case topology_kind::grid:
      return "grid";
    case topology_kind::star:
      return "star";
    case topology_kind::clusters:
      return "clusters";
    case topology_kind::geometric:
      return "geometric";
  }
  return "unknown";
}

namespace {

void add_bidirectional(digraph& g, process_id u, process_id v) {
  g.add_edge(u, v);
  g.add_edge(v, u);
}

digraph make_ring(process_id n, bool bidirectional) {
  digraph g(n);
  for (process_id v = 0; v < n; ++v) {
    const process_id next = (v + 1) % n;
    if (next == v) continue;  // n == 1
    g.add_edge(v, next);
    if (bidirectional) g.add_edge(next, v);
  }
  return g;
}

digraph make_grid(process_id n) {
  // Near-square mesh: rows × cols with cols = ceil(n / rows); trailing
  // cells beyond n simply don't exist.
  const process_id rows = static_cast<process_id>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(n)))));
  const process_id cols = (n + rows - 1) / rows;
  digraph g(n);
  for (process_id v = 0; v < n; ++v) {
    const process_id r = v / cols, c = v % cols;
    if (c + 1 < cols && v + 1 < n) add_bidirectional(g, v, v + 1);
    if (r + 1 < rows && v + cols < n) add_bidirectional(g, v, v + cols);
  }
  return g;
}

digraph make_star(process_id n) {
  digraph g(n);
  for (process_id v = 1; v < n; ++v) add_bidirectional(g, 0, v);
  return g;
}

digraph make_clusters(process_id n, process_id cluster_size) {
  if (cluster_size == 0)
    throw std::invalid_argument("make_topology: cluster_size must be > 0");
  digraph g(n);
  // Cliques of cluster_size over contiguous id ranges.
  for (process_id base = 0; base < n; base += cluster_size) {
    const process_id end = std::min<process_id>(base + cluster_size, n);
    for (process_id u = base; u < end; ++u)
      for (process_id v = u + 1; v < end; ++v) add_bidirectional(g, u, v);
  }
  // Cluster heads (lowest id per cluster) form a bidirectional ring.
  std::vector<process_id> heads;
  for (process_id base = 0; base < n; base += cluster_size)
    heads.push_back(base);
  for (std::size_t i = 0; i + 1 < heads.size(); ++i)
    add_bidirectional(g, heads[i], heads[i + 1]);
  if (heads.size() > 2) add_bidirectional(g, heads.back(), heads.front());
  return g;
}

digraph make_geometric(process_id n, double radius, std::uint64_t seed) {
  digraph g(n);
  std::mt19937_64 rng(seed);
  std::vector<double> x(n), y(n);
  for (process_id v = 0; v < n; ++v) {
    x[v] = sampling::unit(rng());
    y[v] = sampling::unit(rng());
  }
  for (process_id u = 0; u < n; ++u)
    for (process_id v = u + 1; v < n; ++v) {
      const double dx = x[u] - x[v], dy = y[u] - y[v];
      if (dx * dx + dy * dy <= radius * radius) add_bidirectional(g, u, v);
    }
  return g;
}

}  // namespace

digraph make_topology(const topology_params& params) {
  if (params.n == 0 || params.n > process_set::max_processes)
    throw std::invalid_argument("make_topology: bad n");
  switch (params.kind) {
    case topology_kind::ring:
      return make_ring(params.n, params.bidirectional);
    case topology_kind::clique:
      return digraph::complete(params.n);
    case topology_kind::grid:
      return make_grid(params.n);
    case topology_kind::star:
      return make_star(params.n);
    case topology_kind::clusters:
      return make_clusters(params.n, params.cluster_size);
    case topology_kind::geometric:
      return make_geometric(params.n, params.radius, params.placement_seed);
  }
  throw std::invalid_argument("make_topology: unknown kind");
}

std::string to_string(capacity_profile profile) {
  switch (profile) {
    case capacity_profile::uniform:
      return "uniform";
    case capacity_profile::linear:
      return "linear";
    case capacity_profile::hub_heavy:
      return "hub_heavy";
  }
  return "unknown";
}

std::vector<double> process_capacities(const scenario_params& params) {
  const process_id n = params.topology.n;
  const capacity_params& cp = params.capacities;
  if (!(cp.min_factor > 0) || !(cp.max_factor > 0))
    throw std::invalid_argument("process_capacities: nonpositive factor");
  std::vector<double> caps(n, cp.max_factor);
  switch (cp.profile) {
    case capacity_profile::uniform:
      break;
    case capacity_profile::linear:
      for (process_id p = 0; p < n; ++p)
        caps[p] = n > 1 ? cp.min_factor + (cp.max_factor - cp.min_factor) *
                              static_cast<double>(p) /
                              static_cast<double>(n - 1)
                        : cp.max_factor;
      break;
    case capacity_profile::hub_heavy:
      for (process_id p = 1; p < n; ++p) caps[p] = cp.min_factor;
      break;
  }
  return caps;
}

namespace {

/// One scenario pattern, with the crash and channel coins built once by
/// the caller.
failure_pattern draw_pattern(const digraph& network,
                             const scenario_params& params,
                             const sampling::bernoulli& crash,
                             const sampling::bernoulli& chan,
                             std::mt19937_64& rng) {
  const process_id n = network.vertex_count();
  process_set crashed;
  for (process_id p = 0; p < n; ++p)
    if (crash(rng)) crashed.insert(p);
  if (params.keep_one_correct && crashed == process_set::full(n)) {
    std::uniform_int_distribution<process_id> pick(0, n - 1);
    crashed.erase(pick(rng));
  }

  const process_set correct = crashed.complement_in(n);
  std::vector<process_set> faulty(n);
  for (process_id u : correct) {
    // Channels outside the topology are down by definition; topology
    // edges break with the configured probability, drawn in ascending
    // (u, v) order (those are the only channel draws that consume the rng).
    const process_set links = network.out_neighbors(u) & correct;
    process_set row = correct - links - process_set::singleton(u);
    for (process_id v : links)
      if (chan(rng)) row.insert(v);
    faulty[u] = row;
  }
  return failure_pattern::from_rows(n, crashed, std::move(faulty));
}

}  // namespace

failure_pattern scenario_failure_pattern(const digraph& network,
                                         const scenario_params& params,
                                         std::mt19937_64& rng) {
  return draw_pattern(network, params,
                      sampling::bernoulli(params.crash_probability),
                      sampling::bernoulli(params.channel_fail_probability),
                      rng);
}

fail_prone_system scenario_system(const scenario_params& params,
                                  std::mt19937_64& rng) {
  const digraph network = make_topology(params.topology);
  const sampling::bernoulli crash(params.crash_probability);
  const sampling::bernoulli chan(params.channel_fail_probability);
  fail_prone_system fps(params.topology.n);
  for (int i = 0; i < params.patterns; ++i)
    fps.add(draw_pattern(network, params, crash, chan, rng));
  return fps;
}

std::vector<scenario_family> topology_corpus(process_id max_n) {
  if (max_n < 4)
    throw std::invalid_argument("topology_corpus: max_n must be >= 4");
  std::vector<scenario_family> corpus;

  auto add = [&](topology_kind kind, process_id n, int patterns,
                 double crash_p, double chan_p, const std::string& suffix,
                 auto shape) {
    if (n > max_n) return;
    scenario_params p;
    p.topology.kind = kind;
    p.topology.n = n;
    shape(p.topology);
    p.patterns = patterns;
    p.crash_probability = crash_p;
    p.channel_fail_probability = chan_p;
    // Heterogeneous capacity realizations where the topology makes them
    // meaningful: a star hub serves most routes, cluster/geometric ids
    // ramp — so capacity-aware strategies have something to exploit.
    switch (kind) {
      case topology_kind::star:
        p.capacities = {capacity_profile::hub_heavy, 0.5, 2.0};
        break;
      case topology_kind::clusters:
        p.capacities = {capacity_profile::linear, 1.0, 2.0};
        break;
      case topology_kind::geometric:
        p.capacities = {capacity_profile::linear, 0.5, 1.5};
        break;
      default:
        break;
    }
    corpus.push_back(
        {to_string(kind) + std::to_string(n) + suffix, std::move(p)});
  };
  auto noop = [](topology_params&) {};

  for (process_id n : {process_id{4}, process_id{6}, process_id{8},
                       process_id{12}, process_id{16}, process_id{24},
                       process_id{32}, process_id{48}, process_id{64},
                       process_id{96}, process_id{128}, process_id{192},
                       process_id{256}}) {
    if (n > max_n) break;
    // Rings fracture into chains of singleton SCCs under a single channel
    // failure — the unidirectional variant is the solver's hardest shape.
    add(topology_kind::ring, n, 4, 0.1, 0.3, "",
        [](topology_params& t) { t.bidirectional = true; });
    add(topology_kind::ring, n, 4, 0.05, 0.2, "uni",
        [](topology_params& t) { t.bidirectional = false; });
    // Cliques mirror the uniform generator: dense residuals, mostly SAT.
    add(topology_kind::clique, n, 4, 0.2, 0.3, "", noop);
    add(topology_kind::grid, n, 4, 0.1, 0.3, "", noop);
    // Stars die with the hub: crash-heavy families are UNSAT-rich.
    add(topology_kind::star, n, 4, 0.2, 0.2, "", noop);
    add(topology_kind::clusters, n, 4, 0.1, 0.3, "",
        [](topology_params& t) { t.cluster_size = 4; });
    add(topology_kind::geometric, n, 4, 0.1, 0.25, "",
        [n](topology_params& t) {
          t.radius = 0.55;
          t.placement_seed = 0x9e3779b9u + n;
        });
  }
  return corpus;
}

}  // namespace gqs
