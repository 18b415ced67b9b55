// residual_view_test — the compiled residual view (core/pattern_table.hpp)
// that answers every Definition 2 / Proposition 1 query, checked against
// an oracle built straight from the graph layer: the residual digraph plus
// digraph::reachable_from / scc_of, with no pattern_table anywhere.
//
// Inputs: the topology corpus, Figure 1, Example 9, and the grid / tree /
// cluster factories at n on both sides of the one-word and two-word
// process_set boundaries, each probed with random quorums that include the
// empty set, singletons and sets with crashed members; plus
// (topology, alive) views as the availability estimator builds them.
#include "core/pattern_table.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

/// Definition 2 and Proposition 1 answered from a residual digraph alone:
/// per-vertex closures from digraph::reachable_from, U_f from scc_of.
class residual_oracle {
 public:
  explicit residual_oracle(digraph residual)
      : g_(std::move(residual)), reach_(g_.vertex_count()) {
    for (process_id v : g_.present()) reach_[v] = g_.reachable_from(v);
  }

  const digraph& graph() const { return g_; }

  bool available(process_set q) const {
    if (q.empty() || !q.is_subset_of(g_.present())) return false;
    const process_id v = q.first();
    for (process_id u : q)
      if (!reach_[v].contains(u) || !reach_[u].contains(v)) return false;
    return true;
  }

  bool reachable(process_set w, process_set r) const {
    if (w.empty() || r.empty()) return false;
    if (!w.is_subset_of(g_.present()) || !r.is_subset_of(g_.present()))
      return false;
    for (process_id p : r)
      if (!w.is_subset_of(reach_[p])) return false;
    return true;
  }

  std::vector<available_pair> pairs(const quorum_family& reads,
                                    const quorum_family& writes,
                                    bool first_only = false) const {
    std::vector<available_pair> out;
    for (const process_set& w : writes) {
      if (!available(w)) continue;
      for (const process_set& r : reads) {
        if (!reachable(w, r)) continue;
        out.push_back({w, r});
        if (first_only) return out;
      }
    }
    return out;
  }

  process_set validating_union(const quorum_family& reads,
                               const quorum_family& writes) const {
    process_set u;
    for (const available_pair& a : pairs(reads, writes)) u |= a.write_quorum;
    return u;
  }

  process_set u_f(const quorum_family& reads,
                  const quorum_family& writes) const {
    const process_set u = validating_union(reads, writes);
    return u.empty() ? u : g_.scc_of(u.first());
  }

 private:
  digraph g_;
  std::vector<process_set> reach_;
};

/// check_generalized rebuilt over the oracle, with the same reasons.
check_result oracle_check(const generalized_quorum_system& gqs) {
  const process_set universe = process_set::full(gqs.system_size());
  for (const process_set& q : gqs.reads)
    if (!q.is_subset_of(universe))
      return check_result::bad("read quorum outside system");
  for (const process_set& q : gqs.writes)
    if (!q.is_subset_of(universe))
      return check_result::bad("write quorum outside system");
  if (auto c = check_consistency(gqs.reads, gqs.writes); !c) return c;
  for (std::size_t k = 0; k < gqs.fps.size(); ++k) {
    const failure_pattern& f = gqs.fps[k];
    if (residual_oracle(f.residual()).pairs(gqs.reads, gqs.writes, true)
            .empty()) {
      std::string why = "Availability violated for failure pattern #";
      why += std::to_string(k);
      why += " ";
      why += f.to_string();
      why += ": no f-available write quorum is f-reachable from a read quorum";
      return check_result::bad(why);
    }
  }
  return check_result::good();
}

process_id pick(const process_set& s, std::mt19937_64& rng) {
  const std::vector<process_id> members(s.begin(), s.end());
  return members[std::uniform_int_distribution<std::size_t>(
      0, members.size() - 1)(rng)];
}

/// Quorums over the residual's system that reach every branch of the
/// predicates: ∅, singletons (live or crashed), random subsets at three
/// densities, whole SCCs and subsets of them, an SCC plus a crashed
/// member, and the sets reaching / reached from a live vertex.
quorum_family probes(const digraph& g, std::mt19937_64& rng, int rounds) {
  const process_id n = g.vertex_count();
  const process_set live = g.present();
  const process_set dead = live.complement_in(n);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  auto subset = [&](const process_set& of, double density) {
    process_set s;
    for (process_id p : of)
      if (coin(rng) < density) s.insert(p);
    return s;
  };
  quorum_family out = {process_set{}};
  for (int i = 0; i < rounds; ++i) {
    out.push_back(process_set::singleton(pick(process_set::full(n), rng)));
    for (double density : {0.05, 0.3, 0.9})
      out.push_back(subset(process_set::full(n), density));
    if (live.empty()) continue;
    const process_id v = pick(live, rng);
    const process_set scc = g.scc_of(v);
    out.push_back(scc);
    out.push_back(subset(scc, 0.5));
    if (!dead.empty())
      out.push_back(scc | process_set::singleton(pick(dead, rng)));
    out.push_back(g.reaching(v));
    out.push_back(g.reachable_from(v));
  }
  return out;
}

/// Every quorum_system.hpp pattern query against the oracle, for pattern
/// f and the families (reads, writes) extended by probe sets.
void expect_pattern_agrees(const failure_pattern& f, quorum_family reads,
                           quorum_family writes, std::mt19937_64& rng,
                           const std::string& what) {
  const residual_oracle oracle(f.residual());
  const quorum_family extra = probes(oracle.graph(), rng, 2);
  reads.insert(reads.end(), extra.begin(), extra.end());
  writes.insert(writes.end(), extra.begin(), extra.end());

  for (const process_set& q : extra)
    EXPECT_EQ(is_f_available(q, f), oracle.available(q))
        << what << " q=" << q.to_string();
  std::uniform_int_distribution<std::size_t> pick_read(0, reads.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_write(0, writes.size() - 1);
  for (int i = 0; i < 24; ++i) {
    const process_set& w = writes[pick_write(rng)];
    const process_set& r = reads[pick_read(rng)];
    EXPECT_EQ(is_f_reachable_from(w, r, f), oracle.reachable(w, r))
        << what << " w=" << w.to_string() << " r=" << r.to_string();
  }

  const generalized_quorum_system gqs(
      fail_prone_system(f.system_size(), {f}), reads, writes);
  EXPECT_EQ(validating_write_union(gqs, f),
            oracle.validating_union(reads, writes))
      << what;
  EXPECT_EQ(compute_u_f(gqs, f), oracle.u_f(reads, writes)) << what;
  const auto expected = oracle.pairs(reads, writes);
  const auto actual = all_available_pairs(gqs, f);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].write_quorum, expected[i].write_quorum) << what;
    EXPECT_EQ(actual[i].read_quorum, expected[i].read_quorum) << what;
  }
  const auto first = find_available_pair(gqs, f);
  ASSERT_EQ(first.has_value(), !expected.empty()) << what;
  if (first) {
    EXPECT_EQ(first->write_quorum, expected.front().write_quorum) << what;
    EXPECT_EQ(first->read_quorum, expected.front().read_quorum) << what;
  }
}

void expect_check_agrees(const generalized_quorum_system& gqs,
                         const std::string& what) {
  const check_result actual = check_generalized(gqs);
  const check_result expected = oracle_check(gqs);
  EXPECT_EQ(actual.ok, expected.ok) << what;
  EXPECT_EQ(actual.reason, expected.reason) << what;
}

/// `count` scenario patterns over a directed ring: every residual is a
/// chain of SCCs, and most are singletons.
fail_prone_system ring_patterns(process_id n, int count,
                                std::mt19937_64& rng) {
  scenario_params params;
  params.topology.kind = topology_kind::ring;
  params.topology.n = n;
  params.topology.bidirectional = false;
  params.crash_probability = 0.05;
  const digraph ring = make_topology(params.topology);
  fail_prone_system fps(n);
  for (int i = 0; i < count; ++i)
    fps.add(scenario_failure_pattern(ring, params, rng));
  return fps;
}

TEST(ResidualView, TopologyCorpusAgreesWithOracle) {
  int checked = 0, admitted = 0, unavailable = 0;
  for (const scenario_family& family : topology_corpus(256)) {
    std::mt19937_64 rng(family.name.size() * 7919 + 11);
    const fail_prone_system fps = scenario_system(family.params, rng);
    const auto witness = find_gqs(fps);
    quorum_family reads, writes;
    if (witness) {
      reads = witness->system.reads;
      writes = witness->system.writes;
      expect_check_agrees(witness->system, family.name + " witness");
      // The same quorums against a fresh draw of the family: consistent,
      // but often unavailable under some new pattern.
      const generalized_quorum_system fresh(
          scenario_system(family.params, rng), reads, writes);
      unavailable += !check_generalized(fresh).ok;
      expect_check_agrees(fresh, family.name + " fresh");
      ++admitted;
    }
    for (std::size_t k = 0; k < fps.size(); ++k)
      expect_pattern_agrees(fps[k], reads, writes, rng,
                            family.name + " #" + std::to_string(k));
    ++checked;
  }
  EXPECT_EQ(checked, 91);
  EXPECT_GT(admitted, 0);
  EXPECT_GT(unavailable, 0);
}

TEST(ResidualView, Figure1AndExample9AgreeWithOracle) {
  std::mt19937_64 rng(4);
  const auto fig = make_figure1();
  expect_check_agrees(fig.gqs, "figure1");
  for (std::size_t k = 0; k < fig.gqs.fps.size(); ++k)
    expect_pattern_agrees(fig.gqs.fps[k], fig.gqs.reads, fig.gqs.writes,
                          rng, "figure1 #" + std::to_string(k));
  // Figure 1's quorums under F′ fail availability at f1′.
  const fail_prone_system example9 = make_example9_variant();
  const generalized_quorum_system broken(example9, fig.gqs.reads,
                                         fig.gqs.writes);
  EXPECT_FALSE(check_generalized(broken).ok);
  expect_check_agrees(broken, "example9");
  for (std::size_t k = 0; k < example9.size(); ++k)
    expect_pattern_agrees(example9[k], fig.gqs.reads, fig.gqs.writes, rng,
                          "example9 #" + std::to_string(k));
}

TEST(ResidualView, StructuredFactoriesAcrossWordBoundaries) {
  for (process_id n : {63u, 64u, 65u, 128u, 256u}) {
    std::mt19937_64 rng(n);
    const std::pair<const char*, generalized_quorum_system> systems[] = {
        {"grid", grid_quorum_system(n)},
        {"tree", tree_quorum_system(n)},
        {"clusters", hierarchical_quorum_system(n)}};
    for (const auto& [name, qs] : systems) {
      const std::string what = std::string(name) + std::to_string(n);
      // Three of the system's single-crash patterns pass availability;
      // adding directed-ring patterns makes it fail.
      fail_prone_system sampled(n);
      for (process_id p : {process_id{0}, n / 2, n - 1})
        sampled.add(qs.fps[p]);
      const generalized_quorum_system valid(sampled, qs.reads, qs.writes);
      EXPECT_TRUE(check_generalized(valid).ok) << what;
      expect_check_agrees(valid, what);
      fail_prone_system harsh = sampled;
      for (const failure_pattern& f : ring_patterns(n, 2, rng)) harsh.add(f);
      const generalized_quorum_system broken(harsh, qs.reads, qs.writes);
      EXPECT_FALSE(check_generalized(broken).ok) << what;
      expect_check_agrees(broken, what + " harsh");
      for (std::size_t k = 0; k < harsh.size(); ++k)
        expect_pattern_agrees(harsh[k], qs.reads, qs.writes, rng,
                              what + " #" + std::to_string(k));
    }
  }
}

// The availability estimator's view: a base topology restricted to the
// processes alive in one trial, compiled without a residual digraph.
TEST(ResidualView, TopologyAliveViewAgreesWithOracle) {
  int views = 0;
  for (const scenario_family& family : topology_corpus(256)) {
    if (family.params.topology.n < 12) continue;
    std::mt19937_64 rng(family.name.size() * 31 + 3);
    const digraph topology = make_topology(family.params.topology);
    const process_id n = topology.vertex_count();
    std::bernoulli_distribution survives(0.8);
    process_set alive;
    for (process_id p = 0; p < n; ++p)
      if (survives(rng)) alive.insert(p);
    digraph residual = topology;
    residual.remove_vertices(alive.complement_in(n));
    const residual_oracle oracle(residual);

    const pattern_table view = build_pattern_table(topology, alive);
    EXPECT_EQ(view.correct, residual.present()) << family.name;
    for (process_id v : view.correct) {
      EXPECT_EQ(view.scc(v), residual.scc_of(v)) << family.name << " v=" << v;
      process_set from;  // the components whose reach_to holds v
      for (std::size_t i = 0; i < view.components.size(); ++i)
        if (view.reach_to[i].contains(v)) from |= view.components[i];
      EXPECT_EQ(from, residual.reachable_from(v))
          << family.name << " v=" << v;
    }

    const quorum_family reads = probes(residual, rng, 3);
    const quorum_family writes = probes(residual, rng, 3);
    for (const process_set& q : writes)
      EXPECT_EQ(view.available(q), oracle.available(q)) << family.name;
    for (const process_set& r : reads)
      EXPECT_EQ(view.reachable(writes[1], r), oracle.reachable(writes[1], r))
          << family.name;
    const auto expected = oracle.pairs(reads, writes);
    EXPECT_EQ(view.admits(reads, writes), !expected.empty()) << family.name;
    const auto actual =
        available_pairs_in(reads, writes, residual.present(), residual);
    ASSERT_EQ(actual.size(), expected.size()) << family.name;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].write_quorum, expected[i].write_quorum);
      EXPECT_EQ(actual[i].read_quorum, expected[i].read_quorum);
    }
    EXPECT_EQ(
        available_pairs_in(reads, writes, residual.present(), residual, true)
            .size(),
        expected.empty() ? 0u : 1u)
        << family.name;
    ++views;
  }
  EXPECT_EQ(views, 70);
}

}  // namespace
}  // namespace gqs
