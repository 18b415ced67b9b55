#include "core/pattern_table.hpp"

#include <algorithm>

namespace gqs {

namespace {

/// Per-thread scratch for compile(), grown to the largest system seen, so
/// a build allocates only the table's own vectors. Table construction is
/// the hot path of every existence decision and GQS check.
struct build_scratch {
  std::vector<process_set> adj;    // residual out-rows, by vertex
  std::vector<process_set> below;  // below[v]: the stack when v opened
  struct frame {
    process_id v;
    process_set rest;  // out-neighbours not yet tried
  };
  std::vector<frame> dfs;
  std::vector<process_id> roots;          // the path's component roots
  std::vector<process_set> components;    // sinks first
  std::vector<process_set> succ;          // out-neighbours outside each
  std::vector<process_set> comp_reach;    // closure of each component
  std::vector<process_set> comp_reaching; // what reaches each component
  std::vector<std::uint16_t> comp_of, rank;
  std::vector<std::uint64_t> order;  // sort keys, index in the low bits

  /// Path-based SCC (Gabow) over the rows in `adj` restricted to `live`;
  /// emits components sinks first, the same contract as digraph::sccs().
  /// Word-parallel: all of a vertex's edges back into the stack are one
  /// set, tested against each root it merges, and a finished root's
  /// component is one set difference — O(n · nw) word operations, not
  /// O(edges).
  void run(process_set live, std::size_t nw) {
    process_set unvisited = live, on_stack;
    components.clear();
    auto open = [&](process_id v) {
      below[v] = on_stack;
      on_stack.insert(v);
      unvisited.erase(v);
      roots.push_back(v);
      // Gabow's rule for every edge into the stack at once: merge roots
      // until the top root opened no later than each target. Edges to
      // vertices opened after v never merge roots, so v's back edges are
      // all known here and no later step of its frame needs the test.
      // The tree's first root has nothing below it, so roots never empty.
      const process_set back = adj[v] & below[v];
      while (back.intersects(below[roots.back()], nw)) roots.pop_back();
      dfs.push_back(frame{v, adj[v]});
    };
    while (!unvisited.empty(nw)) {
      open(unvisited.first());
      while (!dfs.empty()) {
        frame& top = dfs.back();
        top.rest.and_with(unvisited, nw);
        if (!top.rest.empty(nw)) {
          open(top.rest.take_first(nw));
          continue;
        }
        const process_id v = top.v;
        dfs.pop_back();
        if (roots.back() != v) continue;
        roots.pop_back();
        components.push_back(on_stack - below[v]);
        on_stack = below[v];
      }
    }
  }
};

/// This thread's scratch, sized for an n-process system.
build_scratch& scratch_for(process_id n) {
  thread_local build_scratch s;
  s.adj.resize(n);
  s.below.resize(n);
  s.comp_of.resize(n);
  return s;
}

/// Fills `t` from the adjacency rows in `s.adj` over the vertex set
/// `t.correct` (rows must stay inside it).
void compile(process_id n, build_scratch& s, pattern_table& t) {
  const std::size_t nw = process_set::words_for(n);
  t.component_of.assign(n, 0);
  t.components.clear();
  t.reach_to.clear();
  s.run(t.correct, nw);
  const std::vector<process_set>& components = s.components;
  const std::size_t k = components.size();
  s.succ.resize(k);
  s.comp_reach.resize(k);
  s.comp_reaching.resize(k);
  s.order.resize(k);
  s.rank.resize(k);

  // Both reachability closures ride the condensation DAG, visiting each
  // successor component once rather than each edge: components arrive
  // sinks first, so one forward sweep ORs in one successor's closure and
  // drops every vertex it covers (reach_from), and one reverse sweep
  // pushes each component's reaching set into its successors, skipping
  // any that a pushed-to successor already reaches (reach_to — for a
  // strongly connected S, "reaches all of S" ≡ "reaches any of S").
  for (std::size_t idx = 0; idx < k; ++idx) {
    const process_set comp = components[idx];
    process_set out;
    std::uint64_t size = 0, top = 0;  // the drain ends on the top member
    for (process_set rest = comp; !rest.empty(nw); ++size) {
      top = rest.take_first(nw);
      s.comp_of[top] = static_cast<std::uint16_t>(idx);
      out.or_with(s.adj[top], nw);
    }
    // Sort key: size descending, then set value (SCCs are disjoint, so of
    // two equal-size components the larger set holds the larger top
    // member), then the index, carried in the low bits.
    s.order[idx] = (process_set::max_processes - size) << 32 | top << 16 | idx;
    out.subtract(comp, nw);
    s.succ[idx] = out;
    process_set r = comp;
    while (!out.empty(nw)) {
      r.or_with(s.comp_reach[s.comp_of[out.take_first(nw)]], nw);
      out.subtract(r, nw);
    }
    s.comp_reach[idx] = r;
    s.comp_reaching[idx] = comp;
  }
  for (std::size_t idx = k; idx-- > 0;) {
    const process_set reaching = s.comp_reaching[idx];  // now complete
    process_set out = s.succ[idx];
    while (!out.empty(nw)) {
      const std::uint16_t c = s.comp_of[out.take_first(nw)];
      s.comp_reaching[c].or_with(reaching, nw);
      out.subtract(s.comp_reach[c], nw);
    }
  }

  // Candidates in key order, each carrying its reach_to along.
  std::sort(s.order.begin(), s.order.end());
  t.components.reserve(k);
  t.reach_to.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t idx = s.order[i] & 0xffff;
    t.components.push_back(components[idx]);
    t.reach_to.push_back(s.comp_reaching[idx]);
    s.rank[idx] = static_cast<std::uint16_t>(i);
  }
  for (process_set rest = t.correct; !rest.empty(nw);) {
    const process_id v = rest.take_first(nw);
    t.component_of[v] = s.rank[s.comp_of[v]];
  }
}

}  // namespace

void build_pattern_table_into(const failure_pattern& f, pattern_table& t) {
  const process_id n = f.system_size();
  build_scratch& scratch = scratch_for(n);
  const std::size_t nw = process_set::words_for(n);
  const std::vector<process_set>& faulty = f.faulty_rows();
  t.correct = f.correct();
  for (process_id v : t.correct) {
    process_set row = t.correct;
    row.erase(v);
    row.subtract(faulty[v], nw);
    scratch.adj[v] = row;
  }
  compile(n, scratch, t);
}

pattern_table build_pattern_table(const failure_pattern& f) {
  pattern_table t;
  build_pattern_table_into(f, t);
  return t;
}

pattern_table build_pattern_table(const digraph& network, process_set live) {
  const process_id n = network.vertex_count();
  build_scratch& scratch = scratch_for(n);
  pattern_table t;
  t.correct = network.present() & live;
  for (process_id v : t.correct)
    scratch.adj[v] = network.out_neighbors(v) & t.correct;
  compile(n, scratch, t);
  return t;
}

bool pattern_table::available(process_set q) const {
  return !q.empty() && q.is_subset_of(correct) &&
         q.is_subset_of(scc(q.first()));
}

bool pattern_table::reachable(process_set w, process_set r) const {
  if (w.empty() || r.empty()) return false;
  if (!w.is_subset_of(correct) || !r.is_subset_of(correct)) return false;
  // Reaching one member of a strongly connected set reaches all of it, so
  // r must lie in the reach_to of each component w meets.
  process_set readers = correct;
  for (process_set rest = w; !rest.empty(); rest -= scc(rest.first()))
    readers &= reach_to[component_of[rest.first()]];
  return r.is_subset_of(readers);
}

bool pattern_table::validates(process_set w,
                              const quorum_family& reads) const {
  if (!available(w)) return false;
  const process_set reach = readers(w);
  return std::any_of(reads.begin(), reads.end(), [&](const process_set& r) {
    return !r.empty() && r.is_subset_of(reach);
  });
}

bool pattern_table::admits(const quorum_family& reads,
                           const quorum_family& writes) const {
  return std::any_of(writes.begin(), writes.end(),
                     [&](const process_set& w) { return validates(w, reads); });
}

std::vector<available_pair> pattern_table::pairs(const quorum_family& reads,
                                                 const quorum_family& writes,
                                                 bool first_only) const {
  std::vector<available_pair> out;
  for (const process_set& w : writes) {
    if (!available(w)) continue;
    const process_set reach = readers(w);
    for (const process_set& r : reads) {
      if (r.empty() || !r.is_subset_of(reach)) continue;
      out.push_back(available_pair{w, r});
      if (first_only) return out;
    }
  }
  return out;
}

process_set pattern_table::validating_union(
    const quorum_family& reads, const quorum_family& writes) const {
  process_set u;
  for (const process_set& w : writes)
    if (validates(w, reads)) u |= w;
  return u;
}

process_set pattern_table::u_f(const quorum_family& reads,
                               const quorum_family& writes) const {
  const process_set u = validating_union(reads, writes);
  // Proposition 1: u is strongly connected in G \ f, so it sits inside a
  // single SCC; U_f is that whole component.
  return u.empty() ? u : scc(u.first());
}

}  // namespace gqs
