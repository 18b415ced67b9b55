#include "core/pattern_table.hpp"

#include <algorithm>

namespace gqs {

namespace {

/// Allocation-light Tarjan over process_set adjacency rows; emits
/// components into `out` in reverse topological order (sinks first), the
/// same contract as digraph::sccs(). Scratch is sized to the system once —
/// table construction is the hot path of every existence decision and the
/// general digraph implementation spends most of its time in small-vector
/// churn at these sizes.
struct scc_scratch {
  std::vector<process_set> adj;
  std::size_t nw;  // prefix word budget: all sets live in {0..n-1}
  std::vector<int> index;
  std::vector<int> lowlink;
  std::vector<char> on_stack;
  std::vector<process_id> stack;
  struct frame {
    process_id v;
    process_set remaining;
  };
  std::vector<frame> dfs;
  int sp = 0, fp = 0, next_index = 0;

  explicit scc_scratch(process_id n)
      : adj(n), nw(process_set::words_for(n)), index(n, -1), lowlink(n, 0),
        on_stack(n, 0), stack(n), dfs(n) {}

  void run(process_id root, const process_set& live,
           std::vector<process_set>& out) {
    auto open = [&](process_id v) {
      index[v] = lowlink[v] = next_index++;
      stack[static_cast<std::size_t>(sp++)] = v;
      on_stack[v] = 1;
      frame& f = dfs[static_cast<std::size_t>(fp++)];
      f.v = v;
      f.remaining = adj[v];
      f.remaining.and_with(live, nw);
    };
    open(root);
    while (fp > 0) {
      frame& top = dfs[static_cast<std::size_t>(fp - 1)];
      if (!top.remaining.empty(nw)) {
        const process_id w = top.remaining.take_first(nw);
        if (index[w] < 0) {
          open(w);
        } else if (on_stack[w]) {
          lowlink[top.v] = std::min(lowlink[top.v], index[w]);
        }
      } else {
        const process_id v = top.v;
        --fp;
        if (fp > 0) {
          frame& parent = dfs[static_cast<std::size_t>(fp - 1)];
          lowlink[parent.v] = std::min(lowlink[parent.v], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          process_set component;
          process_id w;
          do {
            w = stack[static_cast<std::size_t>(--sp)];
            on_stack[w] = 0;
            component.insert(w);
          } while (w != v);
          out.push_back(component);
        }
      }
    }
  }
};

/// Fills `t` from the adjacency rows in `scratch.adj` over the vertex set
/// `t.correct` (rows must stay inside it).
void compile(process_id n, scc_scratch& scratch, pattern_table& t) {
  const std::size_t nw = scratch.nw;
  t.reach_from.assign(n, process_set{});
  t.scc.assign(n, process_set{});
  t.component_of.assign(n, 0);
  t.components.clear();
  t.reach_to.clear();

  std::vector<process_set> components;
  components.reserve(static_cast<std::size_t>(t.correct.size()));
  for (process_id v : t.correct)
    if (scratch.index[v] < 0) scratch.run(v, t.correct, components);

  // Both reachability closures ride the condensation DAG: components
  // arrive sinks first, so one forward sweep unions each component's
  // successors' closures (reach_from), and one reverse sweep pushes each
  // component's reaching set into its successors (reach_to — for a
  // strongly connected S, "reaches all of S" ≡ "reaches any of S"). Both
  // are O(edges) word operations.
  std::vector<std::uint16_t> comp_of(n, 0);
  for (std::size_t idx = 0; idx < components.size(); ++idx)
    for (process_id v : components[idx])
      comp_of[v] = static_cast<std::uint16_t>(idx);
  std::vector<process_set> comp_reach(components.size());
  std::vector<process_set> comp_reaching(components.size());
  for (std::size_t idx = 0; idx < components.size(); ++idx) {
    const process_set comp = components[idx];
    process_set r = comp;
    for (process_id v : comp) {
      process_set external = scratch.adj[v];
      external.subtract(comp, nw);
      for (process_id w : external) r.or_with(comp_reach[comp_of[w]], nw);
    }
    comp_reach[idx] = r;
    comp_reaching[idx] = comp;
    for (process_id v : comp) {
      t.reach_from[v] = r;
      t.scc[v] = comp;
    }
  }
  for (std::size_t idx = components.size(); idx-- > 0;) {
    const process_set comp = components[idx];
    const process_set reaching = comp_reaching[idx];  // now complete
    for (process_id v : comp) {
      process_set external = scratch.adj[v];
      external.subtract(comp, nw);
      for (process_id w : external)
        comp_reaching[comp_of[w]].or_with(reaching, nw);
    }
  }

  // Sort candidates (size descending, set value as the deterministic
  // tie-break) and carry each component's reach_to along. Sizes are
  // precomputed once outside the comparator: an O(W) popcount per probe
  // dominates the sort at W > 1.
  std::vector<std::uint16_t> order(components.size());
  std::vector<std::uint16_t> sizes(components.size());
  for (std::size_t idx = 0; idx < components.size(); ++idx) {
    order[idx] = static_cast<std::uint16_t>(idx);
    sizes[idx] = static_cast<std::uint16_t>(components[idx].size(nw));
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint16_t a, std::uint16_t b) {
              return sizes[a] != sizes[b] ? sizes[a] > sizes[b]
                                          : components[a] < components[b];
            });
  t.components.reserve(components.size());
  t.reach_to.reserve(components.size());
  for (std::size_t k = 0; k < components.size(); ++k) {
    t.components.push_back(components[order[k]]);
    t.reach_to.push_back(comp_reaching[order[k]]);
    for (process_id v : components[order[k]])
      t.component_of[v] = static_cast<std::uint16_t>(k);
  }
}

}  // namespace

void build_pattern_table_into(const failure_pattern& f, pattern_table& t) {
  const process_id n = f.system_size();
  scc_scratch scratch(n);
  const std::size_t nw = scratch.nw;
  const digraph& faulty = f.faulty_channels();
  t.correct = f.correct();
  for (process_id v : t.correct) {
    process_set row = t.correct;
    row.erase(v);
    row.subtract(faulty.out_neighbors(v), nw);
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
  scc_scratch scratch(n);
  pattern_table t;
  t.correct = network.present() & live;
  for (process_id v : t.correct)
    scratch.adj[v] = network.out_neighbors(v) & t.correct;
  compile(n, scratch, t);
  return t;
}

bool pattern_table::available(process_set q) const {
  return !q.empty() && q.is_subset_of(correct) &&
         q.is_subset_of(scc[q.first()]);
}

bool pattern_table::reachable(process_set w, process_set r) const {
  if (w.empty() || r.empty()) return false;
  if (!w.is_subset_of(correct) || !r.is_subset_of(correct)) return false;
  for (process_id p : r)
    if (!w.is_subset_of(reach_from[p])) return false;
  return true;
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
  return u.empty() ? u : scc[u.first()];
}

}  // namespace gqs
