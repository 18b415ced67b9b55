#include "graph/digraph.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

namespace gqs {

namespace {

// In-place transpose of a 64×64 bit matrix, row r in a[r], column c at bit
// c: afterwards bit c of a[r] is the old bit r of a[c]. Swaps the
// off-diagonal j×j blocks for j = 32, 16, ..., 1 (Hacker's Delight §7-3,
// written for least-significant-bit-first columns).
void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j)
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
}

}  // namespace

digraph::digraph(process_id n)
    : n_(n), present_(process_set::full(n)), out_(n), in_(n) {}

digraph digraph::complete(process_id n) {
  digraph g(n);
  const process_set all = process_set::full(n);
  for (process_id v = 0; v < n; ++v) {
    g.out_[v] = all - process_set::singleton(v);
    g.in_[v] = g.out_[v];
  }
  return g;
}

digraph digraph::from_rows(std::vector<process_set> out_rows) {
  if (out_rows.size() > process_set::max_processes)
    throw std::out_of_range("digraph: vertex out of range");
  digraph g;
  g.n_ = static_cast<process_id>(out_rows.size());
  g.present_ = process_set::full(g.n_);
  for (process_id v = 0; v < g.n_; ++v) {
    if (!out_rows[v].is_subset_of(g.present_))
      throw std::out_of_range("digraph: vertex out of range");
    if (out_rows[v].test(v)) throw std::invalid_argument("digraph: self-loop");
  }
  g.out_ = std::move(out_rows);
  g.rebuild_in();
  return g;
}

void digraph::rebuild_in() {
  // Block (bi, bj) of the adjacency matrix holds the edges from vertices
  // 64·bi.. to vertices 64·bj..; its transpose is block (bj, bi) of the
  // reverse matrix. Words past ⌈n/64⌉ are zero on both sides.
  using word = process_set::word_type;
  const std::size_t nw = process_set::words_for(n_);
  in_.resize(n_);
  std::array<std::array<word, 64>, process_set::word_count> column;
  for (std::size_t bj = 0; bj < nw; ++bj) {
    for (std::size_t bi = 0; bi < nw; ++bi) {
      for (std::size_t r = 0; r < 64; ++r) {
        const std::size_t u = bi * 64 + r;
        column[bi][r] = u < n_ ? out_[u].word(bj) : 0;
      }
      transpose64(column[bi]);
    }
    for (std::size_t c = 0; c < 64 && bj * 64 + c < n_; ++c) {
      std::array<word, process_set::word_count> in_row{};
      for (std::size_t bi = 0; bi < nw; ++bi) in_row[bi] = column[bi][c];
      in_[bj * 64 + c] = process_set::from_words(in_row);
    }
  }
}

void digraph::check_vertex(process_id v) const {
  if (v >= n_) throw std::out_of_range("digraph: vertex out of range");
}

int digraph::edge_count() const {
  int total = 0;
  for (process_id v : present_) total += (out_[v] & present_).size();
  return total;
}

void digraph::add_edge(process_id from, process_id to) {
  check_vertex(from);
  check_vertex(to);
  if (from == to) throw std::invalid_argument("digraph: self-loop");
  out_[from].insert(to);
  in_[to].insert(from);
}

void digraph::remove_edge(process_id from, process_id to) {
  check_vertex(from);
  check_vertex(to);
  out_[from].erase(to);
  in_[to].erase(from);
}

bool digraph::has_edge(process_id from, process_id to) const {
  check_vertex(from);
  check_vertex(to);
  if (!present_.test(from) || !present_.test(to)) return false;
  return out_[from].test(to);
}

process_set digraph::out_neighbors(process_id v) const {
  check_vertex(v);
  if (!present_.test(v)) return {};
  return out_[v] & present_;
}

process_set digraph::in_neighbors(process_id v) const {
  check_vertex(v);
  if (!present_.test(v)) return {};
  return in_[v] & present_;
}

std::vector<edge> digraph::edges() const {
  std::vector<edge> result;
  for (process_id u : present_)
    for (process_id v : out_neighbors(u)) result.push_back({u, v});
  return result;
}

void digraph::remove_vertices(process_set victims) {
  present_ -= victims;
}

void digraph::remove_edges_of(const digraph& other) {
  if (other.vertex_count() != n_)
    throw std::invalid_argument("digraph: edge-set size mismatch");
  for (process_id v = 0; v < n_; ++v) {
    out_[v] -= other.out_[v];
    in_[v] -= other.in_[v];
  }
}

process_set digraph::reachable_from(process_id v) const {
  check_vertex(v);
  if (!present_.test(v)) return {};
  // Prefix-bounded algebra: every set here lives in {0..n-1}, so the BFS
  // touches only words_for(n) words per operation.
  const std::size_t nw = process_set::words_for(n_);
  process_set visited = process_set::singleton(v);
  process_set frontier = visited;
  while (!frontier.empty(nw)) {
    process_set next;
    // Drain the frontier in place (it is rebuilt each round anyway):
    // take_first keeps the set register-resident where the iterator's
    // runtime word index would spill it.
    while (!frontier.empty(nw))
      next.or_with(out_[frontier.take_first(nw)], nw);
    next.and_with(present_, nw);
    next.subtract(visited, nw);
    visited.or_with(next, nw);
    frontier = next;
  }
  return visited;
}

process_set digraph::reaching(process_id v) const {
  check_vertex(v);
  if (!present_.test(v)) return {};
  // Backward BFS over the reverse adjacency sets.
  const std::size_t nw = process_set::words_for(n_);
  process_set visited = process_set::singleton(v);
  process_set frontier = visited;
  while (!frontier.empty(nw)) {
    process_set next;
    while (!frontier.empty(nw))
      next.or_with(in_[frontier.take_first(nw)], nw);
    next.and_with(present_, nw);
    next.subtract(visited, nw);
    visited.or_with(next, nw);
    frontier = next;
  }
  return visited;
}

bool digraph::reaches_all(process_id source, process_set targets) const {
  return targets.is_subset_of(reachable_from(source),
                              process_set::words_for(n_));
}

process_set digraph::reach_to_all(process_set targets) const {
  process_set result;
  for (process_id u : present_)
    if (reaches_all(u, targets)) result.insert(u);
  return result;
}

namespace {

// Iterative Tarjan over process_set adjacency rows.
struct tarjan_state {
  const std::vector<process_set>& out;
  process_set live;
  std::size_t nw;  // prefix word budget: all sets live in {0..n-1}
  std::vector<int> index, lowlink;
  std::vector<bool> on_stack;
  std::vector<process_id> stack;
  std::vector<process_set> components;
  int next_index = 0;

  explicit tarjan_state(const std::vector<process_set>& adjacency,
                        process_set live_set, std::size_t n)
      : out(adjacency),
        live(live_set),
        nw(process_set::words_for(static_cast<process_id>(n))),
        index(n, -1),
        lowlink(n, 0),
        on_stack(n, false) {}

  void run(process_id root) {
    // Explicit DFS stack of (vertex, remaining-successor set) to avoid
    // recursion depth issues.
    struct frame {
      process_id v;
      process_set remaining;
    };
    std::vector<frame> dfs;
    auto open = [&](process_id v) {
      index[v] = lowlink[v] = next_index++;
      stack.push_back(v);
      on_stack[v] = true;
      frame f{v, out[v]};
      f.remaining.and_with(live, nw);
      dfs.push_back(f);
    };
    open(root);
    while (!dfs.empty()) {
      frame& top = dfs.back();
      if (!top.remaining.empty(nw)) {
        const process_id w = top.remaining.take_first(nw);
        if (index[w] < 0) {
          open(w);
        } else if (on_stack[w]) {
          lowlink[top.v] = std::min(lowlink[top.v], index[w]);
        }
      } else {
        const process_id v = top.v;
        dfs.pop_back();
        if (!dfs.empty())
          lowlink[dfs.back().v] = std::min(lowlink[dfs.back().v], lowlink[v]);
        if (lowlink[v] == index[v]) {
          process_set component;
          process_id w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component.insert(w);
          } while (w != v);
          components.push_back(component);
        }
      }
    }
  }
};

}  // namespace

std::vector<process_set> digraph::sccs() const {
  tarjan_state t(out_, present_, n_);
  for (process_id v : present_)
    if (t.index[v] < 0) t.run(v);
  return t.components;
}

process_set digraph::scc_of(process_id v) const {
  check_vertex(v);
  if (!present_.test(v))
    throw std::invalid_argument("digraph::scc_of: vertex not present");
  // v's SCC = (vertices reachable from v) ∩ (vertices reaching v).
  const process_set forward = reachable_from(v);
  process_set component;
  for (process_id u : forward)
    if (reachable_from(u).contains(v)) component.insert(u);
  return component;
}

bool digraph::strongly_connects(process_set q) const {
  if (!q.is_subset_of(present_)) return false;
  if (q.size() <= 1) return true;
  return q.is_subset_of(scc_of(q.first()));
}

digraph digraph::transitive_closure() const {
  digraph closure(n_);
  closure.present_ = present_;
  for (process_id v : present_) {
    // v may reach itself around a cycle, but self-loops are disallowed in
    // the channel model, so (v, v) is never recorded.
    process_set reach = reachable_from(v);
    reach.erase(v);
    closure.out_[v] = reach;
  }
  closure.rebuild_in();
  return closure;
}

std::string digraph::to_dot(const std::vector<std::string>& names) const {
  auto name = [&](process_id v) {
    return v < names.size() ? names[v] : std::to_string(v);
  };
  std::string dot = "digraph G {\n";
  for (process_id v : present_) dot += "  " + name(v) + ";\n";
  for (const edge& e : edges())
    dot += "  " + name(e.from) + " -> " + name(e.to) + ";\n";
  dot += "}\n";
  return dot;
}

}  // namespace gqs
