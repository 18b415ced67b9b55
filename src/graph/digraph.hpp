// digraph.hpp — directed graphs over process vertices.
//
// Used for two distinct purposes in the library:
//  * the network graph G = (P, C) of the paper and its residual graphs G\f;
//  * plain edge sets (a failure pattern's set C of faulty channels is stored
//    as a digraph whose edges are exactly the channels allowed to fail).
//
// Vertices are process ids 0..n-1. Adjacency is one process_set per
// vertex, so reachability and SCC computations are bit-parallel O(words)
// word operations at any capacity. A digraph also carries a set of
// *present* vertices so that residual graphs (with crashed processes
// removed) keep the original vertex numbering.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "graph/process_set.hpp"

namespace gqs {

/// A directed edge (channel) from `from` to `to`.
struct edge {
  process_id from = 0;
  process_id to = 0;

  constexpr bool operator==(const edge&) const noexcept = default;
  constexpr bool operator<(const edge& o) const noexcept {
    return from != o.from ? from < o.from : to < o.to;
  }
};

/// Directed graph over vertices 0..n-1 with an explicit present-vertex set.
class digraph {
 public:
  digraph() = default;

  /// An edgeless graph with all n vertices present.
  explicit digraph(process_id n);

  /// The complete directed graph on n vertices (every ordered pair of
  /// distinct vertices is an edge) — the paper's network graph G.
  static digraph complete(process_id n);

  /// The graph on n = out_rows.size() vertices, all present, whose
  /// successor set of v is out_rows[v]: the bulk form of add_edge for every
  /// (v, w) with w in out_rows[v]. Each row is validated with word
  /// operations and the reverse adjacency is derived by a 64×64 block bit
  /// transpose. Throws what add_edge throws: std::out_of_range for a member
  /// (or an n) beyond the graph, std::invalid_argument for a self-loop.
  static digraph from_rows(std::vector<process_set> out_rows);

  process_id vertex_count() const noexcept { return n_; }
  process_set present() const noexcept { return present_; }
  bool is_present(process_id v) const { return present_.contains(v); }

  /// Number of edges between present vertices.
  int edge_count() const;

  void add_edge(process_id from, process_id to);
  void add_edge(edge e) { add_edge(e.from, e.to); }
  void remove_edge(process_id from, process_id to);
  bool has_edge(process_id from, process_id to) const;

  /// Successors of v among present vertices. O(1).
  process_set out_neighbors(process_id v) const;
  /// Predecessors of v among present vertices. O(1) — a reverse adjacency
  /// mask is maintained alongside the forward one.
  process_set in_neighbors(process_id v) const;

  /// All edges between present vertices, sorted.
  std::vector<edge> edges() const;

  /// Removes the vertices in `victims` (and implicitly their incident
  /// edges) by marking them absent. Numbering of the remaining vertices is
  /// unchanged.
  void remove_vertices(process_set victims);

  /// Removes every edge that appears in `other` (interpreted as an edge
  /// set). Vertex presence is unchanged.
  void remove_edges_of(const digraph& other);

  /// Set of present vertices reachable from v (including v itself).
  process_set reachable_from(process_id v) const;

  /// Set of present vertices that can reach v (including v itself).
  process_set reaching(process_id v) const;

  /// True iff every member of `targets` is reachable from `source`.
  bool reaches_all(process_id source, process_set targets) const;

  /// The set { p present : every member of `targets` is reachable from p }.
  /// This is the paper's maximal read-quorum candidate for a write quorum
  /// `targets` (it always contains `targets` itself when `targets` is
  /// strongly connected).
  process_set reach_to_all(process_set targets) const;

  /// Strongly connected components of the subgraph induced by present
  /// vertices (Tarjan). Singleton components are included. The order is
  /// a reverse topological order of the component DAG.
  std::vector<process_set> sccs() const;

  /// The SCC containing v. Precondition: v present.
  process_set scc_of(process_id v) const;

  /// True iff all members of q are present and pairwise mutually reachable
  /// in this graph (paths may pass through any present vertex). Equivalent
  /// to: q is contained in a single SCC. The empty set and singletons are
  /// strongly connected.
  bool strongly_connects(process_set q) const;

  /// Transitive closure: the graph with an edge (u, v) whenever v is
  /// reachable from u via a non-empty path. Used to realize the paper's
  /// WLOG transitivity assumption in analyses (the simulator realizes it by
  /// flooding instead).
  digraph transitive_closure() const;

  bool operator==(const digraph&) const = default;

  /// GraphViz rendering; `names[v]` labels vertex v (defaults to numbers).
  std::string to_dot(const std::vector<std::string>& names = {}) const;

 private:
  void check_vertex(process_id v) const;
  void rebuild_in();  // in_ = transpose of out_ (bulk edge rewrites)

  process_id n_ = 0;
  process_set present_;
  std::vector<process_set> out_;  // out_[v] = successor set (may contain
                                  // absent vertices; masked on access)
  std::vector<process_set> in_;   // in_[v] = predecessor set, kept in
                                  // lockstep with out_
};

}  // namespace gqs
