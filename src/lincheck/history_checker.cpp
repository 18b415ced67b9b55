#include "lincheck/history_checker.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

namespace gqs {

const char* to_string(dep_edge kind) {
  switch (kind) {
    case dep_edge::rt:
      return "rt";
    case dep_edge::wr:
      return "wr";
    case dep_edge::ww:
      return "ww";
    case dep_edge::rw:
      return "rw";
  }
  return "?";
}

std::string describe_cycle(
    const std::vector<cycle_edge>& cycle,
    const std::function<const register_op*(std::uint64_t)>& op_of) {
  std::string s;
  for (const cycle_edge& e : cycle) {
    s += "#" + std::to_string(e.from);
    if (const register_op* op = op_of ? op_of(e.from) : nullptr)
      s += " " + op->to_string();
    s += " →";
    s += to_string(e.kind);
    s += " ";
  }
  if (!cycle.empty()) s += "#" + std::to_string(cycle.front().from);
  return s;
}

namespace {

constexpr std::int64_t kMaxKey = std::numeric_limits<std::int64_t>::max();

/// Directed graph with a Pearce–Kelly incrementally maintained topological
/// order. add_edge detects the first cycle at the insertion that closes it
/// and extracts it; nodes can be removed eagerly (window retirement).
///
/// Node payloads ≥ 0 are caller op ids; payload −1 marks internal timeline
/// (response-event) nodes, which cycle extraction collapses into single rt
/// edges between the surrounding ops.
class pk_graph {
 public:
  int add_node(std::int64_t payload) {
    int v;
    if (!free_.empty()) {
      v = free_.back();
      free_.pop_back();
    } else {
      v = static_cast<int>(out_.size());
      out_.emplace_back();
      in_.emplace_back();
      ord_.push_back(0);
      payload_.push_back(0);
      visit_.push_back(0);
      parent_.push_back(-1);
      pkind_.push_back(dep_edge::rt);
    }
    out_[v].clear();
    in_[v].clear();
    ord_[v] = next_ord_++;
    payload_[v] = payload;
    return v;
  }

  void remove_node(int v) {
    for (const out_edge& e : out_[v]) erase_in(e.to, v);
    for (int u : in_[v]) erase_out(u, v);
    out_[v].clear();
    in_[v].clear();
    free_.push_back(v);
  }

  /// False when (x → y) closes a cycle; cycle()/cycle_nodes() then hold it.
  bool add_edge(int x, int y, dep_edge kind) {
    out_[x].push_back({y, kind});
    in_[y].push_back(x);
    if (ord_[x] < ord_[y]) return true;
    ++epoch_;
    fwd_.clear();
    bwd_.clear();
    if (forward_reaches(y, x)) {
      build_cycle(x, y, kind);
      return false;
    }
    backward_collect(x, ord_[y]);
    reorder();
    return true;
  }

  const std::vector<cycle_edge>& cycle() const { return cycle_; }
  /// Graph node of each cycle edge's `from` op (for rendering).
  const std::vector<int>& cycle_nodes() const { return cycle_nodes_; }
  std::size_t node_capacity() const { return out_.size(); }

 private:
  struct out_edge {
    int to;
    dep_edge kind;
  };

  void erase_in(int u, int v) {
    auto& es = in_[u];
    for (std::size_t i = 0; i < es.size();)
      if (es[i] == v) {
        es[i] = es.back();
        es.pop_back();
      } else {
        ++i;
      }
  }

  void erase_out(int u, int v) {
    auto& es = out_[u];
    for (std::size_t i = 0; i < es.size();)
      if (es[i].to == v) {
        es[i] = es.back();
        es.pop_back();
      } else {
        ++i;
      }
  }

  /// Forward DFS from y over nodes with ord < ord[x]; true iff x is
  /// reached (parent_/pkind_ then trace the path y ⇝ x).
  bool forward_reaches(int y, int x) {
    const std::int64_t ub = ord_[x];
    visit_[y] = epoch_;
    parent_[y] = -1;
    stack_.clear();
    stack_.push_back(y);
    fwd_.push_back(y);
    while (!stack_.empty()) {
      const int u = stack_.back();
      stack_.pop_back();
      for (const out_edge& e : out_[u]) {
        const int v = e.to;
        if (v == x) {
          parent_[x] = u;
          pkind_[x] = e.kind;
          return true;
        }
        if (ord_[v] >= ub || visit_[v] == epoch_) continue;
        visit_[v] = epoch_;
        parent_[v] = u;
        pkind_[v] = e.kind;
        fwd_.push_back(v);
        stack_.push_back(v);
      }
    }
    return false;
  }

  /// Backward DFS from x over nodes with ord > lb. Disjoint from the
  /// forward set (an overlap would have been a cycle), so the shared
  /// visit_ epoch is safe.
  void backward_collect(int x, std::int64_t lb) {
    visit_[x] = epoch_;
    stack_.clear();
    stack_.push_back(x);
    bwd_.push_back(x);
    while (!stack_.empty()) {
      const int u = stack_.back();
      stack_.pop_back();
      for (int w : in_[u]) {
        if (ord_[w] <= lb || visit_[w] == epoch_) continue;
        visit_[w] = epoch_;
        bwd_.push_back(w);
        stack_.push_back(w);
      }
    }
  }

  /// Pearce–Kelly reorder: the affected nodes keep their pool of order
  /// values, ancestors (B) taking the smaller ones ahead of descendants
  /// (F), both sides preserving their relative order.
  void reorder() {
    const auto by_ord = [this](int a, int b) { return ord_[a] < ord_[b]; };
    std::sort(fwd_.begin(), fwd_.end(), by_ord);
    std::sort(bwd_.begin(), bwd_.end(), by_ord);
    pool_.clear();
    for (int v : bwd_) pool_.push_back(ord_[v]);
    for (int v : fwd_) pool_.push_back(ord_[v]);
    std::sort(pool_.begin(), pool_.end());
    std::size_t i = 0;
    for (int v : bwd_) ord_[v] = pool_[i++];
    for (int v : fwd_) ord_[v] = pool_[i++];
  }

  /// The cycle is the DFS path y ⇝ x plus the closing edge x → y. Runs of
  /// timeline nodes collapse into single rt edges between ops.
  void build_cycle(int x, int y, dep_edge closing) {
    std::vector<int> path;
    for (int v = x; v != y; v = parent_[v]) path.push_back(v);
    path.push_back(y);
    std::reverse(path.begin(), path.end());  // y … x
    // ring[i] = (node, kind of edge to ring[i+1 mod m])
    std::vector<std::pair<int, dep_edge>> ring;
    ring.reserve(path.size());
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      ring.emplace_back(path[i], pkind_[path[i + 1]]);
    ring.emplace_back(path.back(), closing);
    const std::size_t m = ring.size();
    std::size_t s = 0;
    while (s < m && payload_[ring[s].first] < 0) ++s;
    cycle_.clear();
    cycle_nodes_.clear();
    if (s == m) return;  // cannot happen: timeline edges are acyclic
    std::size_t i = s;
    do {
      const int a = ring[i].first;
      const dep_edge kind = ring[i].second;
      std::size_t j = (i + 1) % m;
      bool via_timeline = false;
      while (payload_[ring[j].first] < 0) {
        via_timeline = true;
        j = (j + 1) % m;
      }
      const int b = ring[j].first;
      cycle_.push_back({static_cast<std::uint64_t>(payload_[a]),
                        static_cast<std::uint64_t>(payload_[b]),
                        via_timeline ? dep_edge::rt : kind});
      cycle_nodes_.push_back(a);
      i = j;
    } while (i != s);
    compress_runs();
  }

  /// rt and ww are transitive relations, so a run of consecutive same-kind
  /// edges collapses to its endpoints. The DFS path may ride a ww chain or
  /// rt timeline across most of the graph; without this, counterexamples
  /// on big histories are hundreds of thousands of edges long.
  void compress_runs() {
    const auto transitive = [](dep_edge k) {
      return k == dep_edge::rt || k == dep_edge::ww;
    };
    const std::size_t n = cycle_.size();
    if (n < 2) return;
    // Start at a run boundary so a run never straddles the wrap-around.
    std::size_t start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const dep_edge prev = cycle_[(i + n - 1) % n].kind;
      if (!(transitive(cycle_[i].kind) && cycle_[i].kind == prev)) {
        start = i;
        break;
      }
    }
    std::vector<cycle_edge> edges;
    std::vector<int> nodes;
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t i = (start + t) % n;
      if (!edges.empty() && transitive(edges.back().kind) &&
          edges.back().kind == cycle_[i].kind) {
        edges.back().to = cycle_[i].to;
      } else {
        edges.push_back(cycle_[i]);
        nodes.push_back(cycle_nodes_[i]);
      }
    }
    cycle_ = std::move(edges);
    cycle_nodes_ = std::move(nodes);
  }

  std::vector<std::vector<out_edge>> out_;
  std::vector<std::vector<int>> in_;
  std::vector<std::int64_t> ord_;
  std::vector<std::int64_t> payload_;
  std::vector<std::uint64_t> visit_;
  std::vector<int> parent_;
  std::vector<dep_edge> pkind_;
  std::vector<int> free_;
  std::vector<int> stack_, fwd_, bwd_;
  std::vector<std::int64_t> pool_;
  std::vector<cycle_edge> cycle_;
  std::vector<int> cycle_nodes_;
  std::int64_t next_ord_ = 0;
  std::uint64_t epoch_ = 0;
};

/// A completed op held in the live window.
struct op_rec {
  register_op op;
  std::uint64_t id = 0;
  std::int64_t ret_key = 0;
  bool resolved = false;  ///< reads: observed write is known (or initial)
};

/// The O(1) summary of a retired window: the maximum dependency rank
/// (τ(op), is_read) over retired ops — every non-rt edge strictly
/// increases rank, so an edge back into the retired region exists exactly
/// when a new op's rank fails to exceed this — plus the maximum retired
/// write (version + value) so later reads of it still value-check.
struct frontier_t {
  bool valid = false;
  reg_version ver{};
  bool is_read = false;
  register_op op;  ///< the frontier op, kept for counterexamples
  std::uint64_t id = 0;
  bool has_vmax = false;
  reg_version vmax{};
  reg_value vmax_value = 0;
};

struct timeline_entry {
  std::int64_t key;  ///< response stamp/time this node represents
  int node;
};

/// Per-key state: version-indexed write table, read buckets by observed
/// version, the response timeline, the retirement FIFO and the retired
/// frontier.
struct kstate {
  std::map<reg_version, int> writes;
  std::map<reg_version, std::vector<int>> reads;
  std::deque<timeline_entry> timeline;
  std::deque<int> active;  ///< op nodes in completion order
  std::multiset<std::int64_t> inflight;
  frontier_t frontier;
  std::uint64_t fed = 0;
  std::uint64_t retired = 0;
};

/// The engine behind both checker modes. Feed completed ops in
/// completion order per key; violations latch into result_.
struct checker_core {
  checker_core(service_key keys, reg_value initial, bool retire)
      : ks_(keys), initial_(initial), retire_(retire) {}

  void on_invoke(service_key k, std::int64_t inv_key) {
    if (k >= ks_.size()) return;
    ks_[k].inflight.insert(inv_key);
  }

  void on_complete(service_key k, const register_op& op, std::uint64_t id,
                   std::int64_t inv_key, std::int64_t ret_key) {
    if (!result_.linearizable) return;
    if (k >= ks_.size())
      return fail("operation on key " + std::to_string(k) +
                  " outside the key space: " + op.to_string());
    kstate& s = ks_[k];
    if (retire_) {
      const auto it = s.inflight.find(inv_key);
      if (it != s.inflight.end()) s.inflight.erase(it);
    }
    ++checked_;
    ++s.fed;
    result_.checked_ops = checked_;
    if (ret_key < inv_key)
      return fail("operation returns before invocation: " + op.to_string());
    if (!s.timeline.empty() && ret_key < s.timeline.back().key)
      return fail("completions fed out of order (unstamped history?): " +
                  op.to_string());

    const reg_version initial_version{};
    const frontier_t& f = s.frontier;
    bool resolved = false;
    int wnode = -1;
    if (op.kind == reg_op_kind::write) {
      if (!(op.version > initial_version))
        return fail("write with initial version: " + op.to_string());
      if (f.valid && op.version <= f.ver) {
        if (f.has_vmax && op.version == f.vmax)
          return fail("two writes share version " + op.version.to_string());
        return fail_frontier(op, id, f, dep_edge::ww,
                             "write behind the retired real-time frontier: ");
      }
      if (s.writes.count(op.version))
        return fail("two writes share version " + op.version.to_string());
    } else {
      if (op.version == initial_version) {
        if (op.value != initial_)
          return fail("read of initial version returned non-initial value: " +
                      op.to_string());
        resolved = true;
      } else if (const auto it = s.writes.find(op.version);
                 it != s.writes.end()) {
        wnode = it->second;
        if (recs_[wnode].op.value != op.value)
          return fail("read value disagrees with the write of its version: " +
                      op.to_string());
        resolved = true;
      } else if (f.valid && f.has_vmax && op.version == f.vmax) {
        if (op.value != f.vmax_value)
          return fail("read value disagrees with the write of its version: " +
                      op.to_string());
        resolved = true;
      }
      if (f.valid && op.version < f.ver)
        return fail_frontier(op, id, f, dep_edge::rw,
                             "stale read behind the retired real-time "
                             "frontier: ");
    }

    const int n = new_op_node(op, id, ret_key, resolved);
    s.active.push_back(n);
    ++active_ops_;
    if (!link_rt(s, n, inv_key, ret_key)) return;

    if (op.kind == reg_op_kind::write) {
      const auto it = s.writes.emplace(op.version, n).first;
      if (it != s.writes.begin() &&
          !link(std::prev(it)->second, n, dep_edge::ww))
        return;
      if (const auto nx = std::next(it);
          nx != s.writes.end() && !link(n, nx->second, dep_edge::ww))
        return;
      // Reads between the predecessor write (inclusive) and this version
      // now anti-depend on this write.
      auto rb = it == s.writes.begin()
                    ? s.reads.begin()
                    : s.reads.lower_bound(std::prev(it)->first);
      const auto re = s.reads.lower_bound(op.version);
      for (; rb != re; ++rb)
        for (const int r : rb->second)
          if (!link(r, n, dep_edge::rw)) return;
      // Reads that were waiting for exactly this version resolve now.
      if (const auto match = s.reads.find(op.version);
          match != s.reads.end())
        for (const int r : match->second) {
          if (recs_[r].op.value != op.value)
            return fail(
                "read value disagrees with the write of its version: " +
                recs_[r].op.to_string());
          recs_[r].resolved = true;
          if (!link(n, r, dep_edge::wr)) return;
        }
    } else {
      s.reads[op.version].push_back(n);
      if (wnode >= 0 && !link(wnode, n, dep_edge::wr)) return;
      if (const auto succ = s.writes.upper_bound(op.version);
          succ != s.writes.end() && !link(n, succ->second, dep_edge::rw))
        return;
    }

    if (retire_) try_retire(k);
  }

  /// Flags reads left observing a version no write ever installed.
  void finish() {
    if (finished_) return;
    finished_ = true;
    for (service_key k = 0; k < ks_.size() && result_.linearizable; ++k)
      for (const auto& [ver, bucket] : ks_[k].reads) {
        const auto it = std::find_if(
            bucket.begin(), bucket.end(),
            [this](int r) { return !recs_[r].resolved; });
        if (it != bucket.end()) {
          fail("read observes unknown version " + ver.to_string() + ": " +
               recs_[*it].op.to_string());
          break;
        }
      }
    result_.checked_ops = checked_;
  }

  std::vector<std::uint64_t> fed_per_key() const {
    std::vector<std::uint64_t> v;
    v.reserve(ks_.size());
    for (const kstate& s : ks_) v.push_back(s.fed);
    return v;
  }

  // --- internals -------------------------------------------------------

  int new_op_node(const register_op& op, std::uint64_t id,
                  std::int64_t ret_key, bool resolved) {
    const int n = g_.add_node(static_cast<std::int64_t>(id));
    if (recs_.size() < g_.node_capacity()) recs_.resize(g_.node_capacity());
    recs_[n] = op_rec{op, id, ret_key, resolved};
    return n;
  }

  bool link(int x, int y, dep_edge kind) {
    if (g_.add_edge(x, y, kind)) return true;
    lincheck_result r = lincheck_result::bad("");
    r.cycle = g_.cycle();
    const auto& nodes = g_.cycle_nodes();
    std::unordered_map<std::uint64_t, int> node_of;
    node_of.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
      node_of.emplace(r.cycle[i].from, nodes[i]);
    r.reason = "dependency graph rt ∪ wr ∪ ww ∪ rw contains a cycle: " +
               describe_cycle(
                   r.cycle,
                   [&](std::uint64_t id) -> const register_op* {
                     const auto it = node_of.find(id);
                     return it == node_of.end() ? nullptr
                                                : &recs_[it->second].op;
                   });
    latch(std::move(r));
    return false;
  }

  /// rt edges via the response timeline: in-link from the latest response
  /// strictly before our invocation, out-link into our own response node.
  bool link_rt(kstate& s, int n, std::int64_t inv_key, std::int64_t ret_key) {
    if (!s.timeline.empty() && s.timeline.front().key < inv_key) {
      auto it = std::lower_bound(
          s.timeline.begin(), s.timeline.end(), inv_key,
          [](const timeline_entry& e, std::int64_t k) { return e.key < k; });
      --it;
      if (!link(it->node, n, dep_edge::rt)) return false;
    }
    if (s.timeline.empty() || s.timeline.back().key != ret_key) {
      const int prev =
          s.timeline.empty() ? -1 : s.timeline.back().node;
      const int t = g_.add_node(-1);
      s.timeline.push_back({ret_key, t});
      if (prev >= 0 && !link(prev, t, dep_edge::rt)) return false;
    }
    return link(n, s.timeline.back().node, dep_edge::rt);
  }

  /// Retires every op whose response precedes the key's real-time cut
  /// (the oldest in-flight invocation): ops behind the cut can never gain
  /// new in-edges except through rank violations, which the frontier
  /// summary detects without the graph.
  void try_retire(service_key k) {
    kstate& s = ks_[k];
    const std::int64_t cut =
        s.inflight.empty() ? kMaxKey : *s.inflight.begin();
    std::uint64_t batch = 0;
    while (!s.active.empty()) {
      const int v = s.active.front();
      op_rec& rec = recs_[v];
      if (rec.ret_key >= cut) break;
      // An unresolved read parks the window until its write arrives (or
      // finish() flags it).
      if (rec.op.kind == reg_op_kind::read && !rec.resolved) break;
      retire_one(s, rec, v);
      s.active.pop_front();
      ++batch;
    }
    if (batch == 0) return;
    // Timeline nodes no live op needs anymore (rt constraints from
    // retired ops live on in the frontier summary).
    const std::int64_t keep =
        s.active.empty()
            ? cut
            : std::min<std::int64_t>(cut, recs_[s.active.front()].ret_key);
    while (!s.timeline.empty() && s.timeline.front().key < keep) {
      g_.remove_node(s.timeline.front().node);
      s.timeline.pop_front();
    }
    s.retired += batch;
    retired_ += batch;
    active_ops_ -= batch;
    if (on_retire) on_retire(k, batch);
  }

  void retire_one(kstate& s, op_rec& rec, int v) {
    frontier_t& f = s.frontier;
    const bool is_read = rec.op.kind == reg_op_kind::read;
    if (!f.valid || f.ver < rec.op.version ||
        (f.ver == rec.op.version && is_read && !f.is_read)) {
      f.ver = rec.op.version;
      f.is_read = is_read;
      f.op = rec.op;
      f.id = rec.id;
    }
    f.valid = true;
    if (!is_read) {
      if (!f.has_vmax || f.vmax < rec.op.version) {
        f.has_vmax = true;
        f.vmax = rec.op.version;
        f.vmax_value = rec.op.value;
      }
      s.writes.erase(rec.op.version);
    } else if (const auto b = s.reads.find(rec.op.version);
               b != s.reads.end()) {
      auto& vec = b->second;
      for (std::size_t i = 0; i < vec.size(); ++i)
        if (vec[i] == v) {
          vec[i] = vec.back();
          vec.pop_back();
          break;
        }
      if (vec.empty()) s.reads.erase(b);
    }
    g_.remove_node(v);
  }

  void fail(std::string why) { latch(lincheck_result::bad(std::move(why))); }

  /// A rank violation against the retired frontier: reported as the
  /// two-edge summary cycle new-op ⇝ frontier ⇝(rt) new-op (the full
  /// cycle runs through retired ops no longer held).
  void fail_frontier(const register_op& op, std::uint64_t id,
                     const frontier_t& f, dep_edge kind, const char* what) {
    lincheck_result r = lincheck_result::bad(
        std::string(what) + op.to_string() + " vs retired " +
        f.op.to_string());
    r.cycle = {{id, f.id, kind}, {f.id, id, dep_edge::rt}};
    latch(std::move(r));
  }

  void latch(lincheck_result r) {
    r.checked_ops = checked_;
    result_ = std::move(r);
    violation_at_ = checked_;
  }

  pk_graph g_;
  std::vector<op_rec> recs_;
  std::vector<kstate> ks_;
  lincheck_result result_;
  reg_value initial_;
  bool retire_;
  bool finished_ = false;
  std::uint64_t checked_ = 0;
  std::uint64_t retired_ = 0;
  std::size_t active_ops_ = 0;
  std::uint64_t violation_at_ = 0;
  std::function<void(service_key, std::uint64_t)> on_retire;
};

/// True when every completed op carries both causal stamps — precedence
/// then uses stamps throughout, like register_op::precedes.
bool all_stamped(const register_history& history) {
  for (const register_op& op : history)
    if (op.complete() && (op.invoked_stamp == 0 || op.returned_stamp == 0))
      return false;
  return true;
}

}  // namespace

lincheck_result check_history(const register_history& history,
                              reg_value initial) {
  const bool stamps = all_stamped(history);
  const auto inv_key = [&](const register_op& op) {
    return stamps ? static_cast<std::int64_t>(op.invoked_stamp)
                  : op.invoked_at;
  };
  const auto ret_key = [&](const register_op& op) {
    return stamps ? static_cast<std::int64_t>(op.returned_stamp)
                  : *op.returned_at;
  };
  std::vector<std::size_t> order;
  order.reserve(history.size());
  for (std::size_t i = 0; i < history.size(); ++i)
    if (history[i].complete()) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::int64_t ra = ret_key(history[a]), rb = ret_key(history[b]);
    if (ra != rb) return ra < rb;
    return a < b;
  });
  checker_core core(1, initial, /*retire=*/false);
  for (const std::size_t i : order) {
    const register_op& op = history[i];
    core.on_complete(0, op, i, inv_key(op), ret_key(op));
    if (!core.result_.linearizable) break;
  }
  core.finish();
  return std::move(core.result_);
}

lincheck_result check_keyed_history(
    const std::vector<keyed_register_op>& history, service_key keys) {
  std::vector<register_history> per_key(keys);
  std::vector<std::vector<std::uint64_t>> idx(keys);
  for (std::size_t i = 0; i < history.size(); ++i) {
    const keyed_register_op& rec = history[i];
    if (rec.key >= keys)
      return lincheck_result::bad(
          "operation on key " + std::to_string(rec.key) +
          " outside the key space: " + rec.op.to_string());
    per_key[rec.key].push_back(rec.op);
    idx[rec.key].push_back(i);
  }

  lincheck_result out;
  out.per_key_ops.assign(keys, 0);
  service_key failed_key = keys;
  lincheck_result failed;
  for (service_key k = 0; k < keys; ++k) {
    lincheck_result r = check_history(per_key[k]);
    out.checked_ops += r.checked_ops;
    out.per_key_ops[k] = r.checked_ops;
    if (!r && failed_key == keys) {
      failed_key = k;
      failed = std::move(r);
    }
  }
  if (failed_key == keys) return out;

  // Remap the failing key's verdict onto the global history: cycle op ids
  // become indices into `history`, the reason re-renders with the global
  // ops.
  for (cycle_edge& e : failed.cycle) {
    e.from = idx[failed_key][e.from];
    e.to = idx[failed_key][e.to];
  }
  std::string why = "key " + std::to_string(failed_key) + ": ";
  if (failed.cycle.empty()) {
    why += failed.reason;
  } else {
    why += "dependency graph rt ∪ wr ∪ ww ∪ rw contains a cycle: " +
           describe_cycle(failed.cycle, [&](std::uint64_t id) {
             return &history[id].op;
           });
  }
  failed.reason = std::move(why);
  failed.checked_ops = out.checked_ops;
  failed.per_key_ops = std::move(out.per_key_ops);
  return failed;
}

register_history closed_sample(const register_history& history,
                               std::size_t begin, std::size_t max_ops) {
  const std::size_t end = std::min(history.size(), begin + max_ops);
  std::map<reg_version, std::size_t> writer;
  for (std::size_t i = 0; i < history.size(); ++i)
    if (history[i].complete() && history[i].kind == reg_op_kind::write)
      writer.emplace(history[i].version, i);
  std::set<std::size_t> take;
  const reg_version initial_version{};
  for (std::size_t i = begin; i < end; ++i) {
    if (!history[i].complete()) continue;
    take.insert(i);
    if (history[i].kind == reg_op_kind::read &&
        history[i].version != initial_version)
      if (const auto it = writer.find(history[i].version);
          it != writer.end())
        take.insert(it->second);
  }
  register_history sample;
  sample.reserve(take.size());
  for (const std::size_t i : take) sample.push_back(history[i]);
  return sample;
}

const lincheck_result& replay_streaming(streaming_checker& checker,
                                        const register_history& history,
                                        service_key key) {
  const bool stamps = all_stamped(history);
  struct event {
    std::int64_t at;
    bool is_return;
    std::size_t idx;
  };
  std::vector<event> events;
  events.reserve(2 * history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    const register_op& op = history[i];
    const std::int64_t inv = stamps
                                 ? static_cast<std::int64_t>(op.invoked_stamp)
                                 : op.invoked_at;
    events.push_back({inv, false, i});
    if (op.complete()) {
      const std::int64_t ret =
          stamps ? static_cast<std::int64_t>(op.returned_stamp)
                 : *op.returned_at;
      events.push_back({ret, true, i});
    }
  }
  // On stamp ties (hand-crafted histories) invocations come first, so the
  // op is in flight before any retirement decision at that instant.
  std::sort(events.begin(), events.end(), [](const event& a, const event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.is_return != b.is_return) return !a.is_return;
    return a.idx < b.idx;
  });
  for (const event& e : events) {
    const register_op& op = history[e.idx];
    if (e.is_return)
      checker.on_complete(key, op, e.idx);
    else
      checker.on_invoke(key, op.invoked_stamp != 0
                                 ? op.invoked_stamp
                                 : static_cast<std::uint64_t>(op.invoked_at));
  }
  return checker.finish();
}

struct streaming_checker::impl {
  explicit impl(service_key keys) : core(keys, 0, /*retire=*/true) {}
  checker_core core;
};

streaming_checker::streaming_checker(service_key keys)
    : impl_(std::make_unique<impl>(keys)) {}
streaming_checker::~streaming_checker() = default;
streaming_checker::streaming_checker(streaming_checker&&) noexcept = default;
streaming_checker& streaming_checker::operator=(streaming_checker&&) noexcept =
    default;

void streaming_checker::on_invoke(service_key key,
                                  std::uint64_t invoked_stamp) {
  impl_->core.on_invoke(key, static_cast<std::int64_t>(invoked_stamp));
}

void streaming_checker::on_complete(service_key key, const register_op& op,
                                    std::uint64_t id) {
  const bool stamped = op.invoked_stamp != 0 && op.returned_stamp != 0;
  const std::int64_t inv =
      stamped ? static_cast<std::int64_t>(op.invoked_stamp) : op.invoked_at;
  const std::int64_t ret = stamped
                               ? static_cast<std::int64_t>(op.returned_stamp)
                               : (op.complete() ? *op.returned_at : kMaxKey);
  impl_->core.on_complete(key, op, id, inv, ret);
}

const lincheck_result& streaming_checker::finish() {
  impl_->core.finish();
  if (impl_->core.result_.per_key_ops.empty())
    impl_->core.result_.per_key_ops = impl_->core.fed_per_key();
  return impl_->core.result_;
}

const lincheck_result& streaming_checker::result() const {
  return impl_->core.result_;
}

std::size_t streaming_checker::active_ops() const {
  return impl_->core.active_ops_;
}
std::uint64_t streaming_checker::retired_ops() const {
  return impl_->core.retired_;
}
std::uint64_t streaming_checker::checked_ops() const {
  return impl_->core.checked_;
}
std::uint64_t streaming_checker::violation_at() const {
  return impl_->core.result_.linearizable ? 0 : impl_->core.violation_at_;
}

void streaming_checker::set_retire_hook(
    std::function<void(service_key, std::uint64_t)> hook) {
  impl_->core.on_retire = std::move(hook);
}

}  // namespace gqs
