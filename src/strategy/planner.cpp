#include "strategy/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>

#include "core/pattern_table.hpp"
#include "core/sampling.hpp"

namespace gqs {

void planner_options::validate(process_id n) const {
  if (!(read_ratio >= 0.0 && read_ratio <= 1.0))
    throw std::invalid_argument("planner_options: bad read ratio");
  if (!capacities.empty() && capacities.size() != n)
    throw std::invalid_argument("planner_options: capacity vector size");
  for (double c : capacities)
    if (!(c > 0))
      throw std::invalid_argument("planner_options: nonpositive capacity");
  if (!(tolerance > 0))
    throw std::invalid_argument("planner_options: bad tolerance");
  if (max_iterations < 1)
    throw std::invalid_argument("planner_options: bad iteration budget");
}

namespace {

/// Inverse capacities c_p = 1/cap_p (all ones when capacities are absent).
std::vector<double> inverse_capacities(process_id n,
                                       const std::vector<double>& caps) {
  std::vector<double> inv(n, 1.0);
  for (process_id p = 0; p < caps.size() && p < n; ++p)
    inv[p] = 1.0 / caps[p];
  return inv;
}

/// A quorum family compiled once per planner call: quorum i's members are
/// mem[off[i]] .. mem[off[i + 1] - 1], in ascending id — the order
/// process_set iteration yields — so a sum over a span adds the same terms
/// in the same order as the set walk it replaces, bit for bit. Every
/// planner loop runs over this layout instead of walking multi-word sets.
class flat_family {
 public:
  flat_family() = default;
  explicit flat_family(const quorum_family& family) {
    for (const process_set& q : family) add(q);
  }

  void add(const process_set& q) {
    for (process_id p : q) mem_.push_back(p);
    off_.push_back(mem_.size());
  }
  std::size_t size() const { return off_.size() - 1; }
  std::span<const process_id> operator[](std::size_t i) const {
    return {mem_.data() + off_[i], mem_.data() + off_[i + 1]};
  }
  /// One past the largest member id (0 for no members).
  process_id extent() const {
    return mem_.empty() ? 0 : *std::max_element(mem_.begin(), mem_.end()) + 1;
  }

 private:
  std::vector<std::size_t> off_{0};
  std::vector<process_id> mem_;
};

/// sum + Σ weighted[p] over q, added in member order.
double add_scores(double sum, std::span<const process_id> q,
                  const double* weighted) {
  for (process_id p : q) sum += weighted[p];
  return sum;
}

/// The score Σ weighted[p] of every quorum of `family`, into `out`. Quorums
/// go four at a time: their common prefix is summed in lockstep — four
/// independent add chains where a lone sum is one, so the adds overlap
/// instead of waiting out each other's latency — then each tail is
/// finished alone. Every sum still adds its own terms in its own order, so
/// each score has exactly the bits of a quorum-at-a-time sum.
void family_scores(const flat_family& family,
                   const std::vector<double>& weighted,
                   std::vector<double>& out) {
  const double* w = weighted.data();
  const std::size_t m = family.size();
  out.resize(m);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const std::span<const process_id> a = family[i], b = family[i + 1],
                                      c = family[i + 2], d = family[i + 3];
    const std::size_t common =
        std::min({a.size(), b.size(), c.size(), d.size()});
    double sa = 0, sb = 0, sc = 0, sd = 0;
    for (std::size_t k = 0; k < common; ++k) {
      sa += w[a[k]];
      sb += w[b[k]];
      sc += w[c[k]];
      sd += w[d[k]];
    }
    out[i] = add_scores(sa, a.subspan(common), w);
    out[i + 1] = add_scores(sb, b.subspan(common), w);
    out[i + 2] = add_scores(sc, c.subspan(common), w);
    out[i + 3] = add_scores(sd, d.subspan(common), w);
  }
  for (; i < m; ++i) out[i] = add_scores(0, family[i], w);
}

/// argmin over scores; ties break to the lowest index so the iteration is
/// fully deterministic.
std::pair<std::size_t, double> lowest(const std::vector<double>& scores) {
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] < best_score) {
      best_score = scores[i];
      best = i;
    }
  }
  return {best, best_score};
}

/// Rejects an empty family, an empty quorum or a member ≥ n, then
/// compiles the family.
flat_family compile_family(const quorum_family& family, process_id n,
                           const char* caller, const char* which) {
  if (family.empty())
    throw std::invalid_argument(std::string("plan_optimal: empty ") + which +
                                " family");
  for (const process_set& q : family)
    if (q.empty())
      throw std::invalid_argument(std::string("plan_optimal: empty ") +
                                  which + " quorum");
  flat_family flat(family);
  if (flat.extent() > n)
    throw std::invalid_argument(std::string(caller) +
                                ": quorum member >= n");
  return flat;
}

/// A column of the load LP: one quorum, or one (W, R) pair, of a column
/// group, putting coef_a on each member of a and coef_b on each member of b.
struct lp_column {
  std::span<const process_id> a;
  double coef_a = 0;
  std::span<const process_id> b = {};
  double coef_b = 0;
};

/// The restricted master of the load LP, in scaled units. Rows 0..n−1 are
/// the load rows Σ_j a_pj·z_j − L ≤ 0, where a_pj is s_p times column j's
/// coefficient on p and s_p = (1/cap_p) / max_q (1/cap_q) lies in (0, 1];
/// row n + g is the convexity row Σ_{j ∈ g} z_j = 1 of column group g. The
/// objective is min L.
///
/// A dense primal simplex on a tableau stored by column. Columns 0..m−1 are
/// the identity block — each load row's slack, and per convexity row an
/// artificial that never enters — so they always hold B⁻¹, and their
/// objective entries are the duals. Column m is L; the master's columns
/// follow in the order they were added. Entry m of every column, and of
/// the right-hand side, is the objective row.
class load_master {
 public:
  load_master(std::vector<double> scale, std::size_t groups)
      : n_(scale.size()),
        m_(n_ + groups),
        stride_(m_ + 1),
        scale_(std::move(scale)),
        t_((m_ + 1) * stride_, 0.0),
        rhs_(stride_, 0.0),
        basic_(m_),
        row_of_(m_ + 1, npos) {
    for (std::size_t i = 0; i < m_; ++i) {
      t_[i * stride_ + i] = 1.0;
      basic_[i] = i;
      row_of_[i] = i;
    }
    double* l = column(m_);
    for (std::size_t p = 0; p < n_; ++p) l[p] = -1.0;
    l[m_] = 1.0;  // L's cost
    for (std::size_t g = 0; g < groups; ++g) rhs_[n_ + g] = 1.0;
  }

  /// Appends column c of group g after the columns added before it. Its
  /// tableau entries are B⁻¹ times the original column: the identity
  /// block's columns combined with the original entries.
  void add(std::size_t group, const lp_column& c) {
    const std::size_t j = t_.size() / stride_;
    t_.resize(t_.size() + stride_, 0.0);
    row_of_.push_back(npos);
    const auto combine = [&](std::size_t k, double v) {
      if (v == 0) return;
      const double* src = column(k);
      double* dst = column(j);
      for (std::size_t i = 0; i < stride_; ++i) dst[i] += v * src[i];
    };
    for (process_id p : c.a) combine(p, c.coef_a * scale_[p]);
    for (process_id p : c.b) combine(p, c.coef_b * scale_[p]);
    combine(n_ + group, 1.0);
  }

  /// The first feasible basis, once each group has one column (added in
  /// group order): group g's column takes its convexity row, and L the most
  /// loaded row (the lowest index on ties), which leaves every other
  /// slack at L minus its row's load ≥ 0.
  void start() {
    for (std::size_t g = 0; g + n_ < m_; ++g) pivot(n_ + g, m_ + 1 + g);
    std::size_t top = 0;
    for (std::size_t p = 1; p < n_; ++p)
      if (rhs_[p] < rhs_[top]) top = p;
    pivot(top, m_);
  }

  /// Primal simplex from the current feasible basis to an optimum over the
  /// columns added so far. Dantzig's rule picks the entering column, ties
  /// to the lowest index. The ratio test breaks ties — degenerate rows tie
  /// at 0 all the time — to the largest pivot element, then the lowest
  /// row: small pivots are what make a tableau drift. After m degenerate
  /// pivots in a row it switches to Bland's rule (the lowest improving
  /// column, the lowest basic index on ties) until the objective moves, so
  /// it cannot cycle; a pivot budget bounds it even under round-off.
  void solve() {
    std::size_t stalled = 0;
    const std::size_t budget = 64 * (m_ + columns());
    for (std::size_t k = 0; k < budget; ++k) {
      const bool bland = stalled > m_;
      std::size_t enter = npos;
      double best = -kCostEps;
      for (std::size_t j = 0; j < columns(); ++j) {
        if (row_of_[j] != npos || (j >= n_ && j < m_)) continue;
        const double d = column(j)[m_];
        if (d < best) {
          best = d;
          enter = j;
          if (bland) break;
        }
      }
      if (enter == npos) return;
      const double* e = column(enter);
      std::size_t leave = npos;
      double ratio = 0;
      for (std::size_t i = 0; i < m_; ++i) {
        if (!(e[i] > kPivotEps)) continue;
        const double r = std::max(rhs_[i], 0.0) / e[i];
        const bool wins =
            leave == npos || r < ratio ||
            (r == ratio && (bland ? basic_[i] < basic_[leave]
                                  : e[i] > e[leave]));
        if (wins) {
          leave = i;
          ratio = r;
        }
      }
      if (leave == npos) return;  // no blocking row: only round-off does this
      stalled = ratio == 0 ? stalled + 1 : 0;
      pivot(leave, enter);
    }
  }

  /// The value of the k-th column added, in the current basic solution.
  double value(std::size_t k) const {
    const std::size_t r = row_of_[m_ + 1 + k];
    return r == npos ? 0.0 : std::max(rhs_[r], 0.0);
  }
  /// The dual price w_p ≥ 0 of load row p: the reduced cost of its slack.
  double dual(process_id p) const { return std::max(column(p)[m_], 0.0); }
  /// The dual α_g of group g's convexity row, in scaled units.
  double convexity_dual(std::size_t g) const {
    return -column(n_ + g)[m_];
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr double kCostEps = 1e-11;
  static constexpr double kPivotEps = 1e-9;

  std::size_t columns() const { return t_.size() / stride_; }
  double* column(std::size_t j) { return t_.data() + j * stride_; }
  const double* column(std::size_t j) const {
    return t_.data() + j * stride_;
  }

  /// Gauss–Jordan step: column e becomes basic in row r.
  void pivot(std::size_t r, std::size_t e) {
    double* pe = column(e);
    const double piv = pe[r];
    const auto eliminate = [&](double* c) {
      const double f = c[r];
      if (f == 0) return;
      const double g = f / piv;
      for (std::size_t i = 0; i < stride_; ++i) c[i] -= g * pe[i];
      c[r] = g;
    };
    for (std::size_t j = 0; j < columns(); ++j)
      if (j != e) eliminate(column(j));
    eliminate(rhs_.data());
    std::fill(pe, pe + stride_, 0.0);
    pe[r] = 1.0;
    row_of_[basic_[r]] = npos;
    basic_[r] = e;
    row_of_[e] = r;
  }

  std::size_t n_, m_, stride_;
  std::vector<double> scale_;
  std::vector<double> t_;
  std::vector<double> rhs_;
  std::vector<std::size_t> basic_;   ///< the basic column of each row
  std::vector<std::size_t> row_of_;  ///< each column's row, npos if nonbasic
};

/// A group's best column against the current duals: its index in the group
/// and its score Σ_p coef·w_p/cap_p, the group's term of the lower bound.
struct priced_column {
  std::size_t index = 0;
  double score = 0;
};

struct lp_solution {
  std::vector<std::vector<double>> weights;  ///< per group, per column
  double lower_bound = 0;  ///< best certified lower bound seen
  int rounds = 0;          ///< master solves
};

/// Column generation over the load LP, shared by the plain and the f-aware
/// planners so their certificate bookkeeping never diverges. Group g has
/// sizes[g] columns, `column(g, i)` returns one, and `price(weighted,
/// best)` fills best[g] with group g's lowest-scoring column under
/// weighted[p] = w_p/cap_p — the exact best response to the adversary w.
///
/// Each round prices every column with the master's normalized duals w,
/// whose best responses certify LB = Σ_g best[g].score (a max is at least
/// any average, so this holds for every distribution w). It adds each
/// group's best column that prices below zero and re-solves the master.
/// It stops once the master's strategy, whose weighted load (UB) is
/// recomputed from the original columns, is within `tolerance` of the
/// best LB, when no column prices out, or after max_iterations rounds.
template <class Column, class Price>
lp_solution solve_load_lp(process_id n, const std::vector<double>& inv_cap,
                          const std::vector<std::size_t>& sizes,
                          const planner_options& options, Column column,
                          Price price) {
  constexpr double kPriceEps = 1e-10;
  const std::size_t groups = sizes.size();
  const double top = *std::max_element(inv_cap.begin(), inv_cap.end());
  std::vector<double> scale(n);
  for (process_id p = 0; p < n; ++p) scale[p] = inv_cap[p] / top;
  load_master master(std::move(scale), groups);

  std::vector<std::vector<bool>> added(groups);
  for (std::size_t g = 0; g < groups; ++g) added[g].assign(sizes[g], false);
  std::vector<std::pair<std::size_t, std::size_t>> in_master;  // (g, i)
  std::vector<double> w(n, 1.0 / static_cast<double>(n)), weighted(n),
      load(n), total(groups);
  std::vector<priced_column> best(groups);
  lp_solution sol;
  double upper = std::numeric_limits<double>::infinity();
  for (;;) {
    for (process_id p = 0; p < n; ++p) weighted[p] = w[p] * inv_cap[p];
    price(weighted, best);
    double lb = 0;
    for (const priced_column& b : best) lb += b.score;
    sol.lower_bound = std::max(sol.lower_bound, lb);
    if (upper - sol.lower_bound <= options.tolerance ||
        sol.rounds == options.max_iterations)
      break;

    // Reduced cost in original units: score − max_q(1/cap_q)·α_g. The
    // first round seeds the master with every group's best response to
    // the uniform adversary.
    bool grew = false;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t i = best[g].index;
      if (added[g][i]) continue;
      if (sol.rounds > 0 &&
          !(best[g].score - top * master.convexity_dual(g) < -kPriceEps * top))
        continue;
      master.add(g, column(g, i));
      added[g][i] = true;
      in_master.emplace_back(g, i);
      grew = true;
    }
    if (!grew) break;
    if (sol.rounds == 0) master.start();
    master.solve();
    ++sol.rounds;

    std::fill(total.begin(), total.end(), 0.0);
    for (std::size_t k = 0; k < in_master.size(); ++k)
      total[in_master[k].first] += master.value(k);
    std::fill(load.begin(), load.end(), 0.0);
    for (std::size_t k = 0; k < in_master.size(); ++k) {
      const auto [g, i] = in_master[k];
      const double x = master.value(k) / total[g];
      const lp_column c = column(g, i);
      for (process_id p : c.a) load[p] += c.coef_a * x;
      for (process_id p : c.b) load[p] += c.coef_b * x;
    }
    upper = 0;
    for (process_id p = 0; p < n; ++p)
      upper = std::max(upper, load[p] * inv_cap[p]);

    double mass = 0;
    for (process_id p = 0; p < n; ++p) mass += master.dual(p);
    if (mass > 0)
      for (process_id p = 0; p < n; ++p) w[p] = master.dual(p) / mass;
  }

  sol.weights.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) sol.weights[g].assign(sizes[g], 0);
  for (std::size_t k = 0; k < in_master.size(); ++k) {
    const auto [g, i] = in_master[k];
    sol.weights[g][i] = master.value(k) / total[g];
  }
  return sol;
}

}  // namespace

plan_result plan_optimal(process_id n, const quorum_family& reads,
                         const quorum_family& writes,
                         const planner_options& options) {
  options.validate(n);
  const flat_family flat_reads =
      compile_family(reads, n, "plan_optimal", "read");
  const flat_family flat_writes =
      compile_family(writes, n, "plan_optimal", "write");

  const double rho = options.read_ratio;
  const std::vector<double> inv_cap = inverse_capacities(n,
                                                         options.capacities);
  std::vector<double> read_scores, write_scores;
  // The read/write product decomposes: group 0 holds the read quorums,
  // group 1 the write quorums, and the joint best response is the pair of
  // independent per-family argmins. When the two families coincide, a read
  // and a write are interchangeable — the ρ-mixture of any two marginals
  // loads every process exactly as the pair does — so one group plans a
  // single distribution that both sides then use.
  const bool shared = reads == writes;
  const lp_solution sol = solve_load_lp(
      n, inv_cap,
      shared ? std::vector<std::size_t>{reads.size()}
             : std::vector<std::size_t>{reads.size(), writes.size()},
      options,
      [&](std::size_t g, std::size_t i) {
        if (shared) return lp_column{flat_reads[i], 1.0};
        return g == 0 ? lp_column{flat_reads[i], rho}
                      : lp_column{flat_writes[i], 1.0 - rho};
      },
      [&](const std::vector<double>& weighted,
          std::vector<priced_column>& best) {
        family_scores(flat_reads, weighted, read_scores);
        const auto [i_read, s_read] = lowest(read_scores);
        if (shared) {
          best[0] = {i_read, s_read};
          return;
        }
        family_scores(flat_writes, weighted, write_scores);
        const auto [i_write, s_write] = lowest(write_scores);
        best[0] = {i_read, rho * s_read};
        best[1] = {i_write, (1.0 - rho) * s_write};
      });

  plan_result result;
  result.iterations = sol.rounds;
  result.strategy.read_ratio = rho;
  result.strategy.reads.quorums = reads;
  result.strategy.writes.quorums = writes;
  result.strategy.reads.weights = sol.weights[0];
  result.strategy.writes.weights = sol.weights[shared ? 0 : 1];
  result.strategy.reads.prune();
  result.strategy.writes.prune();
  result.strategy.validate();

  result.load = per_process_load(result.strategy, n);
  result.system_load = 0;
  result.weighted_load = 0;
  for (process_id p = 0; p < n; ++p) {
    result.system_load = std::max(result.system_load, result.load[p]);
    result.weighted_load =
        std::max(result.weighted_load, result.load[p] * inv_cap[p]);
  }
  result.lower_bound = std::min(sol.lower_bound, result.weighted_load);
  result.gap = result.weighted_load - result.lower_bound;
  result.converged = result.gap <= options.tolerance;
  result.capacity = result.weighted_load > 0
                        ? 1.0 / result.weighted_load
                        : std::numeric_limits<double>::infinity();
  result.network_cost = expected_network_cost(result.strategy);
  return result;
}

plan_result plan_optimal(const generalized_quorum_system& gqs,
                         const planner_options& options) {
  return plan_optimal(gqs.system_size(), gqs.reads, gqs.writes, options);
}

std::optional<available_pair> pattern_plan::top_pair() const {
  if (pairs.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < weights.size(); ++i)
    if (weights[i] > weights[best]) best = i;
  return pairs[best];
}

pattern_plan plan_for_pattern(const generalized_quorum_system& gqs,
                              std::size_t pattern_index,
                              const planner_options& options) {
  const process_id n = gqs.system_size();
  options.validate(n);
  pattern_plan plan;
  plan.pattern_index = pattern_index;
  plan.pairs = all_available_pairs(gqs, gqs.fps[pattern_index]);
  if (plan.pairs.empty()) return plan;  // pattern breaks the system
  plan.feasible = true;

  const double rho = options.read_ratio;
  const std::vector<double> inv_cap = inverse_capacities(n,
                                                         options.capacities);
  flat_family pair_reads, pair_writes;
  for (const available_pair& a : plan.pairs) {
    pair_reads.add(a.read_quorum);
    pair_writes.add(a.write_quorum);
  }
  std::vector<double> read_scores, write_scores;
  // One group whose columns are the pairs: reads and writes are coupled
  // here because only validated combinations may carry mass.
  const lp_solution sol = solve_load_lp(
      n, inv_cap, {plan.pairs.size()}, options,
      [&](std::size_t, std::size_t i) {
        return lp_column{pair_reads[i], rho, pair_writes[i], 1.0 - rho};
      },
      [&](const std::vector<double>& weighted,
          std::vector<priced_column>& best) {
        family_scores(pair_reads, weighted, read_scores);
        family_scores(pair_writes, weighted, write_scores);
        best[0] = {0, std::numeric_limits<double>::infinity()};
        for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
          const double score =
              rho * read_scores[i] + (1.0 - rho) * write_scores[i];
          if (score < best[0].score) best[0] = {i, score};
        }
      });
  plan.weights = sol.weights[0];

  plan.load.assign(n, 0.0);
  for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
    for (process_id p : pair_reads[i]) plan.load[p] += rho * plan.weights[i];
    for (process_id p : pair_writes[i])
      plan.load[p] += (1.0 - rho) * plan.weights[i];
  }
  plan.weighted_load = 0;
  for (process_id p = 0; p < n; ++p)
    plan.weighted_load = std::max(plan.weighted_load,
                                  plan.load[p] * inv_cap[p]);
  plan.lower_bound = std::min(sol.lower_bound, plan.weighted_load);
  plan.gap = plan.weighted_load - plan.lower_bound;
  plan.converged = plan.gap <= options.tolerance;
  return plan;
}

std::vector<pattern_plan> plan_all_patterns(
    const generalized_quorum_system& gqs, const planner_options& options) {
  std::vector<pattern_plan> plans;
  plans.reserve(gqs.fps.size());
  for (std::size_t i = 0; i < gqs.fps.size(); ++i)
    plans.push_back(plan_for_pattern(gqs, i, options));
  return plans;
}

// ---- latency-aware planning ----

void latency_planner_options::validate(process_id n) const {
  if (!(read_ratio >= 0.0 && read_ratio <= 1.0))
    throw std::invalid_argument("latency_planner_options: bad read ratio");
  if (!(arrival_rate > 0))
    throw std::invalid_argument(
        "latency_planner_options: arrival rate must be positive");
  if (service_rates.size() > 1 && service_rates.size() != n)
    throw std::invalid_argument(
        "latency_planner_options: service-rate vector size");
  for (double mu : service_rates)
    if (!(mu > 0))
      throw std::invalid_argument(
          "latency_planner_options: nonpositive service rate");
  if (!(tolerance > 0))
    throw std::invalid_argument("latency_planner_options: bad tolerance");
  if (max_iterations < 1)
    throw std::invalid_argument(
        "latency_planner_options: bad iteration budget");
}

namespace {

/// Wait assigned to a saturated process: large but finite, so best
/// responses still rank saturated options and the averaging loop can walk
/// out of an infeasible start.
constexpr double kSaturatedWait = 1e9;

std::vector<double> resolve_service_rates(process_id n,
                                          const std::vector<double>& rates) {
  std::vector<double> mu(n, 1.0);
  if (rates.size() == 1)
    mu.assign(n, rates.front());
  else
    for (process_id p = 0; p < rates.size() && p < n; ++p) mu[p] = rates[p];
  return mu;
}

/// Per-process M/M/1 response times under per-access load `load` at
/// throughput λ (capped at kSaturatedWait past saturation).
std::vector<double> response_waits(const std::vector<double>& load,
                                   double lambda,
                                   const std::vector<double>& mu) {
  std::vector<double> wait(load.size());
  for (std::size_t p = 0; p < load.size(); ++p) {
    const double x = lambda * load[p];
    wait[p] = x < mu[p] ? std::min(kSaturatedWait, 1.0 / (mu[p] - x))
                        : kSaturatedWait;
  }
  return wait;
}

double max_wait(std::span<const process_id> q,
                const std::vector<double>& wait) {
  double worst = 0;
  for (process_id p : q) worst = std::max(worst, wait[p]);
  return worst;
}

/// argmin over a family of max_wait; max-wait ties (e.g. several quorums
/// pinned at the saturation cap) break to the lowest *total* wait so best
/// responses still rank saturated options, then to the lowest index.
std::size_t calmest_quorum(const flat_family& family,
                           const std::vector<double>& wait) {
  std::size_t best = 0;
  double best_max = std::numeric_limits<double>::infinity();
  double best_sum = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < family.size(); ++i) {
    double sum = 0, w = 0;
    for (process_id p : family[i]) {
      sum += wait[p];
      w = std::max(w, wait[p]);
    }
    if (w < best_max || (w == best_max && sum < best_sum)) {
      best_max = w;
      best_sum = sum;
      best = i;
    }
  }
  return best;
}

/// T(σ) for explicit family weights under precomputed per-process waits.
double mixed_latency(const flat_family& reads,
                     const std::vector<double>& read_weights,
                     const flat_family& writes,
                     const std::vector<double>& write_weights, double rho,
                     const std::vector<double>& wait) {
  double t = 0;
  for (std::size_t i = 0; i < reads.size(); ++i)
    if (read_weights[i] > 0)
      t += rho * read_weights[i] * max_wait(reads[i], wait);
  for (std::size_t i = 0; i < writes.size(); ++i)
    if (write_weights[i] > 0)
      t += (1.0 - rho) * write_weights[i] * max_wait(writes[i], wait);
  return t;
}

}  // namespace

double expected_response_time(const read_write_strategy& strategy,
                              process_id n, double arrival_rate,
                              const std::vector<double>& service_rates) {
  const std::vector<double> mu = resolve_service_rates(n, service_rates);
  const std::vector<double> load = per_process_load(strategy, n);
  for (process_id p = 0; p < n; ++p)
    if (arrival_rate * load[p] >= mu[p])
      return std::numeric_limits<double>::infinity();
  const std::vector<double> wait = response_waits(load, arrival_rate, mu);
  return mixed_latency(flat_family(strategy.reads.quorums),
                       strategy.reads.weights,
                       flat_family(strategy.writes.quorums),
                       strategy.writes.weights, strategy.read_ratio, wait);
}

latency_plan_result plan_latency_optimal(process_id n,
                                         const quorum_family& reads,
                                         const quorum_family& writes,
                                         const latency_planner_options&
                                             options) {
  options.validate(n);
  const flat_family flat_reads =
      compile_family(reads, n, "plan_latency_optimal", "read");
  const flat_family flat_writes =
      compile_family(writes, n, "plan_latency_optimal", "write");

  const double rho = options.read_ratio;
  const double lambda = options.arrival_rate;
  const std::vector<double> mu =
      resolve_service_rates(n, options.service_rates);

  // Method of successive averages over the mixed strategy: exact best
  // response against the congestion state of the current average, folded
  // in with a 1/(t+1) step. The per-access load vector is maintained
  // incrementally (it is a linear function of the weights). The best
  // iterate by self-consistent objective is kept — MSA itself oscillates,
  // but every iterate is feasible, so keeping the best is sound.
  std::vector<double> read_w(reads.size(), 0.0);
  std::vector<double> write_w(writes.size(), 0.0);
  std::vector<double> load(n, 0.0);

  // Seed: the capacity-aware load-optimal mixture. It is feasible for any
  // λ below the peak sustainable throughput by construction, so — since
  // the best iterate is kept — the result can only improve on it. (A
  // greedy idle-network seed can start saturated and stay stuck: every
  // best response then ties at the saturation cap.)
  {
    planner_options seed_options;
    seed_options.read_ratio = rho;
    seed_options.capacities = mu;
    const plan_result seed = plan_optimal(n, reads, writes, seed_options);
    auto fold = [](const quorum_strategy& s, const quorum_family& family,
                   std::vector<double>& weights) {
      for (std::size_t i = 0; i < s.quorums.size(); ++i)
        for (std::size_t j = 0; j < family.size(); ++j)
          if (family[j] == s.quorums[i]) {
            weights[j] += s.weights[i];
            break;
          }
    };
    fold(seed.strategy.reads, reads, read_w);
    fold(seed.strategy.writes, writes, write_w);
    for (std::size_t i = 0; i < reads.size(); ++i)
      for (process_id p : flat_reads[i]) load[p] += rho * read_w[i];
    for (std::size_t i = 0; i < writes.size(); ++i)
      for (process_id p : flat_writes[i]) load[p] += (1.0 - rho) * write_w[i];
  }

  latency_plan_result result;
  double best_obj = std::numeric_limits<double>::infinity();
  std::vector<double> best_read_w = read_w;
  std::vector<double> best_write_w = write_w;
  int flat_rounds = 0;
  for (int t = 1; t <= options.max_iterations; ++t) {
    result.iterations = t;
    const std::vector<double> wait = response_waits(load, lambda, mu);
    const double obj =
        mixed_latency(flat_reads, read_w, flat_writes, write_w, rho, wait);
    if (obj < best_obj) {
      const double gain = best_obj - obj;
      best_obj = obj;
      best_read_w = read_w;
      best_write_w = write_w;
      flat_rounds = gain <= options.tolerance * std::max(1.0, obj)
                        ? flat_rounds + 1
                        : 0;
    } else {
      ++flat_rounds;
    }
    // A long stretch without meaningful improvement means the average has
    // settled (the 1/(t+1) steps can no longer move it by tolerance).
    if (t > 32 && flat_rounds >= 64) break;

    const std::size_t br = calmest_quorum(flat_reads, wait);
    const std::size_t bw = calmest_quorum(flat_writes, wait);
    const double alpha = 1.0 / static_cast<double>(t + 1);
    for (double& w : read_w) w *= 1.0 - alpha;
    for (double& w : write_w) w *= 1.0 - alpha;
    read_w[br] += alpha;
    write_w[bw] += alpha;
    for (double& l : load) l *= 1.0 - alpha;
    for (process_id p : flat_reads[br]) load[p] += alpha * rho;
    for (process_id p : flat_writes[bw]) load[p] += alpha * (1.0 - rho);
  }

  result.strategy.read_ratio = rho;
  result.strategy.reads.quorums = reads;
  result.strategy.reads.weights = best_read_w;
  result.strategy.writes.quorums = writes;
  result.strategy.writes.weights = best_write_w;
  result.strategy.reads.prune();
  result.strategy.writes.prune();
  result.strategy.validate();

  result.load = per_process_load(result.strategy, n);
  result.utilization.assign(n, 0.0);
  result.feasible = true;
  for (process_id p = 0; p < n; ++p) {
    result.system_load = std::max(result.system_load, result.load[p]);
    result.weighted_load =
        std::max(result.weighted_load, result.load[p] / mu[p]);
    result.utilization[p] = lambda * result.load[p] / mu[p];
    if (result.utilization[p] >= 1.0) result.feasible = false;
  }
  const std::vector<double> wait = response_waits(result.load, lambda, mu);
  result.expected_latency = mixed_latency(flat_reads, best_read_w,
                                          flat_writes, best_write_w, rho, wait);
  result.network_cost = expected_network_cost(result.strategy);
  return result;
}

std::vector<pareto_point> latency_pareto_sweep(
    process_id n, const quorum_family& reads, const quorum_family& writes,
    const pareto_sweep_options& options) {
  const std::vector<double> mu =
      resolve_service_rates(n, options.service_rates);

  // Peak sustainable throughput: the capacity-aware load-optimal plan's
  // 1/weighted_load. Every sweep point plans at a fraction of it.
  planner_options capacity_aware;
  capacity_aware.read_ratio = options.read_ratio;
  capacity_aware.capacities = mu;
  const plan_result peak = plan_optimal(n, reads, writes, capacity_aware);

  // The latency-blind baseline: classical unweighted load optimization.
  planner_options load_only;
  load_only.read_ratio = options.read_ratio;
  const plan_result blind = plan_optimal(n, reads, writes, load_only);

  std::vector<pareto_point> sweep;
  sweep.reserve(options.utilizations.size());
  for (double u : options.utilizations) {
    if (!(u > 0 && u < 1))
      throw std::invalid_argument(
          "latency_pareto_sweep: utilization must be in (0, 1)");
    pareto_point point;
    point.utilization = u;
    point.arrival_rate = u * peak.capacity;

    latency_planner_options lpo;
    lpo.read_ratio = options.read_ratio;
    lpo.arrival_rate = point.arrival_rate;
    lpo.service_rates = mu;
    latency_plan_result plan =
        plan_latency_optimal(n, reads, writes, lpo);
    point.expected_latency = plan.expected_latency;
    point.system_load = plan.system_load;
    point.network_cost = plan.network_cost;
    point.feasible = plan.feasible;
    point.strategy = std::move(plan.strategy);
    point.load_only_latency = expected_response_time(
        blind.strategy, n, point.arrival_rate, mu);
    sweep.push_back(std::move(point));
  }
  return sweep;
}

namespace {

/// Does the family have a valid (W, R) pair when only `alive` survives,
/// over `base` restricted to the survivors? Exactly the Definition 2
/// conditions for the crash-realized pattern, answered by the same
/// compiled view as every other Definition 2 query (core/pattern_table).
bool family_survives(const quorum_family& reads, const quorum_family& writes,
                     const digraph& base, process_set alive) {
  return build_pattern_table(base, alive).admits(reads, writes);
}

}  // namespace

availability_estimate estimate_availability(
    process_id n, const quorum_family& reads, const quorum_family& writes,
    const digraph* topology, const availability_options& options) {
  if (n == 0 || n > process_set::max_processes)
    throw std::invalid_argument("estimate_availability: bad n");
  // Enumeration walks one 64-bit mask, so it covers n ≤ 63 (2^n must fit).
  if (options.exact_max_n >= 64)
    throw std::invalid_argument(
        "estimate_availability: exact_max_n must be below 64");
  std::vector<double> fail(n, options.fail_probability);
  if (options.fail_probabilities.size() == 1)
    fail.assign(n, options.fail_probabilities.front());
  else if (!options.fail_probabilities.empty()) {
    if (options.fail_probabilities.size() != n)
      throw std::invalid_argument(
          "estimate_availability: failure-probability vector size");
    fail = options.fail_probabilities;
  }
  for (double q : fail)
    if (!(q >= 0.0 && q <= 1.0))
      throw std::invalid_argument(
          "estimate_availability: probability out of range");

  const digraph base = topology ? *topology : digraph::complete(n);
  if (base.vertex_count() != n)
    throw std::invalid_argument("estimate_availability: topology size");

  availability_estimate est;
  if (n <= options.exact_max_n) {
    est.exact = true;
    const std::uint64_t subsets = std::uint64_t{1} << n;
    est.trials = subsets;
    for (std::uint64_t mask = 0; mask < subsets; ++mask) {
      const process_set alive = process_set::from_words({mask});
      double prob = 1.0;
      for (process_id p = 0; p < n; ++p)
        prob *= alive.contains(p) ? (1.0 - fail[p]) : fail[p];
      if (prob == 0.0) continue;
      if (family_survives(reads, writes, base, alive))
        est.probability += prob;
    }
    return est;
  }

  std::mt19937_64 rng(options.seed);
  // p is alive unless its coin falls below fail[p].
  std::vector<sampling::bernoulli> dies;
  dies.reserve(n);
  for (process_id p = 0; p < n; ++p) dies.emplace_back(fail[p]);
  std::uint64_t survived = 0;
  for (std::uint64_t s = 0; s < options.samples; ++s) {
    process_set alive;
    for (process_id p = 0; p < n; ++p)
      if (!dies[p](rng)) alive.insert(p);
    if (family_survives(reads, writes, base, alive)) ++survived;
  }
  est.trials = options.samples;
  est.probability = options.samples > 0
                        ? static_cast<double>(survived) /
                              static_cast<double>(options.samples)
                        : 0.0;
  return est;
}

}  // namespace gqs
