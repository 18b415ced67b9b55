#include "strategy/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>

#include "core/pattern_table.hpp"

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

/// The Hedge adversary over processes: maintains cumulative payoffs and
/// produces the exponential-weights distribution with a horizon-free step
/// size. The certificates computed by the callers are exact for *any*
/// weight sequence, so the schedule only affects convergence speed.
class hedge_adversary {
 public:
  explicit hedge_adversary(process_id n) : cum_(n, 0.0), w_(n, 0.0) {}

  const std::vector<double>& weights(int t) {
    const double n = static_cast<double>(cum_.size());
    const double eta =
        std::sqrt(8.0 * std::log(std::max(2.0, n)) / static_cast<double>(t));
    const double top = *std::max_element(cum_.begin(), cum_.end());
    double total = 0;
    for (std::size_t p = 0; p < cum_.size(); ++p) {
      w_[p] = std::exp(eta * (cum_[p] - top));
      total += w_[p];
    }
    for (double& w : w_) w /= total;
    return w_;
  }

  void reward(process_id p, double payoff) { cum_[p] += payoff; }

 private:
  std::vector<double> cum_;
  std::vector<double> w_;
};

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

/// One round's best response against the weighted adversary: the chosen
/// read/write members (spans into a flat_family) and the response's score
/// (the round's lower-bound certificate).
struct saddle_response {
  std::span<const process_id> read_members;
  std::span<const process_id> write_members;
  double score = 0;
};

struct saddle_outcome {
  double lower_bound = 0;  ///< best certified LB over all rounds
  double upper_bound = 0;  ///< weighted load of the best averaged strategy
  int best_t = 0;          ///< round whose average achieved upper_bound
  int iterations = 0;
  bool converged = false;
};

/// The Hedge-vs-best-response loop with exact certificates, shared by the
/// plain and the f-aware optimizers (their certification bookkeeping must
/// never diverge). `respond(weighted)` picks the quorum player's action
/// against the capacity-weighted adversary distribution — recording any
/// per-action counts of its own — and `snapshot()` fires whenever the
/// running average becomes the new best, so the caller can copy those
/// counts at exactly the certified iterate.
template <class Respond, class Snapshot>
saddle_outcome run_saddle_point(process_id n, double rho,
                                const std::vector<double>& inv_cap,
                                const planner_options& options,
                                Respond respond, Snapshot snapshot) {
  const double scale = *std::max_element(inv_cap.begin(), inv_cap.end());
  // The adversary's payoff per read / write membership, evaluated once
  // per call; the rewards below add exactly these values.
  std::vector<double> read_payoff(n), write_payoff(n);
  for (process_id p = 0; p < n; ++p) {
    read_payoff[p] = rho * inv_cap[p] / scale;
    write_payoff[p] = (1.0 - rho) * inv_cap[p] / scale;
  }
  hedge_adversary adversary(n);
  std::vector<double> weighted(n, 0.0);
  std::vector<double> hits(n, 0.0);  // ρ-mixed membership counts
  saddle_outcome out;
  out.upper_bound = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= options.max_iterations; ++t) {
    out.iterations = t;
    const std::vector<double>& w = adversary.weights(t);
    for (process_id p = 0; p < n; ++p) weighted[p] = w[p] * inv_cap[p];

    // Exact best response; its score certifies the lower bound
    // min_σ Σ_p w_p·load_σ(p)/cap_p ≤ optimum (a max dominates any
    // average).
    const saddle_response resp = respond(weighted);
    out.lower_bound = std::max(out.lower_bound, resp.score);

    for (process_id p : resp.read_members) hits[p] += rho;
    for (process_id p : resp.write_members) hits[p] += 1.0 - rho;

    // Weighted load of the averaged strategy so far — feasible, hence an
    // upper bound; keep the best average seen. Rounded division by t > 0
    // is monotone, so dividing the largest product once yields the same
    // bits as the largest of the per-process quotients.
    double top = 0;
    for (process_id p = 0; p < n; ++p)
      top = std::max(top, hits[p] * inv_cap[p]);
    const double ub = top / static_cast<double>(t);
    if (ub < out.upper_bound) {
      out.upper_bound = ub;
      out.best_t = t;
      snapshot();
    }

    // Reward the adversary where the chosen quorums put load.
    for (process_id p : resp.read_members)
      adversary.reward(p, read_payoff[p]);
    for (process_id p : resp.write_members)
      adversary.reward(p, write_payoff[p]);

    if (out.upper_bound - out.lower_bound <= options.tolerance) {
      out.converged = true;
      break;
    }
  }
  return out;
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
  std::vector<double> read_count(reads.size(), 0.0);
  std::vector<double> write_count(writes.size(), 0.0);
  std::vector<double> best_read_count, best_write_count;
  std::vector<double> read_scores, write_scores;
  // The read/write product decomposes: the joint best response is the
  // pair of independent per-family argmins, and the averaged product
  // strategy's load depends only on the two marginals.
  const saddle_outcome out = run_saddle_point(
      n, rho, inv_cap, options,
      [&](const std::vector<double>& weighted) {
        family_scores(flat_reads, weighted, read_scores);
        family_scores(flat_writes, weighted, write_scores);
        const auto [i_read, s_read] = lowest(read_scores);
        const auto [i_write, s_write] = lowest(write_scores);
        read_count[i_read] += 1.0;
        write_count[i_write] += 1.0;
        return saddle_response{flat_reads[i_read], flat_writes[i_write],
                               rho * s_read + (1.0 - rho) * s_write};
      },
      [&] {
        best_read_count = read_count;
        best_write_count = write_count;
      });

  plan_result result;
  result.iterations = out.iterations;
  result.converged = out.converged;
  result.strategy.read_ratio = rho;
  result.strategy.reads.quorums = reads;
  result.strategy.writes.quorums = writes;
  result.strategy.reads.weights.resize(reads.size());
  result.strategy.writes.weights.resize(writes.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    result.strategy.reads.weights[i] =
        best_read_count[i] / static_cast<double>(out.best_t);
  for (std::size_t i = 0; i < writes.size(); ++i)
    result.strategy.writes.weights[i] =
        best_write_count[i] / static_cast<double>(out.best_t);
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
  result.lower_bound = std::min(out.lower_bound, result.weighted_load);
  result.gap = result.weighted_load - result.lower_bound;
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
  std::vector<double> count(plan.pairs.size(), 0.0);
  std::vector<double> best_count;
  std::vector<double> read_scores, write_scores;
  // Best response over the *pairs* — reads and writes are coupled here
  // because only validated combinations may carry mass.
  const saddle_outcome out = run_saddle_point(
      n, rho, inv_cap, options,
      [&](const std::vector<double>& weighted) {
        family_scores(pair_reads, weighted, read_scores);
        family_scores(pair_writes, weighted, write_scores);
        std::size_t best = 0;
        double best_score = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
          const double score =
              rho * read_scores[i] + (1.0 - rho) * write_scores[i];
          if (score < best_score) {
            best_score = score;
            best = i;
          }
        }
        count[best] += 1.0;
        return saddle_response{pair_reads[best], pair_writes[best],
                               best_score};
      },
      [&] { best_count = count; });
  plan.converged = out.converged;

  plan.weights.resize(plan.pairs.size());
  for (std::size_t i = 0; i < plan.pairs.size(); ++i)
    plan.weights[i] = best_count[i] / static_cast<double>(out.best_t);

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
  plan.lower_bound = std::min(out.lower_bound, plan.weighted_load);
  plan.gap = plan.weighted_load - plan.lower_bound;
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
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uint64_t survived = 0;
  for (std::uint64_t s = 0; s < options.samples; ++s) {
    process_set alive;
    for (process_id p = 0; p < n; ++p)
      if (coin(rng) >= fail[p]) alive.insert(p);
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
