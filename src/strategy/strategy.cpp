#include "strategy/strategy.hpp"

#include <cmath>
#include <limits>

namespace gqs {

void quorum_strategy::validate() const {
  if (quorums.empty())
    throw std::invalid_argument("quorum_strategy: empty family");
  if (quorums.size() != weights.size())
    throw std::invalid_argument("quorum_strategy: weights/quorums mismatch");
  double total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (std::isnan(weights[i]))
      throw std::invalid_argument("quorum_strategy: NaN weight");
    if (weights[i] < 0)
      throw std::invalid_argument("quorum_strategy: negative weight");
    if (quorums[i].empty())
      throw std::invalid_argument("quorum_strategy: empty quorum");
    total += weights[i];
  }
  if (std::abs(total - 1.0) > 1e-6)
    throw std::invalid_argument("quorum_strategy: weights must sum to 1");
}

quorum_strategy quorum_strategy::uniform(quorum_family family) {
  if (family.empty())
    throw std::invalid_argument("quorum_strategy: empty family");
  quorum_strategy s;
  s.weights.assign(family.size(),
                   1.0 / static_cast<double>(family.size()));
  s.quorums = std::move(family);
  return s;
}

quorum_strategy quorum_strategy::pure(process_set quorum) {
  quorum_strategy s;
  s.quorums = {quorum};
  s.weights = {1.0};
  return s;
}

double quorum_strategy::member_probability(process_id p) const {
  double prob = 0;
  for (std::size_t i = 0; i < quorums.size(); ++i)
    if (quorums[i].contains(p)) prob += weights[i];
  return prob;
}

double quorum_strategy::expected_quorum_size() const {
  double size = 0;
  for (std::size_t i = 0; i < quorums.size(); ++i)
    size += weights[i] * static_cast<double>(quorums[i].size());
  return size;
}

void quorum_strategy::prune(double epsilon) {
  quorum_family kept_quorums;
  std::vector<double> kept_weights;
  double total = 0;
  for (std::size_t i = 0; i < quorums.size(); ++i) {
    if (weights[i] <= epsilon) continue;
    kept_quorums.push_back(quorums[i]);
    kept_weights.push_back(weights[i]);
    total += weights[i];
  }
  if (kept_quorums.empty() || total <= 0) return;  // keep as-is
  for (double& w : kept_weights) w /= total;
  quorums = std::move(kept_quorums);
  weights = std::move(kept_weights);
}

void read_write_strategy::validate() const {
  reads.validate();
  writes.validate();
  if (!(read_ratio >= 0.0 && read_ratio <= 1.0))
    throw std::invalid_argument("read_write_strategy: bad read ratio");
}

std::vector<double> per_process_load(const read_write_strategy& s,
                                     process_id n) {
  std::vector<double> load(n, 0.0);
  for (process_id p = 0; p < n; ++p)
    load[p] = s.read_ratio * s.reads.member_probability(p) +
              (1.0 - s.read_ratio) * s.writes.member_probability(p);
  return load;
}

double system_load(const read_write_strategy& s, process_id n) {
  double worst = 0;
  for (double l : per_process_load(s, n)) worst = std::max(worst, l);
  return worst;
}

double strategy_capacity(const read_write_strategy& s, process_id n,
                         const std::vector<double>& capacities) {
  if (!capacities.empty() && capacities.size() != n)
    throw std::invalid_argument("strategy_capacity: capacity vector size");
  const std::vector<double> load = per_process_load(s, n);
  double cap = std::numeric_limits<double>::infinity();
  for (process_id p = 0; p < n; ++p) {
    if (load[p] <= 0) continue;
    const double c = capacities.empty() ? 1.0 : capacities[p];
    if (c <= 0)
      throw std::invalid_argument("strategy_capacity: nonpositive capacity");
    cap = std::min(cap, c / load[p]);
  }
  return cap;
}

double expected_network_cost(const read_write_strategy& s) {
  return s.read_ratio * s.reads.expected_quorum_size() +
         (1.0 - s.read_ratio) * s.writes.expected_quorum_size();
}

}  // namespace gqs
