#include "workload/clients.hpp"

#include <cmath>
#include <stdexcept>

namespace gqs {

namespace {

std::vector<double> zipf_cdf(std::size_t n, double theta) {
  if (n == 0) throw std::invalid_argument("zipf_sampler: empty domain");
  if (theta < 0) throw std::invalid_argument("zipf_sampler: bad theta");
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;  // guard against rounding at the top
  return cdf;
}

}  // namespace

zipf_sampler::zipf_sampler(std::size_t n, double theta)
    : draw_(zipf_cdf(n, theta)) {}

void client_workload_options::validate() const {
  if (keys == 0) throw std::invalid_argument("workload: no keys");
  if (zipf_theta < 0) throw std::invalid_argument("workload: bad theta");
  if (read_ratio < 0 || read_ratio > 1)
    throw std::invalid_argument("workload: bad read ratio");
  if (inflight_window < 1)
    throw std::invalid_argument("workload: bad in-flight window");
  if (think_time < 0 || open_interval < 0)
    throw std::invalid_argument("workload: bad client timing");
}

reg_value pack_client_value(process_id p, std::uint64_t i) {
  // Positive, unique per (p, i), and readable in failure output.
  return static_cast<reg_value>((std::uint64_t{p} << 40) | (i + 1));
}

std::vector<std::vector<client_op>> make_schedules(
    process_id n, const client_workload_options& options) {
  options.validate();
  if (n == 0) throw std::invalid_argument("workload: no processes");
  if (options.partition_writes && options.keys < n)
    throw std::invalid_argument(
        "workload: partitioned writes need at least one key per process");
  const zipf_sampler keys(options.keys, options.zipf_theta);
  const sampling::bernoulli read(options.read_ratio);
  std::vector<std::vector<client_op>> schedules(n);
  for (process_id p = 0; p < n; ++p) {
    // Decorrelate neighboring clients the way the experiment runner
    // decorrelates grid cells.
    std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ull + p);
    std::uint64_t writes = 0;
    schedules[p].reserve(options.ops_per_process);
    for (std::uint64_t i = 0; i < options.ops_per_process; ++i) {
      client_op op;
      op.key = keys(rng);
      op.is_read = read(rng);
      if (!op.is_read) {
        if (options.partition_writes) {
          // Keep the zipf skew but land in this process's partition
          // (largest key ≡ p mod n at or below the drawn key's block —
          // the drawn block may be the truncated top one).
          const service_key base = op.key - (op.key % n);
          op.key = base + p < options.keys ? base + p : base + p - n;
        }
        op.value = pack_client_value(p, writes++);
      }
      schedules[p].push_back(op);
    }
  }
  return schedules;
}

}  // namespace gqs
