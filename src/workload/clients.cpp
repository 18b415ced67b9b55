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

void client_workload_options::validate(process_id n) const {
  validate();
  if (n == 0) throw std::invalid_argument("workload: no processes");
  if (partition_writes && keys < n)
    throw std::invalid_argument(
        "workload: partitioned writes need at least one key per process");
}

reg_value pack_client_value(process_id p, std::uint64_t i) {
  // Positive, unique per (p, i), and readable in failure output.
  return static_cast<reg_value>((std::uint64_t{p} << 40) | (i + 1));
}

schedule_stream::schedule_stream(process_id p, process_id n,
                                 const client_workload_options& options,
                                 const schedule_samplers& samplers)
    : options_(&options),
      samplers_(&samplers),
      p_(p),
      n_(n),
      // Decorrelate neighboring clients the way the experiment runner
      // decorrelates grid cells.
      rng_(options.seed * 0x9e3779b97f4a7c15ull + p),
      left_(options.ops_per_process) {
  if (left_ > 0) draw();
}

void schedule_stream::draw() {
  client_op op;
  op.key = samplers_->keys(rng_);
  op.is_read = samplers_->read(rng_);
  if (!op.is_read) {
    if (options_->partition_writes) {
      // Keep the zipf skew but land in this process's partition (largest
      // key ≡ p mod n at or below the drawn key's block — the drawn block
      // may be the truncated top one).
      const service_key base = op.key - (op.key % n_);
      op.key = base + p_ < options_->keys ? base + p_ : base + p_ - n_;
    }
    op.value = pack_client_value(p_, writes_++);
  }
  next_ = op;
}

std::vector<std::vector<client_op>> make_schedules(
    process_id n, const client_workload_options& options) {
  options.validate(n);
  const schedule_samplers samplers(options);
  std::vector<std::vector<client_op>> schedules(n);
  for (process_id p = 0; p < n; ++p) {
    schedule_stream stream(p, n, options, samplers);
    schedules[p].reserve(options.ops_per_process);
    while (!stream.empty()) schedules[p].push_back(stream.pop());
  }
  return schedules;
}

}  // namespace gqs
