// sampling_test — the integer-threshold kernels of core/sampling.hpp
// against the libstdc++ distributions they replace, draw for draw, and
// the inputs built on them (client schedules, corpus systems, the
// planner's Monte-Carlo estimate) pinned to the values the std
// distributions gave.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/sampling.hpp"
#include "strategy/planner.hpp"
#include "workload/clients.hpp"
#include "workload/topologies.hpp"

namespace gqs {
namespace {

using sampling::bernoulli;
using sampling::inverse_cdf;

constexpr std::uint64_t kMax = ~std::uint64_t{0};

/// A URBG that returns one fixed output: the std distributions evaluated
/// at a chosen engine output.
struct fixed_engine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kMax; }
  result_type x;
  result_type operator()() { return x; }
};

double std_unit(std::uint64_t x) {
  fixed_engine e{x};
  return std::uniform_real_distribution<double>(0.0, 1.0)(e);
}

bool std_bernoulli(double p, std::uint64_t x) {
  fixed_engine e{x};
  return std::bernoulli_distribution(p)(e);
}

/// Outputs around the places where rounding to double matters: the ends,
/// the 2^53 boundary, round-half-to-even ties, and the top ulp that
/// rounds up to 2^64.
std::vector<std::uint64_t> edge_outputs() {
  std::vector<std::uint64_t> xs = {0, 1, 2, kMax, kMax - 1};
  for (int shift : {52, 53, 54, 62, 63}) {
    const std::uint64_t b = std::uint64_t{1} << shift;
    for (std::uint64_t d : {0ull, 1ull, 2ull, 3ull}) {
      xs.push_back(b + d);
      xs.push_back(b - d);
    }
  }
  for (std::uint64_t d = 0; d < 4096; d += 511) xs.push_back(kMax - d);
  xs.push_back((std::uint64_t{1} << 63) + (std::uint64_t{1} << 10));
  xs.push_back((std::uint64_t{1} << 63) + (std::uint64_t{3} << 10));
  return xs;
}

const std::vector<double> kProbabilities = {
    0, 1e-9, 0.05, 0.3, 0.5, 0.9, 1 - 0x1p-53, 1};

TEST(Sampling, UnitEqualsStdUniformReal) {
  for (std::uint64_t x : edge_outputs())
    EXPECT_EQ(sampling::unit(x), std_unit(x)) << x;
  std::mt19937_64 a(11), b(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 1000000; ++i) {
    const double want = u(a);
    ASSERT_EQ(sampling::unit(b()), want) << "draw " << i;
  }
}

TEST(Sampling, BernoulliEqualsStdOverAMillionDraws) {
  for (double p : kProbabilities) {
    const bernoulli coin(p);
    std::mt19937_64 a(5), b(5);
    std::bernoulli_distribution d(p);
    for (int i = 0; i < 1000000; ++i) {
      const bool want = d(a);
      ASSERT_EQ(coin(b), want) << "p " << p << " draw " << i;
    }
  }
}

TEST(Sampling, BernoulliEqualsStdAroundItsThreshold) {
  for (double p : kProbabilities) {
    const bernoulli coin(p);
    const std::uint64_t t = coin.threshold();
    for (std::uint64_t d = 0; d <= 4; ++d) {
      const std::uint64_t x = t - 2 + d;  // wraps below 0 and above max
      EXPECT_EQ(coin(x), std_bernoulli(p, x)) << "p " << p << " x " << x;
    }
    for (std::uint64_t x : edge_outputs())
      EXPECT_EQ(coin(x), std_bernoulli(p, x)) << "p " << p << " x " << x;
  }
  EXPECT_EQ(bernoulli(0).threshold(), 0u);
  EXPECT_TRUE(bernoulli(1)(kMax));
  EXPECT_FALSE(bernoulli(0)(0));
  EXPECT_FALSE(bernoulli(std::nan(""))(0));
}

/// The Zipf table zipf_sampler builds.
std::vector<double> zipf_table(std::size_t n, double theta) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

std::size_t reference_draw(const std::vector<double>& cdf, std::uint64_t x) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), std_unit(x)) - cdf.begin());
}

/// The least x with std_unit(x) > c, found independently of the kernel.
std::uint64_t first_above(double c) {
  if (std_unit(kMax) <= c) return kMax;
  std::uint64_t lo = 0, hi = kMax;  // std_unit(lo) <= c < std_unit(hi)
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (std_unit(mid) <= c ? lo : hi) = mid;
  }
  return hi;
}

TEST(Sampling, InverseCdfEqualsLowerBound) {
  for (std::size_t n : {1, 2, 7, 256, 4096}) {
    for (double theta : {0.0, 0.5, 0.99, 1.5}) {
      const std::vector<double> cdf = zipf_table(n, theta);
      const inverse_cdf draw(cdf);
      const zipf_sampler zipf(n, theta);
      ASSERT_EQ(draw.size(), n);
      ASSERT_EQ(zipf.size(), n);
      // Both sides of every entry's boundary.
      for (double c : cdf) {
        const std::uint64_t b = first_above(c);
        for (std::uint64_t x : {b - 1, b, b + 1})
          ASSERT_EQ(draw(x), reference_draw(cdf, x))
              << "n " << n << " theta " << theta << " x " << x;
      }
      for (std::uint64_t x : edge_outputs())
        ASSERT_EQ(draw(x), reference_draw(cdf, x)) << "x " << x;
      std::mt19937_64 a(n), b(n);
      for (int i = 0; i < 100000; ++i) {
        const std::size_t want = reference_draw(cdf, a());
        ASSERT_EQ(zipf(b), want) << "n " << n << " theta " << theta;
      }
    }
  }
}

TEST(Sampling, InverseCdfTakesAnyNondecreasingTable) {
  // Repeated entries, an entry at 0 and a top below 1 (lower_bound may
  // then return end()).
  const std::vector<double> cdf = {0.0, 0.25, 0.25, 0.5, 0.7};
  const inverse_cdf draw(cdf);
  for (std::uint64_t x : edge_outputs())
    EXPECT_EQ(draw(x), reference_draw(cdf, x)) << x;
  for (double c : cdf) {
    const std::uint64_t b = first_above(c);
    for (std::uint64_t x : {b - 1, b, b + 1})
      EXPECT_EQ(draw(x), reference_draw(cdf, x)) << x;
  }
  EXPECT_THROW(inverse_cdf(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(inverse_cdf(std::vector<double>{0.5, 0.4}),
               std::invalid_argument);
  EXPECT_THROW(inverse_cdf(std::vector<double>{-0.1, 1.0}),
               std::invalid_argument);
}

/// FNV-1a over 64-bit words.
struct fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t schedules_digest(const client_workload_options& opts) {
  fnv d;
  for (const std::vector<client_op>& s : make_schedules(8, opts))
    for (const client_op& op : s) {
      d.mix(op.is_read);
      d.mix(op.key);
      d.mix(static_cast<std::uint64_t>(op.value));
    }
  return d.h;
}

// The pinned digests below were computed with the std distributions, before
// the kernels replaced them.
TEST(Sampling, SchedulesPinnedBitForBit) {
  client_workload_options svc;  // svc-n8-targeted's shape
  svc.keys = 256;
  svc.zipf_theta = 0.99;
  svc.read_ratio = 0.9;
  svc.ops_per_process = 40000;
  svc.seed = 2;
  EXPECT_EQ(schedules_digest(svc), 0xe83238a31767282full);
  client_workload_options smr = svc;  // smr-n8-congested's shape
  smr.keys = 64;
  smr.read_ratio = 0.5;
  smr.seed = 1;
  EXPECT_EQ(schedules_digest(smr), 0x8a7521eb13577ac8ull);
}

TEST(Sampling, CorpusSystemsPinnedBitForBit) {
  fnv d;
  const std::vector<scenario_family> families = topology_corpus(64);
  std::uint64_t drawn = 0;
  for (std::size_t i = 0; i < families.size(); ++i) {
    scenario_params params = families[i].params;
    if (params.topology.n < 12) continue;
    params.patterns = 16;
    for (std::uint64_t s = 0; s < 8; ++s) {
      std::mt19937_64 rng(1000 * i + s);
      for (const failure_pattern& f : scenario_system(params, rng)) {
        const process_set crashed = f.crashable();
        for (std::uint64_t w : crashed.words()) d.mix(w);
        for (const process_set& row : f.faulty_rows())
          for (std::uint64_t w : row.words()) d.mix(w);
      }
      d.mix(rng());  // the next draw: the system consumed the same outputs
      ++drawn;
    }
  }
  EXPECT_EQ(drawn, 336u);
  EXPECT_EQ(d.h, 0x424d3cd5af8e63e1ull);
}

TEST(Sampling, MonteCarloAvailabilityPinnedBitForBit) {
  constexpr process_id kN = 20;
  quorum_family q;
  for (process_id base : {0, 5, 9}) {
    process_set s;
    for (process_id p = base; p < base + 11; ++p) s.insert(p);
    q.push_back(s);
  }
  availability_options opts;
  for (process_id p = 0; p < kN; ++p)
    opts.fail_probabilities.push_back(0.02 + 0.01 * p);
  opts.samples = 20000;
  opts.seed = 3;
  const availability_estimate est =
      estimate_availability(kN, q, q, nullptr, opts);
  EXPECT_FALSE(est.exact);
  EXPECT_EQ(est.probability, 10804.0 / 20000.0);  // 10,804 survived
}

}  // namespace
}  // namespace gqs
