// sampling.hpp — exact integer-threshold kernels for the library's random
// draws on a std::mt19937_64.
//
// libstdc++ draws every real-valued variate from one engine output x
// through its canonical value
//
//   u(x) = min(double(x) · 2^-64, nextafter(1, 0))
//
// (generate_canonical<double, 53> needs a single 64-bit output): the
// [0, 1) uniform_real_distribution returns u(x), bernoulli_distribution(p)
// returns u(x) < p, and an inverse-CDF lower_bound over a table returns
// the number of entries below u(x). Since u is monotone in x, each of
// those is decided by integer thresholds on x alone. The kernels here find
// the thresholds once per sampler (a 64-step bisection each) and then draw
// with integer compares, so every draw equals the std distribution's bit
// for bit: the workload schedules, corpus instances and Monte-Carlo
// estimates built on them are the ones the std distributions give.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace gqs::sampling {

/// nextafter(1, 0): the largest canonical value.
inline constexpr double kBelowOne = 1.0 - 0x1p-53;

/// u(x) above. double(hi32)·2^32 and double(lo32) are both exact, so their
/// sum rounds once, to the double nearest x, which is what the (branchy)
/// unsigned-to-double conversion returns.
inline double unit(std::uint64_t x) noexcept {
  const double d = static_cast<double>(x >> 32) * 0x1p32 +
                   static_cast<double>(static_cast<std::uint32_t>(x));
  const double u = d * 0x1p-64;
  return u < 1.0 ? u : kBelowOne;
}

/// The least x with u(x) >= c, for u(0) < c <= u(max): the bisection keeps
/// u(lo) < c <= u(hi).
inline std::uint64_t first_at_or_above(double c) noexcept {
  std::uint64_t lo = 0, hi = std::numeric_limits<std::uint64_t>::max();
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (unit(mid) < c ? lo : hi) = mid;
  }
  return hi;
}

/// bernoulli_distribution(p) on one engine output: u(x) < p holds exactly
/// for x < T(p), the least x with u(x) >= p. No x reaches p = 1, so it is
/// always true; p <= 0 (or NaN) is never true.
class bernoulli {
 public:
  explicit bernoulli(double p)
      : all_(kBelowOne < p),
        threshold_(all_ || !(unit(0) < p) ? 0 : first_at_or_above(p)) {}

  bool operator()(std::uint64_t x) const noexcept {
    return x < threshold_ || all_;
  }
  bool operator()(std::mt19937_64& rng) const { return (*this)(rng()); }

  /// T(p); 0 when every draw is true or none is.
  std::uint64_t threshold() const noexcept { return threshold_; }

 private:
  bool all_;
  std::uint64_t threshold_;
};

/// lower_bound(cdf, u(x)) - cdf.begin() for a nondecreasing table of
/// values >= 0. Entry k counts iff cdf[k] < u(x), i.e. iff x > last[k],
/// the greatest x with u(x) <= cdf[k]; a guide table on x's top byte holds
/// the first entry each byte can fail to pass, so a draw scans only the
/// thresholds that fall inside its 2^56-wide slice of x.
class inverse_cdf {
 public:
  explicit inverse_cdf(const std::vector<double>& cdf) {
    if (cdf.empty() || cdf.size() >= std::numeric_limits<std::uint32_t>::max())
      throw std::invalid_argument("inverse_cdf: bad table size");
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    last_.reserve(cdf.size() + 1);
    double prev = 0;
    for (double c : cdf) {
      if (!(c >= prev))
        throw std::invalid_argument("inverse_cdf: table not nondecreasing");
      prev = c;
      // u(x) <= c holds for every x, or up to the first x above c.
      last_.push_back(kBelowOne <= c
                          ? kMax
                          : first_at_or_above(std::nextafter(c, 2.0)) - 1);
    }
    last_.push_back(kMax);  // lower_bound's end(): stops every scan
    std::uint32_t k = 0;
    for (std::uint64_t b = 0; b < guide_.size(); ++b) {
      while (last_[k] < b << 56) ++k;
      guide_[b] = k;
    }
  }

  std::size_t operator()(std::uint64_t x) const noexcept {
    std::size_t k = guide_[x >> 56];
    while (x > last_[k]) ++k;
    return k;
  }

  /// Table entries, excluding the end sentinel.
  std::size_t size() const noexcept { return last_.size() - 1; }

 private:
  std::vector<std::uint64_t> last_;
  std::array<std::uint32_t, 256> guide_{};
};

}  // namespace gqs::sampling
