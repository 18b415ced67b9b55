// lincheck_scale_test — million-op validation of the white-box checker
// in batch, keyed and streaming form.
// These tests are labeled `slow` in CTest and additionally skip unless
// GQS_SLOW_TESTS is set, so the default test pass stays fast; the Release
// CI job runs them with `GQS_SLOW_TESTS=1 ctest -L slow`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "lincheck/history_checker.hpp"
#include "lincheck/history_gen.hpp"
#include "lincheck/wing_gong.hpp"

namespace gqs {
namespace {

constexpr std::size_t kMillion = 1'000'000;

bool slow_enabled() {
  const char* v = std::getenv("GQS_SLOW_TESTS");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

#define REQUIRE_SLOW()                                                  \
  if (!slow_enabled()) GTEST_SKIP() << "set GQS_SLOW_TESTS=1 to run the \
million-op tier"

register_history million_op_history(std::uint64_t seed) {
  synthetic_history_options o;
  o.ops = kMillion;
  o.procs = 16;
  o.overlap = 8;
  o.read_permille = 600;
  return make_synthetic_history(seed, o);
}

TEST(LincheckScale, MillionOpBatchValidatesWithSampledCrossChecks) {
  REQUIRE_SLOW();
  const register_history h = million_op_history(1);
  const auto r = check_history(h);
  EXPECT_TRUE(r.linearizable) << r.reason;
  EXPECT_EQ(r.checked_ops, h.size());

  // The verdict must match Wing–Gong on sampled closed sub-histories
  // (≤64 ops) spread across the run.
  for (std::size_t begin = 0; begin + 1000 <= h.size();
       begin += h.size() / 8) {
    const register_history wg_sample = closed_sample(h, begin, 24);
    ASSERT_LE(wg_sample.size(), 64u);
    const auto wg = check_linearizable(wg_sample);
    EXPECT_TRUE(wg.linearizable) << "begin " << begin << ": " << wg.reason;
  }
}

TEST(LincheckScale, MillionOpStreamingKeepsWindowBounded) {
  REQUIRE_SLOW();
  const register_history h = million_op_history(2);
  streaming_checker checker(1);
  std::uint64_t hook_total = 0;
  checker.set_retire_hook(
      [&](service_key, std::uint64_t n) { hook_total += n; });
  const auto& r = replay_streaming(checker, h);
  EXPECT_TRUE(r.linearizable) << r.reason;
  EXPECT_EQ(checker.checked_ops(), h.size());
  EXPECT_EQ(checker.retired_ops(), h.size());
  EXPECT_EQ(hook_total, h.size());
  EXPECT_EQ(checker.active_ops(), 0u);
}

TEST(LincheckScale, MillionOpKeyedValidates) {
  REQUIRE_SLOW();
  constexpr service_key kKeys = 16;
  std::vector<register_history> per_key(kKeys);
  for (service_key k = 0; k < kKeys; ++k) {
    synthetic_history_options o;
    o.ops = kMillion / kKeys;
    o.procs = 8;
    o.overlap = 6;
    per_key[k] = make_synthetic_history(100 + k, o);
  }
  std::vector<keyed_register_op> keyed;
  keyed.reserve(kMillion);
  for (std::size_t i = 0; i < kMillion / kKeys; ++i)
    for (service_key k = 0; k < kKeys; ++k)
      keyed.push_back({k, per_key[k][i]});

  const auto r = check_keyed_history(keyed, kKeys);
  EXPECT_TRUE(r.linearizable) << r.reason;
  EXPECT_EQ(r.checked_ops, keyed.size());
  ASSERT_EQ(r.per_key_ops.size(), kKeys);
  for (const std::uint64_t ops : r.per_key_ops)
    EXPECT_EQ(ops, kMillion / kKeys);
}

TEST(LincheckScale, MillionOpInjectedStaleReadCaught) {
  REQUIRE_SLOW();
  register_history h = million_op_history(3);
  // Inject a stale read deep into the run by hand (the shared mutator
  // scans all write/read pairs, which is quadratic at this size): rewind
  // a late read to the very first write's version.
  std::size_t first_write = h.size();
  for (std::size_t i = 0; i < h.size(); ++i)
    if (h[i].kind == reg_op_kind::write) {
      first_write = i;
      break;
    }
  ASSERT_LT(first_write, h.size());
  std::size_t victim = h.size();
  for (std::size_t i = (h.size() * 3) / 5; i < h.size(); ++i)
    if (h[i].kind == reg_op_kind::read && h[i].complete() &&
        !(h[i].version == h[first_write].version)) {
      victim = i;
      break;
    }
  ASSERT_LT(victim, h.size());
  h[victim].version = h[first_write].version;
  h[victim].value = h[first_write].value;

  const auto batch = check_history(h);
  ASSERT_FALSE(batch.linearizable);
  EXPECT_TRUE(batch.cycle_contains(victim) ||
              batch.reason.find("frontier") != std::string::npos)
      << batch.reason;

  streaming_checker checker(1);
  const auto& live = replay_streaming(checker, h);
  ASSERT_FALSE(live.linearizable);
  // Surfaces in the window where it happens, not at the end of the run.
  EXPECT_GT(checker.violation_at(), 0u);
  EXPECT_LE(checker.violation_at(), victim + 1);
}

}  // namespace
}  // namespace gqs
