#include "graph/process_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace gqs {
namespace {

TEST(ProcessSet, DefaultIsEmpty) {
  process_set s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  for (std::uint64_t w : s.words()) EXPECT_EQ(w, 0u);
}

TEST(ProcessSet, CapacityIsMultiWord) {
  EXPECT_EQ(process_set::word_count, 4u);
  EXPECT_EQ(process_set::max_processes, 256u);
}

TEST(ProcessSet, InitializerList) {
  process_set s{0, 2, 5};
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(5));
}

TEST(ProcessSet, InsertErase) {
  process_set s;
  s.insert(3);
  EXPECT_TRUE(s.contains(3));
  EXPECT_EQ(s.size(), 1);
  s.insert(3);  // idempotent
  EXPECT_EQ(s.size(), 1);
  s.erase(3);
  EXPECT_TRUE(s.empty());
  s.erase(3);  // idempotent
  EXPECT_TRUE(s.empty());
}

TEST(ProcessSet, FullUniverse) {
  process_set s = process_set::full(4);
  EXPECT_EQ(s.size(), 4);
  for (process_id p = 0; p < 4; ++p) EXPECT_TRUE(s.contains(p));
  EXPECT_FALSE(s.contains(4));
}

TEST(ProcessSet, FullOfZeroIsEmpty) {
  EXPECT_TRUE(process_set::full(0).empty());
}

TEST(ProcessSet, FullAcrossWordSeams) {
  // full(n) must populate exactly the first n bits for every n, including
  // the word-boundary values where the partial-word arithmetic is
  // delicate (shift-by-64 is UB if taken naively).
  for (process_id n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u,
                       255u, 256u}) {
    const process_set s = process_set::full(n);
    EXPECT_EQ(s.size(), static_cast<int>(n)) << "n=" << n;
    EXPECT_TRUE(s.contains(n - 1)) << "n=" << n;
    if (n < process_set::max_processes) {
      EXPECT_FALSE(s.contains(n)) << "n=" << n;
    }
  }
}

TEST(ProcessSet, Singleton) {
  process_set s = process_set::singleton(7);
  EXPECT_EQ(s.size(), 1);
  EXPECT_TRUE(s.contains(7));
}

TEST(ProcessSet, MembersStraddlingWordBoundaries) {
  // Ids 63/64/65 live in words 0/1/1; 127/128 in words 1/2. All set
  // algebra must treat them uniformly.
  process_set s{63, 64, 65, 127, 128, 255};
  EXPECT_EQ(s.size(), 6);
  for (process_id p : {63u, 64u, 65u, 127u, 128u, 255u})
    EXPECT_TRUE(s.contains(p)) << p;
  EXPECT_FALSE(s.contains(62));
  EXPECT_FALSE(s.contains(66));
  EXPECT_FALSE(s.contains(129));
  EXPECT_EQ(s.word(0), std::uint64_t{1} << 63);
  EXPECT_EQ(s.word(1), (std::uint64_t{1} << 0) | (std::uint64_t{1} << 1) |
                           (std::uint64_t{1} << 63));
  EXPECT_EQ(s.word(2), std::uint64_t{1});
  EXPECT_EQ(s.word(3), std::uint64_t{1} << 63);

  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(65));
}

TEST(ProcessSet, OutOfRangeThrows) {
  process_set s;
  EXPECT_THROW(s.insert(256), std::out_of_range);
  EXPECT_THROW(s.contains(256), std::out_of_range);
  EXPECT_THROW(s.erase(1000), std::out_of_range);
  EXPECT_THROW(process_set::full(257), std::out_of_range);
  EXPECT_THROW(process_set::singleton(256), std::out_of_range);
}

TEST(ProcessSet, ErrorMessagesAreCapacityDerived) {
  // Messages must name the actual capacity, not a hard-coded 64.
  try {
    process_set{}.insert(300);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("256"), std::string::npos)
        << e.what();
  }
  try {
    process_set::full(999);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("256"), std::string::npos)
        << e.what();
  }
}

TEST(ProcessSet, FromWords) {
  const process_set s = process_set::from_words({0x5, 0x0, 0x1});
  EXPECT_EQ(s, (process_set{0, 2, 128}));
  EXPECT_EQ(process_set::from_words({}), process_set{});
  // Round trip through words().
  const process_set t{1, 64, 200, 255};
  const auto ws = t.words();
  EXPECT_EQ(process_set::from_words(
                std::span<const std::uint64_t>(ws.data(), ws.size())),
            t);
  // Too many words is an error, not a silent truncation.
  EXPECT_THROW(process_set::from_words({1, 2, 3, 4, 5}), std::out_of_range);
}

TEST(ProcessSet, ForEachWordVisitsAllWords) {
  const process_set s{0, 64, 130, 255};
  std::vector<std::uint64_t> seen(process_set::word_count, 0);
  s.for_each_word([&](std::size_t i, std::uint64_t w) { seen[i] = w; });
  for (std::size_t i = 0; i < process_set::word_count; ++i)
    EXPECT_EQ(seen[i], s.word(i));
}

TEST(ProcessSet, SingleWordCapacityIs64) {
  const auto s = basic_process_set<1>::from_words({0b1011u});
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(basic_process_set<1>::max_processes, 64u);
  EXPECT_THROW(basic_process_set<1>{}.insert(64), std::out_of_range);
}

TEST(ProcessSet, SetAlgebra) {
  process_set a{0, 1, 2};
  process_set b{2, 3};
  EXPECT_EQ((a | b), (process_set{0, 1, 2, 3}));
  EXPECT_EQ((a & b), process_set{2});
  EXPECT_EQ((a - b), (process_set{0, 1}));
  EXPECT_EQ((b - a), process_set{3});
}

TEST(ProcessSet, SetAlgebraAcrossWords) {
  process_set a{10, 70, 130, 200};
  process_set b{70, 130, 250};
  EXPECT_EQ((a & b), (process_set{70, 130}));
  EXPECT_EQ((a | b), (process_set{10, 70, 130, 200, 250}));
  EXPECT_EQ((a - b), (process_set{10, 200}));
  EXPECT_TRUE((process_set{70, 130}).is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE((process_set{11, 71}).intersects(a));
}

TEST(ProcessSet, CompoundAssignment) {
  process_set a{0, 1};
  a |= process_set{2};
  EXPECT_EQ(a, (process_set{0, 1, 2}));
  a &= process_set{1, 2};
  EXPECT_EQ(a, (process_set{1, 2}));
  a -= process_set{1};
  EXPECT_EQ(a, process_set{2});
}

TEST(ProcessSet, SubsetSuperset) {
  process_set a{1, 2};
  process_set b{0, 1, 2, 3};
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(b.is_superset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(process_set{}.is_subset_of(a));
}

TEST(ProcessSet, Intersects) {
  EXPECT_TRUE((process_set{0, 1}).intersects(process_set{1, 2}));
  EXPECT_FALSE((process_set{0, 1}).intersects(process_set{2, 3}));
  EXPECT_FALSE(process_set{}.intersects(process_set{0}));
}

TEST(ProcessSet, ComplementIn) {
  process_set a{0, 2};
  EXPECT_EQ(a.complement_in(4), (process_set{1, 3}));
  EXPECT_EQ(a.complement_in(3), process_set{1});
  // Complement across word seams.
  const process_set b{63, 64};
  const process_set c = b.complement_in(66);
  EXPECT_EQ(c.size(), 64);
  EXPECT_FALSE(c.contains(63));
  EXPECT_FALSE(c.contains(64));
  EXPECT_TRUE(c.contains(65));
}

TEST(ProcessSet, First) {
  EXPECT_EQ((process_set{3, 5}).first(), 3u);
  EXPECT_EQ(process_set::singleton(63).first(), 63u);
  EXPECT_EQ(process_set::singleton(64).first(), 64u);
  EXPECT_EQ(process_set::singleton(255).first(), 255u);
  EXPECT_THROW(process_set{}.first(), std::out_of_range);
}

TEST(ProcessSet, IterationInOrder) {
  process_set s{5, 1, 9, 0};
  std::vector<process_id> seen(s.begin(), s.end());
  EXPECT_EQ(seen, (std::vector<process_id>{0, 1, 5, 9}));
}

TEST(ProcessSet, IterationCrossesWordSeams) {
  process_set s{0, 63, 64, 127, 128, 192, 255};
  std::vector<process_id> seen(s.begin(), s.end());
  EXPECT_EQ(seen,
            (std::vector<process_id>{0, 63, 64, 127, 128, 192, 255}));
}

TEST(ProcessSet, IterationOfEmpty) {
  process_set s;
  EXPECT_EQ(s.begin(), s.end());
}

TEST(ProcessSet, ToString) {
  EXPECT_EQ(process_set{}.to_string(), "{}");
  EXPECT_EQ((process_set{0, 2}).to_string(), "{0, 2}");
}

TEST(ProcessSet, ToStringCompressesRuns) {
  // Runs of >= 3 render as ranges; pairs stay explicit.
  EXPECT_EQ(process_set::full(128).to_string(), "{0..127}");
  EXPECT_EQ((process_set{0, 1, 2, 5}).to_string(), "{0..2, 5}");
  EXPECT_EQ((process_set{0, 1, 4}).to_string(), "{0, 1, 4}");
  EXPECT_EQ((process_set{3, 60, 61, 62, 63, 64, 65, 200}).to_string(),
            "{3, 60..65, 200}");
}

TEST(ProcessSet, OrderingByValue) {
  EXPECT_LT(process_set{0}, process_set{1});
  // High words dominate: {200} > any set confined to lower words.
  EXPECT_LT(process_set::full(64), process_set::singleton(200));
  std::set<process_set> ordered{process_set{2}, process_set{0}};
  EXPECT_EQ(ordered.begin()->first(), 0u);
}

TEST(ProcessSet, HashDistinguishes) {
  process_set_hash h;
  EXPECT_NE(h(process_set{0}), h(process_set{1}));
  EXPECT_EQ(h(process_set{0, 3}), h(process_set{3, 0}));
  // High-word-only sets must not collide with their low-word twins.
  EXPECT_NE(h(process_set{0}), h(process_set{64}));
  EXPECT_NE(h(process_set{64}), h(process_set{128}));
}

// Randomized differential test against std::set<process_id>: the bitset
// and the oracle must agree on every operation at sizes spread across the
// whole 256-id capacity.
TEST(ProcessSet, RandomizedOracleAgreement) {
  std::mt19937 rng(20250807);
  for (int round = 0; round < 50; ++round) {
    const process_id n = static_cast<process_id>(
        std::uniform_int_distribution<int>(1, 256)(rng));
    std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
    process_set a, b;
    std::set<process_id> oa, ob;
    const int ops = 3 * static_cast<int>(n);
    for (int i = 0; i < ops; ++i) {
      const process_id p = static_cast<process_id>(pick(rng));
      const process_id q = static_cast<process_id>(pick(rng));
      a.insert(p);
      oa.insert(p);
      b.insert(q);
      ob.insert(q);
      if (i % 3 == 0) {
        a.erase(q);
        oa.erase(q);
      }
    }
    ASSERT_EQ(a.size(), static_cast<int>(oa.size()));
    ASSERT_EQ(std::vector<process_id>(a.begin(), a.end()),
              std::vector<process_id>(oa.begin(), oa.end()));
    for (process_id p = 0; p < n; ++p)
      ASSERT_EQ(a.contains(p), oa.count(p) != 0) << "n=" << n << " p=" << p;

    // Set algebra vs oracle set operations.
    std::set<process_id> ou, oi, od;
    std::set_union(oa.begin(), oa.end(), ob.begin(), ob.end(),
                   std::inserter(ou, ou.end()));
    std::set_intersection(oa.begin(), oa.end(), ob.begin(), ob.end(),
                          std::inserter(oi, oi.end()));
    std::set_difference(oa.begin(), oa.end(), ob.begin(), ob.end(),
                        std::inserter(od, od.end()));
    ASSERT_EQ(std::vector<process_id>((a | b).begin(), (a | b).end()),
              std::vector<process_id>(ou.begin(), ou.end()));
    ASSERT_EQ(std::vector<process_id>((a & b).begin(), (a & b).end()),
              std::vector<process_id>(oi.begin(), oi.end()));
    ASSERT_EQ(std::vector<process_id>((a - b).begin(), (a - b).end()),
              std::vector<process_id>(od.begin(), od.end()));
    ASSERT_EQ(a.intersects(b), !oi.empty());
    ASSERT_EQ(a.is_subset_of(b), oi.size() == oa.size());

    // Complement partitions the universe.
    const process_set comp = a.complement_in(n);
    ASSERT_EQ((a | comp), process_set::full(n));
    ASSERT_TRUE((a & comp).empty());

    // first() matches the oracle minimum; ordering matches lexicographic
    // comparison of the reversed word sequence (value order).
    if (!oa.empty()) {
      ASSERT_EQ(a.first(), *oa.begin());
    }

    // Equality and hashing are representation-independent.
    process_set rebuilt;
    for (process_id p : oa) rebuilt.insert(p);
    ASSERT_EQ(rebuilt, a);
    ASSERT_EQ(process_set_hash{}(rebuilt), process_set_hash{}(a));
  }
}

class ProcessSetSizeSweep : public ::testing::TestWithParam<process_id> {};

TEST_P(ProcessSetSizeSweep, FullSizeMatchesN) {
  const process_id n = GetParam();
  EXPECT_EQ(process_set::full(n).size(), static_cast<int>(n));
}

TEST_P(ProcessSetSizeSweep, ComplementPartitionsUniverse) {
  const process_id n = GetParam();
  if (n == 0) return;
  process_set s;
  for (process_id p = 0; p < n; p += 2) s.insert(p);
  const process_set c = s.complement_in(n);
  EXPECT_EQ((s | c), process_set::full(n));
  EXPECT_TRUE((s & c).empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProcessSetSizeSweep,
                         ::testing::Values(0, 1, 2, 7, 31, 32, 63, 64, 65,
                                           127, 128, 129, 192, 255, 256));

}  // namespace
}  // namespace gqs
