#include "core/parse.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/factories.hpp"
#include "core/random_systems.hpp"

namespace gqs {
namespace {

TEST(Parse, MinimalSystem) {
  const auto fps = parse_fail_prone_system("system 3\npattern\n");
  EXPECT_EQ(fps.system_size(), 3u);
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_TRUE(fps[0].crashable().empty());
  EXPECT_EQ(fps[0].faulty_channels().edge_count(), 0);
}

TEST(Parse, CrashAndFailClauses) {
  const auto fps = parse_fail_prone_system(
      "system 4\n"
      "pattern crash={3} fail={(0,2), (1,2), (2,1)}\n");
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_EQ(fps[0].crashable(), process_set{3});
  EXPECT_TRUE(fps[0].channel_may_fail(0, 2));
  EXPECT_TRUE(fps[0].channel_may_fail(1, 2));
  EXPECT_TRUE(fps[0].channel_may_fail(2, 1));
  EXPECT_FALSE(fps[0].channel_may_fail(2, 0));
}

TEST(Parse, ClausesInEitherOrder) {
  const auto fps = parse_fail_prone_system(
      "system 3\npattern fail={(0,1)} crash={2}\n");
  EXPECT_EQ(fps[0].crashable(), process_set{2});
  EXPECT_TRUE(fps[0].channel_may_fail(0, 1));
}

TEST(Parse, CommentsAndBlankLines) {
  const auto fps = parse_fail_prone_system(
      "# the paper's f1\n"
      "system 4   # four processes\n"
      "\n"
      "pattern crash={3}  # d may crash\n");
  EXPECT_EQ(fps.size(), 1u);
}

TEST(Parse, EmptySetsAllowed) {
  const auto fps =
      parse_fail_prone_system("system 2\npattern crash={} fail={}\n");
  EXPECT_TRUE(fps[0].crashable().empty());
}

TEST(Parse, Errors) {
  EXPECT_THROW(parse_fail_prone_system(""), parse_error);
  EXPECT_THROW(parse_fail_prone_system("pattern\n"), parse_error);  // no size
  EXPECT_THROW(parse_fail_prone_system("system 0\n"), parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 257\n"), parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 3\nsystem 3\n"), parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 3\nbogus\n"), parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 3\npattern crash={9}\n"),
               parse_error);
  // Beyond process_set's capacity, not just beyond n.
  EXPECT_THROW(parse_fail_prone_system("system 3\npattern crash={300}\n"),
               parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 3\npattern crash={1\n"),
               parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 3\npattern fail={(0,1}\n"),
               parse_error);
  EXPECT_THROW(parse_fail_prone_system("system 3 extra\n"), parse_error);
  // Channel incident to a crashable process violates the model.
  EXPECT_THROW(
      parse_fail_prone_system("system 3\npattern crash={0} fail={(0,1)}\n"),
      parse_error);
  // A repeated clause is rejected, not silently overwritten.
  EXPECT_THROW(
      parse_fail_prone_system("system 4\npattern crash={0} crash={3}\n"),
      parse_error);
  EXPECT_THROW(parse_fail_prone_system(
                   "system 4\npattern fail={(0,2)} crash={3} fail={(1,2)}\n"),
               parse_error);
}

TEST(Parse, ErrorCarriesLineNumber) {
  // Crash ids past n, one past process_set's capacity, repeated clauses.
  for (const char* text :
       {"system 3\n\npattern crash={4}\n", "system 3\n\npattern crash={9}\n",
        "system 3\n\npattern crash={300}\n",
        "system 4\n\npattern crash={0} crash={3}\n",
        "system 4\n\npattern fail={(0,2)} fail={(1,2)}\n"}) {
    try {
      parse_fail_prone_system(text);
      ADD_FAILURE() << "expected parse_error: " << text;
    } catch (const parse_error& e) {
      EXPECT_EQ(e.line(), 3) << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "expected parse_error, got " << e.what() << ": "
                    << text;
    }
  }
}

TEST(Parse, Figure1RoundTrip) {
  const auto original = make_figure1().gqs.fps;
  const auto reparsed =
      parse_fail_prone_system(format_fail_prone_system(original));
  EXPECT_EQ(reparsed, original);
}

class ParseRoundTripSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParseRoundTripSweep, RandomSystemsRoundTrip) {
  std::mt19937_64 rng(GetParam());
  random_system_params params;
  params.n = 6;
  params.patterns = 4;
  params.channel_fail_probability = 0.4;
  for (int trial = 0; trial < 10; ++trial) {
    const auto fps = random_fail_prone_system(params, rng);
    const std::string text = format_fail_prone_system(fps);
    EXPECT_EQ(parse_fail_prone_system(text), fps) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseRoundTripSweep, ::testing::Range(0u, 6u));

}  // namespace
}  // namespace gqs
