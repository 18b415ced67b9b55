// lincheck_mutation_test — mutation testing of the linearizability
// checkers: take genuinely linearizable histories (produced by the real
// protocol and by the synthetic generator), inject targeted corruptions
// from the shared tests/history_mutations.hpp corpus, and require every
// checker to reject — in batch AND streaming modes — with the
// counterexample cycle passing through a mutated operation. Guards
// against checkers that silently accept everything.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "history_mutations.hpp"
#include "lincheck/history_checker.hpp"
#include "lincheck/history_gen.hpp"
#include "lincheck/wing_gong.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

/// Produces a complete, linearizable history: three rounds of
/// write-then-read across the two U_f1 members under pattern f1.
register_history make_real_history(std::uint64_t seed) {
  const auto fig = make_figure1();
  register_world<gqs_register_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), seed,
      network_options{}, quorum_config::of(fig.gqs), reg_state{},
      push_qaf_options{});
  for (int round = 0; round < 3; ++round) {
    const auto wi = w.client.invoke_write(0, 10 + round);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(wi); }, w.sim.now() + 600'000'000L));
    const auto ri = w.client.invoke_read(1);
    EXPECT_TRUE(w.sim.run_until_condition(
        [&] { return w.client.complete(ri); }, w.sim.now() + 600'000'000L));
  }
  return w.client.history();
}

class MutationSweep : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    history_ = make_real_history(GetParam());
    ASSERT_GE(history_.size(), 6u);
    ASSERT_TRUE(check_linearizable(history_).linearizable);
    ASSERT_TRUE(check_history(history_).linearizable);
  }
  register_history history_;

  std::size_t first_read() const {
    for (std::size_t i = 0; i < history_.size(); ++i)
      if (history_[i].kind == reg_op_kind::read) return i;
    ADD_FAILURE() << "no read in history";
    return 0;
  }
};

TEST_P(MutationSweep, PhantomReadValueRejected) {
  // A read returning a value nobody wrote.
  register_history mutated = history_;
  mutated[first_read()].value = 9999;
  EXPECT_FALSE(check_linearizable(mutated).linearizable);
  EXPECT_FALSE(check_history(mutated).linearizable);
}

TEST_P(MutationSweep, StaleReadRejected) {
  // The LAST read rewound to the FIRST write's value (all writes are
  // sequential and distinct, so this is a stale read).
  register_history mutated = history_;
  std::size_t last_read = history_.size();
  for (std::size_t i = 0; i < mutated.size(); ++i)
    if (mutated[i].kind == reg_op_kind::read) last_read = i;
  ASSERT_LT(last_read, mutated.size());
  reg_value first_written = 0;
  reg_version first_version{};
  for (const auto& op : mutated)
    if (op.kind == reg_op_kind::write) {
      first_written = op.value;
      first_version = op.version;
      break;
    }
  // Skip if the last read already returns the first write (degenerate).
  if (mutated[last_read].value == first_written) GTEST_SKIP();
  mutated[last_read].value = first_written;
  mutated[last_read].version = first_version;
  EXPECT_FALSE(check_linearizable(mutated).linearizable);
  const auto fast = check_history(mutated);
  EXPECT_FALSE(fast.linearizable);
  EXPECT_TRUE(fast.cycle_contains(last_read)) << fast.reason;
}

TEST_P(MutationSweep, SwappedWriteVersionsRejectedByWhiteBox) {
  // Swapping two writes' version tags breaks the ww/rt consistency that
  // the Appendix-B graph checks (the black-box checker does not see tags,
  // so only the white-box ones must catch pure tag corruption).
  register_history mutated = history_;
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < mutated.size(); ++i)
    if (mutated[i].kind == reg_op_kind::write) writes.push_back(i);
  ASSERT_GE(writes.size(), 2u);
  std::swap(mutated[writes.front()].version, mutated[writes.back()].version);
  EXPECT_FALSE(check_history(mutated).linearizable);
}

TEST_P(MutationSweep, DuplicatedVersionRejectedByWhiteBox) {
  register_history mutated = history_;
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < mutated.size(); ++i)
    if (mutated[i].kind == reg_op_kind::write) writes.push_back(i);
  ASSERT_GE(writes.size(), 2u);
  mutated[writes.back()].version = mutated[writes.front()].version;
  const auto fast = check_history(mutated);
  EXPECT_FALSE(fast.linearizable);
  EXPECT_NE(fast.reason.find("share version"), std::string::npos)
      << fast.reason;
}

TEST_P(MutationSweep, ReorderedResponseRejected) {
  // Wedge the LAST write's interval strictly between the first write's
  // response and the first read's invocation: the read then follows two
  // completed writes but returns the older one — a real-time violation.
  register_history mutated = history_;
  // Widen all stamp/time gaps so an interval fits strictly inside.
  for (auto& op : mutated) {
    op.invoked_at *= 10;
    if (op.returned_at) *op.returned_at *= 10;
    op.invoked_stamp *= 10;
    op.returned_stamp *= 10;
  }
  std::size_t first_write = mutated.size(), last_write = mutated.size();
  for (std::size_t i = 0; i < mutated.size(); ++i)
    if (mutated[i].kind == reg_op_kind::write) {
      if (first_write == mutated.size()) first_write = i;
      last_write = i;
    }
  const std::size_t fr = first_read();
  ASSERT_NE(first_write, last_write);
  ASSERT_NE(mutated[fr].value, mutated[last_write].value);
  mutated[last_write].invoked_at = *mutated[first_write].returned_at + 1;
  mutated[last_write].returned_at = mutated[fr].invoked_at - 1;
  mutated[last_write].invoked_stamp =
      mutated[first_write].returned_stamp + 1;
  mutated[last_write].returned_stamp = mutated[fr].invoked_stamp - 1;
  EXPECT_FALSE(check_linearizable(mutated).linearizable);
  const auto fast = check_history(mutated);
  EXPECT_FALSE(fast.linearizable);
  EXPECT_TRUE(fast.cycle_contains(last_write)) << fast.reason;
}

// ---- the shared mutation corpus, batch AND streaming ----

TEST_P(MutationSweep, CorpusCaughtInBatchAndStreaming) {
  struct source {
    std::string name;
    register_history h;
  };
  std::vector<source> sources;
  sources.push_back({"real", history_});
  synthetic_history_options o;
  o.ops = 150;
  o.procs = 4;
  o.overlap = 4;
  sources.push_back(
      {"synthetic", make_synthetic_history(GetParam() * 101 + 13, o)});

  std::map<std::string, unsigned> applied;
  for (const source& src : sources) {
    ASSERT_TRUE(check_history(src.h).linearizable) << src.name;
    {
      streaming_checker clean(1);
      ASSERT_TRUE(replay_streaming(clean, src.h).linearizable) << src.name;
    }
    for (const history_mutator& m : history_mutations()) {
      for (std::uint64_t pick = 0; pick < 3; ++pick) {
        register_history mutated = src.h;
        const auto touched = m.apply(mutated, pick);
        if (touched.empty()) continue;
        ++applied[m.name];
        const std::string ctx =
            src.name + " + " + m.name + " pick " + std::to_string(pick);

        const auto batch = check_history(mutated);
        EXPECT_FALSE(batch.linearizable) << ctx;

        streaming_checker stream(1);
        const auto& live = replay_streaming(stream, mutated);
        EXPECT_FALSE(live.linearizable) << ctx;

        if (m.expect_cycle) {
          // The counterexample must pass through a mutated op — the
          // mutators guarantee the graph minus the mutated ops is acyclic.
          const auto hits = [&](const lincheck_result& r) {
            for (const std::size_t t : touched)
              if (r.cycle_contains(t)) return true;
            return false;
          };
          ASSERT_FALSE(batch.cycle.empty()) << ctx << ": " << batch.reason;
          EXPECT_TRUE(hits(batch)) << ctx << ": " << batch.reason;
          ASSERT_FALSE(live.cycle.empty()) << ctx << ": " << live.reason;
          EXPECT_TRUE(hits(live)) << ctx << ": " << live.reason;
        }
      }
    }
  }
  // Every mutator in the corpus found a host somewhere.
  for (const history_mutator& m : history_mutations())
    EXPECT_GT(applied[m.name], 0u) << m.name << " never applicable";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationSweep, ::testing::Range(0u, 4u));

}  // namespace
}  // namespace gqs
