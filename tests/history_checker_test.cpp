// history_checker_test — unit tests for the white-box dependency-graph
// checker: concrete counterexample cycles, closed samples against
// Wing–Gong, keyed counterexamples remapped to global indices, and the
// streaming window lifecycle (retirement, bounded memory, in-window
// violation latching).
#include <gtest/gtest.h>

#include <algorithm>

#include "lincheck/history_checker.hpp"
#include "lincheck/history_gen.hpp"
#include "lincheck/wing_gong.hpp"
#include "history_mutations.hpp"

namespace gqs {
namespace {

register_op write_op(reg_value x, sim_time inv, sim_time ret,
                     reg_version ver, process_id p = 0) {
  register_op op;
  op.kind = reg_op_kind::write;
  op.proc = p;
  op.value = x;
  op.invoked_at = inv;
  op.returned_at = ret;
  op.version = ver;
  return op;
}

register_op read_op(reg_value result, sim_time inv, sim_time ret,
                    reg_version ver, process_id p = 0) {
  register_op op;
  op.kind = reg_op_kind::read;
  op.proc = p;
  op.value = result;
  op.invoked_at = inv;
  op.returned_at = ret;
  op.version = ver;
  return op;
}

// ---------- batch mode: verdicts and payloads ----------

TEST(HistoryChecker, EmptyAndTrivial) {
  EXPECT_TRUE(check_history({}));
  register_history h = {read_op(0, 0, 10, {})};
  EXPECT_TRUE(check_history(h));
  EXPECT_EQ(check_history(h).checked_ops, 1u);
}

TEST(HistoryChecker, SequentialChain) {
  register_history h = {
      write_op(1, 0, 10, {1, 0}, 0),
      read_op(1, 20, 30, {1, 0}, 1),
      write_op(2, 40, 50, {2, 1}, 1),
      read_op(2, 60, 70, {2, 1}, 0),
  };
  EXPECT_TRUE(check_history(h));
}

TEST(HistoryChecker, Proposition3Sanity) {
  {
    register_history h = {write_op(1, 0, 10, {1, 0}),
                          write_op(2, 20, 30, {1, 0})};
    const auto r = check_history(h);
    EXPECT_FALSE(r.linearizable);
    EXPECT_NE(r.reason.find("share version"), std::string::npos) << r.reason;
  }
  {
    register_history h = {write_op(1, 0, 10, {0, 0})};
    const auto r = check_history(h);
    EXPECT_FALSE(r.linearizable);
    EXPECT_NE(r.reason.find("initial version"), std::string::npos);
  }
  {
    register_history h = {read_op(5, 0, 10, {3, 2})};
    const auto r = check_history(h);
    EXPECT_FALSE(r.linearizable);
    EXPECT_NE(r.reason.find("unknown version"), std::string::npos);
  }
  {
    register_history h = {write_op(1, 0, 10, {1, 0}),
                          read_op(2, 20, 30, {1, 0})};
    const auto r = check_history(h);
    EXPECT_FALSE(r.linearizable);
    EXPECT_NE(r.reason.find("disagrees"), std::string::npos);
  }
  {
    register_history h = {read_op(3, 0, 10, {})};
    EXPECT_FALSE(check_history(h, 0));
    EXPECT_TRUE(check_history(h, 3));
  }
}

TEST(HistoryChecker, ResponseBeforeInvocationRejected) {
  // Matches Wing–Gong.
  register_history h = {write_op(1, 100, 50, {1, 0})};
  const auto r = check_history(h);
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("before invocation"), std::string::npos);
}

TEST(HistoryChecker, RtVersionInversionCycleWithPayload) {
  register_history h = {write_op(2, 0, 10, {2, 0}, 0),
                        write_op(1, 20, 30, {1, 1}, 1)};
  const auto r = check_history(h);
  ASSERT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("cycle"), std::string::npos);
  ASSERT_FALSE(r.cycle.empty());
  // The cycle is a closed loop over history indices 0 and 1.
  for (std::size_t i = 0; i < r.cycle.size(); ++i)
    EXPECT_EQ(r.cycle[i].to, r.cycle[(i + 1) % r.cycle.size()].from);
  EXPECT_TRUE(r.cycle_contains(0));
  EXPECT_TRUE(r.cycle_contains(1));
  // Both relations that clash are named.
  bool has_ww = false, has_rt = false;
  for (const cycle_edge& e : r.cycle) {
    has_ww |= e.kind == dep_edge::ww;
    has_rt |= e.kind == dep_edge::rt;
  }
  EXPECT_TRUE(has_ww);
  EXPECT_TRUE(has_rt);
  // The reason renders the offending ops, not just a bare verdict.
  EXPECT_NE(r.reason.find("write("), std::string::npos) << r.reason;
}

TEST(HistoryChecker, StaleReadCycleContainsRead) {
  register_history h = {
      write_op(1, 0, 10, {1, 0}, 0),
      write_op(2, 20, 30, {2, 0}, 0),
      read_op(1, 40, 50, {1, 0}, 1),
  };
  const auto r = check_history(h);
  ASSERT_FALSE(r.linearizable);
  EXPECT_TRUE(r.cycle_contains(2));
}

// ---------- reads-from-closed sampling ----------

TEST(HistoryChecker, ClosedSamplesOfValidHistoryStayValid) {
  synthetic_history_options o;
  o.ops = 500;
  o.procs = 4;
  o.overlap = 4;
  const register_history h = make_synthetic_history(11, o);
  for (std::size_t begin = 0; begin + 24 <= h.size(); begin += 97) {
    const register_history sample = closed_sample(h, begin, 24);
    ASSERT_LE(sample.size(), 48u);
    const auto wg = check_linearizable(sample);
    EXPECT_TRUE(wg.linearizable) << "begin " << begin << ": " << wg.reason;
  }
}

// ---------- keyed mode ----------

std::vector<keyed_register_op> make_keyed_history(std::uint64_t seed,
                                                  service_key keys,
                                                  std::size_t ops_per_key) {
  std::vector<register_history> per_key(keys);
  for (service_key k = 0; k < keys; ++k) {
    synthetic_history_options o;
    o.ops = ops_per_key;
    o.procs = 4;
    o.overlap = 3;
    per_key[k] = make_synthetic_history(seed * 131 + k, o);
  }
  // Interleave round-robin so per-key indices differ from global ones.
  std::vector<keyed_register_op> keyed;
  for (std::size_t i = 0; i < ops_per_key; ++i)
    for (service_key k = 0; k < keys; ++k) {
      if (i >= per_key[k].size()) continue;
      keyed.push_back({k, per_key[k][i]});
    }
  return keyed;
}

TEST(KeyedChecker, ValidRunPassesWithPerKeyCounts) {
  const auto keyed = make_keyed_history(3, 8, 60);
  const auto r = check_keyed_history(keyed, 8);
  EXPECT_TRUE(r.linearizable) << r.reason;
  ASSERT_EQ(r.per_key_ops.size(), 8u);
  std::uint64_t total = 0;
  for (const std::uint64_t c : r.per_key_ops) {
    EXPECT_GT(c, 0u);
    total += c;
  }
  EXPECT_EQ(total, r.checked_ops);
  EXPECT_EQ(r.checked_ops, keyed.size());
}

TEST(KeyedChecker, CounterexampleNamesGlobalIndices) {
  for (const bool corrupt : {false, true}) {
    auto keyed = make_keyed_history(5, 6, 50);
    if (corrupt) {
      // Corrupt key 3 via the stale-read mutator on its projection.
      register_history proj;
      std::vector<std::size_t> where;
      for (std::size_t i = 0; i < keyed.size(); ++i)
        if (keyed[i].key == 3) {
          proj.push_back(keyed[i].op);
          where.push_back(i);
        }
      const auto touched = mutate_stale_read(proj, 1);
      ASSERT_FALSE(touched.empty());
      for (std::size_t i = 0; i < proj.size(); ++i)
        keyed[where[i]].op = proj[i];
    }
    const auto r = check_keyed_history(keyed, 6);
    EXPECT_EQ(r.linearizable, !corrupt);
    EXPECT_EQ(r.per_key_ops.size(), 6u);
    if (corrupt) {
      // The counterexample names global indices of key-3 ops.
      ASSERT_FALSE(r.cycle.empty());
      for (const cycle_edge& e : r.cycle) {
        EXPECT_EQ(keyed[e.from].key, 3u);
        EXPECT_EQ(keyed[e.to].key, 3u);
      }
      EXPECT_NE(r.reason.find("key 3"), std::string::npos) << r.reason;
    }
  }
}

TEST(KeyedChecker, KeyOutsideSpaceRejected) {
  std::vector<keyed_register_op> keyed = {
      {9, write_op(1, 0, 10, {1, 0})}};
  const auto r = check_keyed_history(keyed, 4);
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("key"), std::string::npos);
}

// ---------- streaming mode ----------

TEST(StreamingChecker, ValidRunRetiresEverything) {
  synthetic_history_options o;
  o.ops = 2000;
  o.procs = 6;
  o.overlap = 5;
  const register_history h = make_synthetic_history(17, o);
  streaming_checker checker(1);
  std::uint64_t hook_total = 0;
  std::uint64_t batches = 0;
  checker.set_retire_hook([&](service_key key, std::uint64_t n) {
    EXPECT_EQ(key, 0u);
    hook_total += n;
    ++batches;
  });
  const auto& r = replay_streaming(checker, h);
  EXPECT_TRUE(r.linearizable) << r.reason;
  EXPECT_EQ(checker.checked_ops(), h.size());
  // Once the run drains, every op is behind the cut: O(window) memory
  // means nothing is left live.
  EXPECT_EQ(checker.active_ops(), 0u);
  EXPECT_EQ(checker.retired_ops(), h.size());
  EXPECT_EQ(hook_total, checker.retired_ops());
  EXPECT_GT(batches, 1u);  // windows closed throughout, not once at the end
  ASSERT_EQ(r.per_key_ops.size(), 1u);
  EXPECT_EQ(r.per_key_ops[0], h.size());
}

TEST(StreamingChecker, WindowStaysBoundedMidRun) {
  synthetic_history_options o;
  o.ops = 3000;
  o.procs = 8;
  o.overlap = 8;
  const register_history h = make_synthetic_history(23, o);
  streaming_checker checker(1);
  // Feed manually so the live window can be sampled while streaming.
  std::size_t peak = 0;
  struct event {
    std::uint64_t at;
    bool ret;
    std::size_t idx;
  };
  std::vector<event> events;
  for (std::size_t i = 0; i < h.size(); ++i) {
    events.push_back({h[i].invoked_stamp, false, i});
    if (h[i].complete()) events.push_back({h[i].returned_stamp, true, i});
  }
  std::sort(events.begin(), events.end(),
            [](const event& a, const event& b) { return a.at < b.at; });
  for (const event& e : events) {
    if (e.ret)
      checker.on_complete(0, h[e.idx], e.idx);
    else
      checker.on_invoke(0, h[e.idx].invoked_stamp);
    peak = std::max(peak, checker.active_ops());
  }
  EXPECT_TRUE(checker.finish().linearizable);
  // The window never grows with history length — only with concurrency.
  EXPECT_LE(peak, 4u * o.overlap);
}

TEST(StreamingChecker, ViolationSurfacesInItsWindow) {
  synthetic_history_options o;
  o.ops = 1000;
  o.procs = 4;
  o.overlap = 3;
  register_history h = make_synthetic_history(29, o);
  const auto touched = mutate_stale_read(h, 2);
  ASSERT_FALSE(touched.empty());
  streaming_checker checker(1);
  const auto& r = replay_streaming(checker, h);
  ASSERT_FALSE(r.linearizable);
  EXPECT_GT(checker.violation_at(), 0u);
  // Latches at the offending completion, not at the end of the run.
  EXPECT_LT(checker.violation_at(), h.size());
  EXPECT_TRUE(r.cycle_contains(touched.front()) ||
              r.reason.find("frontier") != std::string::npos)
      << r.reason;
}

TEST(StreamingChecker, MatchesBatchVerdictOnMutations) {
  for (const history_mutator& m : history_mutations()) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      synthetic_history_options o;
      o.ops = 200;
      o.procs = 4;
      o.overlap = 4;
      register_history h = make_synthetic_history(seed * 17 + 3, o);
      const auto touched = m.apply(h, seed);
      if (touched.empty()) continue;
      const bool batch_ok = check_history(h).linearizable;
      streaming_checker checker(1);
      const bool stream_ok = replay_streaming(checker, h).linearizable;
      EXPECT_EQ(batch_ok, stream_ok) << m.name << " seed " << seed;
      EXPECT_FALSE(stream_ok) << m.name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gqs
