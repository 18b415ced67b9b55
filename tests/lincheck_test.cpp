#include <gtest/gtest.h>

#include "lincheck/history_checker.hpp"
#include "lincheck/wing_gong.hpp"

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

register_op pending_write(reg_value x, sim_time inv, process_id p = 0) {
  register_op op;
  op.kind = reg_op_kind::write;
  op.proc = p;
  op.value = x;
  op.invoked_at = inv;
  return op;
}

// ---------- black-box (Wing–Gong) ----------

TEST(MaybeTime, EmptyOnlyWhenUnset) {
  EXPECT_FALSE(maybe_time().has_value());
  EXPECT_FALSE(maybe_time(std::nullopt));
  EXPECT_EQ(maybe_time(), maybe_time(std::nullopt));
  const maybe_time zero = 0, negative = -5;
  EXPECT_TRUE(zero.has_value());
  EXPECT_TRUE(negative);
  EXPECT_EQ(*zero, 0);
  EXPECT_EQ(*negative, -5);
  EXPECT_EQ(zero.value_or(7), 0);
  EXPECT_EQ(maybe_time().value_or(7), 7);
  EXPECT_NE(zero, maybe_time());
  EXPECT_EQ(negative, maybe_time(-5));

  maybe_time t = 3;
  *t *= 10;
  EXPECT_EQ(*t, 30);
  t.reset();
  EXPECT_FALSE(t);
  EXPECT_EQ(t.value_or(-1), -1);
  t = std::nullopt;
  EXPECT_FALSE(t.has_value());

  register_op op;
  EXPECT_FALSE(op.complete());
  op.returned_at = 0;
  EXPECT_TRUE(op.complete());
}

TEST(WingGong, EmptyHistory) {
  EXPECT_TRUE(check_linearizable({}));
}

TEST(WingGong, SingleReadOfInitial) {
  register_history h = {read_op(0, 0, 10, {})};
  EXPECT_TRUE(check_linearizable(h, 0));
  EXPECT_FALSE(check_linearizable(h, 42));  // initial is 42, read says 0
}

TEST(WingGong, SequentialWriteRead) {
  register_history h = {write_op(5, 0, 10, {1, 0}),
                        read_op(5, 20, 30, {1, 0})};
  EXPECT_TRUE(check_linearizable(h));
}

TEST(WingGong, StaleReadAfterWriteRejected) {
  register_history h = {write_op(5, 0, 10, {1, 0}),
                        read_op(0, 20, 30, {})};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, ConcurrentReadMayGoEitherWay) {
  // Read overlaps the write: may return old or new value.
  register_history h_old = {write_op(5, 0, 100, {1, 0}),
                            read_op(0, 10, 20, {})};
  register_history h_new = {write_op(5, 0, 100, {1, 0}),
                            read_op(5, 10, 20, {1, 0})};
  EXPECT_TRUE(check_linearizable(h_old));
  EXPECT_TRUE(check_linearizable(h_new));
}

TEST(WingGong, ReadYourWrites) {
  // p writes 1, reads back 0: not linearizable.
  register_history h = {write_op(1, 0, 10, {1, 0}, 0),
                        read_op(0, 20, 30, {}, 0)};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, NewOldInversionRejected) {
  // Two sequential reads observing versions in opposite order of two
  // sequential writes.
  register_history h = {
      write_op(1, 0, 10, {1, 0}, 0),  write_op(2, 20, 30, {2, 0}, 0),
      read_op(2, 40, 50, {2, 0}, 1),  read_op(1, 60, 70, {1, 0}, 1),
  };
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, ConcurrentWritesEitherOrder) {
  register_history h = {
      write_op(1, 0, 100, {1, 0}, 0),
      write_op(2, 0, 100, {1, 1}, 1),
      read_op(1, 200, 210, {1, 0}, 2),  // 2 then 1
      read_op(1, 220, 230, {1, 0}, 2),
  };
  EXPECT_TRUE(check_linearizable(h));
  // But flip-flopping between them is not linearizable.
  register_history bad = h;
  bad.push_back(read_op(2, 240, 250, {1, 1}, 2));
  bad.push_back(read_op(1, 260, 270, {1, 0}, 2));
  EXPECT_FALSE(check_linearizable(bad));
}

TEST(WingGong, PendingWriteMayTakeEffect) {
  // The write never returned, yet a later read sees it — fine: the write
  // can be linearized before the read.
  register_history h = {pending_write(9, 0),
                        read_op(9, 100, 110, {1, 0})};
  EXPECT_TRUE(check_linearizable(h));
}

TEST(WingGong, PendingWriteMayBeDropped) {
  register_history h = {pending_write(9, 0), read_op(0, 100, 110, {})};
  EXPECT_TRUE(check_linearizable(h));
}

TEST(WingGong, PendingWriteCannotTakeEffectBeforeInvocation) {
  // Read completes before the pending write is even invoked.
  register_history h = {read_op(9, 0, 10, {1, 0}), pending_write(9, 50)};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, ResponseBeforeInvocationRejected) {
  register_history h = {write_op(1, 100, 50, {1, 0})};
  EXPECT_FALSE(check_linearizable(h));
}

TEST(WingGong, TooLongHistoryThrows) {
  register_history h(65, read_op(0, 0, 1, {}));
  EXPECT_THROW(check_linearizable(h), std::invalid_argument);
}

TEST(WingGong, ABAValuesHandled) {
  // Two writes of the same value by different processes; reads may
  // attribute to either.
  register_history h = {
      write_op(7, 0, 10, {1, 0}, 0),
      write_op(7, 20, 30, {2, 1}, 1),
      read_op(7, 40, 50, {2, 1}, 2),
  };
  EXPECT_TRUE(check_linearizable(h));
}

// ---------- white-box (Appendix-B dependency graph) ----------

/// The white-box verdict on `h` (initial value 0): the batch checker's
/// result, after checking that a streaming replay of the same history
/// agrees.
lincheck_result white_box(const register_history& h) {
  lincheck_result batch = check_history(h);
  streaming_checker stream(1);
  EXPECT_EQ(replay_streaming(stream, h).linearizable, batch.linearizable)
      << batch.reason;
  return batch;
}

TEST(DependencyGraph, EmptyAndTrivial) {
  EXPECT_TRUE(white_box({}));
  register_history h = {read_op(0, 0, 10, {})};
  EXPECT_TRUE(white_box(h));
}

TEST(DependencyGraph, SequentialChain) {
  register_history h = {
      write_op(1, 0, 10, {1, 0}, 0),
      read_op(1, 20, 30, {1, 0}, 1),
      write_op(2, 40, 50, {2, 1}, 1),
      read_op(2, 60, 70, {2, 1}, 0),
  };
  EXPECT_TRUE(white_box(h));
}

TEST(DependencyGraph, Proposition3DuplicateWriteVersions) {
  register_history h = {write_op(1, 0, 10, {1, 0}),
                        write_op(2, 20, 30, {1, 0})};
  const auto r = white_box(h);
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("share version"), std::string::npos);
}

TEST(DependencyGraph, Proposition3WriteWithInitialVersion) {
  register_history h = {write_op(1, 0, 10, {0, 0})};
  EXPECT_FALSE(white_box(h));
}

TEST(DependencyGraph, Proposition3ReadOfUnknownVersion) {
  register_history h = {read_op(5, 0, 10, {3, 2})};
  const auto r = white_box(h);
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("unknown version"), std::string::npos);
}

TEST(DependencyGraph, Proposition3ValueMismatch) {
  register_history h = {write_op(1, 0, 10, {1, 0}),
                        read_op(2, 20, 30, {1, 0})};
  EXPECT_FALSE(white_box(h));
}

TEST(DependencyGraph, InitialReadWrongValue) {
  register_history h = {read_op(3, 0, 10, {})};
  EXPECT_FALSE(white_box(h));
  EXPECT_TRUE(check_history(h, 3));
}

TEST(DependencyGraph, RtVersionInversionCycle) {
  // Write of version (2,·) returns before write of version (1,·) is
  // invoked: rt says w2 < w1 but ww says w1 < w2 → cycle.
  register_history h = {write_op(2, 0, 10, {2, 0}, 0),
                        write_op(1, 20, 30, {1, 1}, 1)};
  const auto r = white_box(h);
  EXPECT_FALSE(r.linearizable);
  EXPECT_NE(r.reason.find("cycle"), std::string::npos);
}

TEST(DependencyGraph, StaleReadCycle) {
  // Read of version (1,·) invoked after a write of version (2,·)
  // returned: rt w2→r, rw r→w2 → cycle.
  register_history h = {
      write_op(1, 0, 10, {1, 0}, 0),
      write_op(2, 20, 30, {2, 0}, 0),
      read_op(1, 40, 50, {1, 0}, 1),
  };
  EXPECT_FALSE(white_box(h));
}

TEST(DependencyGraph, PendingOpsIgnored) {
  register_history h = {write_op(1, 0, 10, {1, 0}),
                        pending_write(2, 5)};
  EXPECT_TRUE(white_box(h));
}

TEST(DependencyGraph, ReadsAfterBothConcurrentWrites) {
  // Both writes completed before either read starts, so the version order
  // (1,0) < (1,1) fixes the final value to 2: a read returning 1 after
  // that point is stale regardless of read order (rt w2→r plus rw r→w2
  // forms a cycle). Reads of the *final* version are fine.
  register_history stale = {
      write_op(1, 0, 100, {1, 0}, 0),
      write_op(2, 0, 100, {1, 1}, 1),
      read_op(1, 150, 160, {1, 0}, 2),
      read_op(2, 170, 180, {1, 1}, 2),
  };
  EXPECT_FALSE(white_box(stale));
  EXPECT_FALSE(check_linearizable(stale));  // checkers agree
  register_history fine = {
      write_op(1, 0, 100, {1, 0}, 0),
      write_op(2, 0, 100, {1, 1}, 1),
      read_op(2, 150, 160, {1, 1}, 2),
      read_op(2, 170, 180, {1, 1}, 2),
  };
  EXPECT_TRUE(white_box(fine));
  EXPECT_TRUE(check_linearizable(fine));
}

TEST(WingGong, LongSequentialHistoryChecksInstantly) {
  // Memoization keeps sequential histories trivial: 60 alternating ops.
  register_history h;
  sim_time t = 0;
  for (int i = 0; i < 30; ++i) {
    h.push_back(write_op(i, t, t + 5, {static_cast<std::uint64_t>(i + 1), 0}));
    t += 10;
    h.push_back(read_op(i, t, t + 5, {static_cast<std::uint64_t>(i + 1), 0}));
    t += 10;
  }
  EXPECT_TRUE(check_linearizable(h));
  EXPECT_TRUE(white_box(h));
  // And the same history with the last read rewound is rejected fast too.
  h.back().value = 0;
  h.back().version = {};
  EXPECT_FALSE(check_linearizable(h));
  EXPECT_FALSE(white_box(h));
}

TEST(WingGong, WideConcurrencyChecksQuickly) {
  // 10 fully concurrent writes (distinct values) + 10 later sequential
  // reads of the LAST linearized value chain: forces real search but must
  // stay fast thanks to the (mask, value) memo.
  register_history h;
  for (int i = 0; i < 10; ++i)
    h.push_back(write_op(i + 1, 0, 100,
                         {1, static_cast<process_id>(i)},
                         static_cast<process_id>(i)));
  // Reads all return value 10 (one consistent final write).
  for (int i = 0; i < 10; ++i)
    h.push_back(read_op(10, 200 + i * 10, 205 + i * 10, {1, 9}, 10));
  EXPECT_TRUE(check_linearizable(h));
  EXPECT_TRUE(white_box(h));
}

TEST(CheckersAgree, OnHandCraftedHistories) {
  // Where both checkers apply (complete histories with honest version
  // tags), the black-box and white-box verdicts must coincide.
  const std::vector<register_history> cases = {
      {},
      {write_op(1, 0, 10, {1, 0}), read_op(1, 20, 30, {1, 0})},
      {write_op(1, 0, 10, {1, 0}), read_op(0, 20, 30, {})},
      {write_op(1, 0, 10, {1, 0}, 0), write_op(2, 20, 30, {2, 1}, 1),
       read_op(2, 40, 50, {2, 1}, 2), read_op(1, 60, 70, {1, 0}, 2)},
      {write_op(1, 0, 100, {1, 0}, 0), write_op(2, 0, 100, {1, 1}, 1),
       read_op(1, 150, 160, {1, 0}, 2), read_op(2, 170, 180, {1, 1}, 2)},
      {write_op(1, 0, 100, {1, 0}, 0), write_op(2, 0, 100, {1, 1}, 1),
       read_op(2, 150, 160, {1, 1}, 2), read_op(2, 170, 180, {1, 1}, 2)},
  };
  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_EQ(check_linearizable(cases[i]).linearizable,
              check_history(cases[i]).linearizable)
        << "case " << i;
}

}  // namespace
}  // namespace gqs
