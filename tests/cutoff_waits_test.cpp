// cutoff_waits_test — Figure 3's two clock waits (quorum/qaf_core.hpp's
// cutoff_waits) in isolation, over a fake engine whose per-process
// freshness clocks the test sets by hand. The engines' end-to-end
// completion order is pinned in register_test, ablation_test and
// quorum_service_test.
#include "quorum/qaf_core.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace gqs {
namespace {

/// Three processes; reads {0, 1} and {1,2}, writes {0, 1} and {1,2}.
quorum_config three_config() {
  return quorum_config{{process_set{0, 1}, process_set{1, 2}},
                       {process_set{0, 1}, process_set{1, 2}}};
}

/// The engine side: a hand-set freshness clock per process, and a log of
/// completions ("label" or "label:read quorum").
struct fake_engine {
  std::vector<std::uint64_t> freshness = std::vector<std::uint64_t>(3, 0);
  std::vector<std::string> log;
  std::function<void(const std::string&)> on_complete;

  process_set fresh_at(std::uint64_t cutoff) const {
    process_set fresh;
    for (process_id p = 0; p < freshness.size(); ++p)
      if (freshness[p] >= cutoff) fresh.insert(p);
    return fresh;
  }
  void complete_get(std::string&& label, const process_set& read_quorum) {
    std::string line = label;
    line += ":";
    line += read_quorum.to_string();
    log.push_back(std::move(line));
    if (on_complete) on_complete(label);
  }
  void complete_set(std::string&& label) {
    log.push_back(label);
    if (on_complete) on_complete(label);
  }
};

struct rig {
  using waits_type = cutoff_waits<fake_engine, std::string, std::string>;

  quorum_config config = three_config();
  fake_engine engine;
  waits_type waits;

  explicit rig(push_qaf_options options = {})
      : waits(engine, config, options) {}

  /// Opens get `seq` with the get cutoff on; the probe starts no round.
  void open_get(std::uint64_t seq, std::string label) {
    EXPECT_FALSE(waits.open_get(seq, std::move(label),
                                [] { return targeted_round::none; }));
  }
};

TEST(CutoffWaits, GetsCompleteBeforeSetsInAscendingSequence) {
  rig r;
  r.open_get(4, "g4");
  r.waits.open_set(3, "s3");
  r.open_get(2, "g2");
  r.waits.open_set(1, "s1");
  for (const std::uint64_t seq : {1, 2, 3, 4}) {
    const bool get = seq % 2 == 0;
    for (const process_id p : {0, 1}) {
      if (get)
        r.waits.get_ack(seq, p, 5);
      else
        r.waits.set_ack(seq, p, 5);
    }
  }
  EXPECT_TRUE(r.engine.log.empty()) << "no read quorum is fresh at 5 yet";
  EXPECT_EQ(r.waits.open_count(), 4u);
  r.engine.freshness = {5, 5, 5};
  r.waits.settle();
  EXPECT_EQ(r.engine.log, (std::vector<std::string>{"g2:{0, 1}", "g4:{0, 1}",
                                                    "s1", "s3"}));
  EXPECT_EQ(r.waits.open_count(), 0u);
}

TEST(CutoffWaits, WaitStaysOpenUntilReadQuorumPassesItsCutoff) {
  rig r;
  r.open_get(1, "g1");
  r.engine.freshness = {100, 100, 100};
  r.waits.get_ack(1, 0, 3);
  r.waits.settle();
  EXPECT_TRUE(r.engine.log.empty()) << "no write quorum acked: no cutoff";
  r.engine.freshness = {7, 6, 9};
  r.waits.get_ack(1, 1, 7);  // {0, 1} covered: c_get = max(3, 7) = 7
  EXPECT_TRUE(r.engine.log.empty()) << "p1 is in every read quorum, at 6";
  r.waits.get_ack(1, 2, 1000);  // late acks no longer move the cutoff
  r.engine.freshness = {7, 7, 9};
  r.waits.settle();
  EXPECT_EQ(r.engine.log, (std::vector<std::string>{"g1:{0, 1}"}));
}

TEST(CutoffWaits, AblatedSetCompletesOnTheWriteQuorumAck) {
  push_qaf_options ablated;
  ablated.use_set_confirmation = false;
  rig r(ablated);
  r.waits.open_set(1, "s1");
  r.waits.set_ack(1, 1, 9);
  EXPECT_TRUE(r.engine.log.empty()) << "{1} covers no write quorum";
  r.waits.set_ack(1, 2, 9);  // {1,2} covered; nobody is fresh at 9
  EXPECT_EQ(r.engine.log, (std::vector<std::string>{"s1"}));
  EXPECT_EQ(r.waits.open_count(), 0u);

  rig full;  // with the confirmation the same acks leave the set open
  full.waits.open_set(1, "s1");
  full.waits.set_ack(1, 1, 9);
  full.waits.set_ack(1, 2, 9);
  EXPECT_TRUE(full.engine.log.empty());
  EXPECT_EQ(full.waits.open_count(), 1u);
}

TEST(CutoffWaits, AblatedGetOpensReadyAndCompletionsMayOpenWaits) {
  push_qaf_options ablated;
  ablated.use_get_cutoff = false;
  rig r(ablated);
  r.waits.open_set(3, "s3");
  r.waits.set_ack(3, 0, 1);
  r.waits.set_ack(3, 1, 1);  // c_set = 1, not met yet
  bool probed = false;
  EXPECT_TRUE(r.waits.open_get(1, "g1", [&] {
    probed = true;
    return targeted_round::none;
  }));
  EXPECT_FALSE(probed) << "ablated: no clock round starts";
  // A completion that opens the next get and settles from inside it, as
  // an ablated push_qaf get does: the new get still completes before the
  // ready set.
  r.engine.on_complete = [&](const std::string& label) {
    if (label == "g1" &&
        r.waits.open_get(5, "g5", [] { return targeted_round::none; }))
      r.waits.settle();
  };
  r.engine.freshness = {1, 1, 1};
  r.waits.settle();
  EXPECT_EQ(r.engine.log,
            (std::vector<std::string>{"g1:{0, 1}", "g5:{0, 1}", "s3"}));
  EXPECT_EQ(r.waits.open_count(), 0u);
}

}  // namespace
}  // namespace gqs
