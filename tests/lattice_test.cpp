#include "lattice/lattice_agreement.hpp"

#include <gtest/gtest.h>

#include "core/factories.hpp"
#include "lincheck/object_checkers.hpp"
#include "sim/time.hpp"
#include "workload/worlds.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

constexpr process_id kA = 0, kB = 1, kC = 2;

/// The lattice preset plus each process's proposal and output.
struct lattice_run : lattice_world {
  std::vector<lattice_outcome> outcomes;

  lattice_run(const generalized_quorum_system& gqs, fault_plan faults,
              std::uint64_t seed)
      : lattice_world(gqs, std::move(faults), seed) {
    for (process_id p = 0; p < gqs.system_size(); ++p)
      outcomes.push_back({p, 0, std::nullopt});
  }

  void propose(process_id p, lattice_value x) {
    outcomes[p].proposed = x;
    sim.post(p, [this, p, x] {
      nodes[p]->propose(x, [this, p](lattice_value y) {
        outcomes[p].output = y;
      });
    });
  }

  bool returned(process_id p) const {
    return outcomes[p].output.has_value();
  }
};

TEST(Lattice, SoloProposeReturnsOwnValue) {
  // With no other proposals, Downward + Upward validity force y = x.
  const auto fig = make_figure1();
  lattice_run w(fig.gqs, fault_plan::none(4), 1);
  w.propose(kA, 0b101);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.returned(kA); }, 600_s));
  EXPECT_EQ(*w.outcomes[kA].output, 0b101u);
  EXPECT_TRUE(check_lattice_agreement(w.outcomes));
}

TEST(Lattice, SequentialProposalsGrow) {
  const auto fig = make_figure1();
  lattice_run w(fig.gqs, fault_plan::none(4), 2);
  w.propose(kA, 0b001);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.returned(kA); }, 600_s));
  w.propose(kB, 0b010);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.returned(kB); }, 600_s));
  // b proposed after a's propose completed: b must see a's input.
  EXPECT_EQ(*w.outcomes[kB].output, 0b011u);
  EXPECT_TRUE(check_lattice_agreement(w.outcomes));
}

TEST(Lattice, WorksUnderFigure1F1) {
  // Theorem 1 for lattice agreement under channel failures.
  const auto fig = make_figure1();
  lattice_run w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 3);
  w.propose(kA, 0b01);
  w.propose(kB, 0b10);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] { return w.returned(kA) && w.returned(kB); }, 900_s));
  const auto r = check_lattice_agreement(w.outcomes);
  EXPECT_TRUE(r.linearizable) << r.reason;
}

TEST(Lattice, IsolatedProposerHangs) {
  const auto fig = make_figure1();
  lattice_run w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[0], 0), 4);
  w.propose(kC, 0b1);
  w.sim.run_until(60_s);
  EXPECT_FALSE(w.returned(kC));
  EXPECT_TRUE(check_lattice_agreement(w.outcomes));  // vacuously safe
}

TEST(Lattice, SingleShotEnforced) {
  const auto fig = make_figure1();
  lattice_run w(fig.gqs, fault_plan::none(4), 5);
  w.propose(kA, 0b1);
  ASSERT_TRUE(
      w.sim.run_until_condition([&] { return w.returned(kA); }, 600_s));
  EXPECT_THROW(w.nodes[kA]->propose(0b10, [](lattice_value) {}),
               std::logic_error);
}

// Concurrent proposals across patterns and seeds: all three lattice
// agreement properties must hold among U_f members.
class LatticeSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(LatticeSweep, ConcurrentProposalsSafe) {
  const auto [pattern, seed] = GetParam();
  const auto fig = make_figure1();
  const process_set u_f = compute_u_f(fig.gqs, fig.gqs.fps[pattern]);
  lattice_run w(fig.gqs, fault_plan::from_pattern(fig.gqs.fps[pattern], 0),
                  seed);
  int bit = 0;
  for (process_id p : u_f) w.propose(p, lattice_value{1} << bit++);
  ASSERT_TRUE(w.sim.run_until_condition(
      [&] {
        for (process_id p : u_f)
          if (!w.returned(p)) return false;
        return true;
      },
      900_s));
  const auto r = check_lattice_agreement(w.outcomes);
  EXPECT_TRUE(r.linearizable) << r.reason;
  // Downward validity implies every U_f member's own bit is in its output;
  // comparability means outputs form a chain.
}

INSTANTIATE_TEST_SUITE_P(Patterns, LatticeSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(0u, 1u)));

}  // namespace
}  // namespace gqs
