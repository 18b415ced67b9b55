// Unit tests for the component/transport layer: single_host delivery and
// timers.
#include "sim/transport.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace gqs {
namespace {

using namespace sim_literals;

struct note : message {
  int tag;
  explicit note(int t) : tag(t) {}
};

/// Records deliveries/timeouts; can send and arm timers on request.
class probe : public component {
 public:
  struct receipt {
    process_id origin;
    int tag;
  };
  std::vector<receipt> delivered;
  std::vector<int> timeouts;
  bool started = false;

  void start() override { started = true; }
  void deliver(process_id origin, const message_ptr& payload) override {
    if (const auto* n = message_cast<note>(payload))
      delivered.push_back({origin, n->tag});
  }
  void on_timeout(int id) override { timeouts.push_back(id); }

  void say(process_id dest, int tag) {
    unicast(dest, make_message<note>(tag));
  }
  void shout(int tag) { broadcast(make_message<note>(tag)); }
  int arm(sim_time delay) { return set_timer(delay); }
  process_id my_id() const { return id(); }
  process_id n() const { return system_size(); }
};

TEST(SingleHost, RejectsNullComponent) {
  EXPECT_THROW(single_host(nullptr), std::invalid_argument);
}

TEST(SingleHost, StartsAndExposesIdentity) {
  simulation sim(3, network_options{}, fault_plan::none(3), 1);
  std::vector<probe*> probes;
  for (process_id p = 0; p < 3; ++p) {
    auto c = std::make_unique<probe>();
    probes.push_back(c.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(c)));
  }
  sim.start();
  sim.run_until(0);
  for (process_id p = 0; p < 3; ++p) {
    EXPECT_TRUE(probes[p]->started);
    EXPECT_EQ(probes[p]->my_id(), p);
    EXPECT_EQ(probes[p]->n(), 3u);
  }
}

TEST(SingleHost, UnicastAndBroadcastDeliver) {
  simulation sim(3, network_options{}, fault_plan::none(3), 2);
  std::vector<probe*> probes;
  for (process_id p = 0; p < 3; ++p) {
    auto c = std::make_unique<probe>();
    probes.push_back(c.get());
    sim.set_node(p, std::make_unique<single_host>(std::move(c)));
  }
  sim.start();
  sim.run_until(0);
  probes[0]->say(2, 7);
  probes[1]->shout(9);
  sim.run_until(1_s);
  ASSERT_EQ(probes[2]->delivered.size(), 2u);
  EXPECT_EQ(probes[0]->delivered.size(), 1u);  // broadcast only
  EXPECT_EQ(probes[0]->delivered[0].tag, 9);
  EXPECT_EQ(probes[1]->delivered.size(), 1u);  // own broadcast self-delivery
}

TEST(SingleHost, TimerRoutedToComponent) {
  simulation sim(1, network_options{}, fault_plan::none(1), 3);
  auto c = std::make_unique<probe>();
  probe* p = c.get();
  sim.set_node(0, std::make_unique<single_host>(std::move(c)));
  sim.start();
  sim.run_until(0);
  const int id = p->arm(5_ms);
  sim.run_until(1_s);
  ASSERT_EQ(p->timeouts.size(), 1u);
  EXPECT_EQ(p->timeouts[0], id);
}

TEST(SingleHost, TypedAccess) {
  auto c = std::make_unique<probe>();
  probe* raw = c.get();
  single_host host(std::move(c));
  EXPECT_EQ(&host.as<probe>(), raw);
  EXPECT_THROW(host.as<single_host>(), std::bad_cast);
}

TEST(Component, UseBeforeBindThrows) {
  probe lonely;
  EXPECT_THROW(lonely.say(0, 1), std::logic_error);
}

}  // namespace
}  // namespace gqs
