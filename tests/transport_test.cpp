// Unit tests for the component/transport layer: single_host delivery and
// timers, mux_host channel isolation and timer routing.
#include "sim/transport.hpp"

#include <gtest/gtest.h>

#include "sim/time.hpp"
#include "workload/worlds.hpp"

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

/// Base-from-member: the [process][instance] probes the factory fills.
struct probe_table { std::vector<std::vector<probe*>> probes; };

struct mux_world : probe_table, world<mux_host> {
  std::vector<mux_host*>& hosts = nodes;

  mux_world(process_id n, int instances, std::uint64_t seed)
      : world(n, fault_plan::none(n), seed, network_options{},
              [&](process_id) {
                auto host = std::make_unique<mux_host>();
                probes.emplace_back();
                for (int i = 0; i < instances; ++i)
                  probes.back().push_back(&host->emplace_component<probe>());
                return host;
              }) {}
};

TEST(MuxHost, AllComponentsStart) {
  mux_world w(2, 3, 4);
  for (auto& per_process : w.probes)
    for (probe* p : per_process) EXPECT_TRUE(p->started);
  EXPECT_EQ(w.hosts[0]->component_count(), 3u);
}

TEST(MuxHost, ChannelsAreIsolated) {
  // Instance k at process 0 talks only to instance k elsewhere.
  mux_world w(3, 2, 5);
  w.probes[0][0]->shout(10);
  w.probes[0][1]->say(2, 20);
  w.sim.run_until(1_s);
  // Instance 0 everywhere got the broadcast; instance 1 did not.
  for (process_id p = 0; p < 3; ++p) {
    ASSERT_EQ(w.probes[p][0]->delivered.size(), 1u) << "proc " << p;
    EXPECT_EQ(w.probes[p][0]->delivered[0].tag, 10);
  }
  EXPECT_TRUE(w.probes[0][1]->delivered.empty());
  EXPECT_TRUE(w.probes[1][1]->delivered.empty());
  ASSERT_EQ(w.probes[2][1]->delivered.size(), 1u);
  EXPECT_EQ(w.probes[2][1]->delivered[0].tag, 20);
}

TEST(MuxHost, TimersRoutedToOwningInstance) {
  mux_world w(1, 3, 6);
  w.probes[0][1]->arm(2_ms);
  w.probes[0][2]->arm(4_ms);
  w.sim.run_until(1_s);
  EXPECT_TRUE(w.probes[0][0]->timeouts.empty());
  EXPECT_EQ(w.probes[0][1]->timeouts.size(), 1u);
  EXPECT_EQ(w.probes[0][2]->timeouts.size(), 1u);
}

TEST(MuxHost, ComponentIdentityMatchesHostProcess) {
  mux_world w(3, 2, 7);
  for (process_id p = 0; p < 3; ++p)
    for (probe* c : w.probes[p]) {
      EXPECT_EQ(c->my_id(), p);
      EXPECT_EQ(c->n(), 3u);
    }
}

TEST(MuxHost, ExtraInstanceAtPeerIgnored) {
  // Process 0 hosts 2 instances, process 1 hosts 1: traffic of instance 1
  // is dropped at process 1 rather than misrouted.
  simulation sim(2, network_options{}, fault_plan::none(2), 8);
  auto host0 = std::make_unique<mux_host>();
  probe* a0 = &host0->emplace_component<probe>();
  probe* a1 = &host0->emplace_component<probe>();
  auto host1 = std::make_unique<mux_host>();
  probe* b0 = &host1->emplace_component<probe>();
  sim.set_node(0, std::move(host0));
  sim.set_node(1, std::move(host1));
  sim.start();
  sim.run_until(0);
  a1->shout(99);  // instance 1: no peer at process 1
  a0->shout(11);
  sim.run_until(1_s);
  ASSERT_EQ(b0->delivered.size(), 1u);
  EXPECT_EQ(b0->delivered[0].tag, 11);
}

TEST(MuxHost, NullComponentRejected) {
  mux_host host;
  EXPECT_THROW(host.add_component(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace gqs
