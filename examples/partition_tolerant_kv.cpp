// partition_tolerant_kv — a replicated key-value store that keeps serving
// during asymmetric network partitions.
//
// The motivating workload of the paper's introduction: cloud systems that
// must survive *partial* partitions (Alquraan et al., OSDI'18) where
// connectivity is lost in one direction only. This example builds a small
// KV store whose key slots are keys of one multi-object quorum service
// (keyed_register over quorum_service) running the generalized quorum
// system of Figure 1 — one shared engine per process instead of the
// seed's per-slot register components.
//
// Under failure pattern f1, processes a and b keep executing puts and gets
// with linearizable semantics even though:
//   * d is crashed,
//   * c can push data out but never hears anything back,
//   * no read quorum is strongly connected.
//
//   $ ./examples/partition_tolerant_kv
#include <iostream>
#include <string>
#include <vector>

#include "register/keyed_register.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;

/// A KV node: `slots` logical registers behind one quorum service
/// endpoint. Keys hash onto slots; values are strings.
class kv_node : public single_host {
 public:
  using kv_service = keyed_register<std::string>;

  kv_node(service_key slots, const quorum_config& config)
      : single_host(std::make_unique<kv_service>(slots, config,
                                                 service_options{})),
        service_(&as<kv_service>()),
        slots_(slots) {}

  void put(const std::string& key, std::string value,
           std::function<void()> done) {
    service_->write(slot_of(key), std::move(value),
                    [done = std::move(done)](reg_version) { done(); });
  }

  void get(const std::string& key,
           std::function<void(std::string)> done) {
    service_->read(slot_of(key),
                   [done = std::move(done)](std::string v, reg_version) {
                     done(std::move(v));
                   });
  }

 private:
  service_key slot_of(const std::string& key) const {
    return static_cast<service_key>(std::hash<std::string>{}(key) % slots_);
  }
  kv_service* service_;
  service_key slots_;
};

}  // namespace

int main() {
  const auto fig = make_figure1();
  std::cout << "partition_tolerant_kv — 4 replicas, Figure 1 GQS, failure "
               "pattern f1 injected at t=0\n\n";

  world<kv_node> w(4, fault_plan::from_pattern(fig.gqs.fps[0], 0),
                   /*seed=*/7, network_options{}, /*slots=*/4,
                   quorum_config::of(fig.gqs));
  simulation& sim = w.sim;
  const std::vector<kv_node*>& replicas = w.nodes;

  constexpr process_id a = 0, b = 1;
  const sim_time budget_step = 600L * 1000 * 1000;

  struct op_row {
    std::string what;
    std::string result;
    sim_time at;
  };
  std::vector<op_row> log;

  auto run_put = [&](process_id p, const std::string& key,
                     const std::string& value) {
    bool done = false;
    sim.post(p, [&, key, value] {
      replicas[p]->put(key, value, [&] { done = true; });
    });
    if (!sim.run_until_condition([&] { return done; },
                                 sim.now() + budget_step)) {
      std::cerr << "put stalled\n";
      exit(1);
    }
    log.push_back({"put(" + key + ", " + value + ") @" +
                       fig.names[p],
                   "ok", sim.now()});
  };
  auto run_get = [&](process_id p, const std::string& key) {
    bool done = false;
    std::string result;
    sim.post(p, [&, key] {
      replicas[p]->get(key, [&](std::string v) {
        result = std::move(v);
        done = true;
      });
    });
    if (!sim.run_until_condition([&] { return done; },
                                 sim.now() + budget_step)) {
      std::cerr << "get stalled\n";
      exit(1);
    }
    log.push_back({"get(" + key + ") @" + fig.names[p],
                   result.empty() ? "(empty)" : result, sim.now()});
  };

  // A working session across the partition: both U_f1 members serve.
  run_put(a, "user:alice", "amsterdam");
  run_put(b, "user:bob", "barcelona");
  run_get(b, "user:alice");   // b reads a's write
  run_get(a, "user:bob");     // a reads b's write
  run_put(a, "user:alice", "athens");  // overwrite
  run_get(b, "user:alice");   // b sees the overwrite

  text_table t({"operation", "result", "sim time"});
  for (const op_row& row : log)
    t.add_row({row.what, row.result, fmt_ms(row.at)});
  t.print();

  const bool ok = log[2].result == "amsterdam" &&
                  log[3].result == "barcelona" && log[5].result == "athens";
  std::cout << "\ncross-replica visibility under partial partition: "
            << (ok ? "OK" : "BROKEN") << "\n";
  return ok ? 0 : 1;
}
