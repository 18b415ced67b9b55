// service_demo — the multi-object quorum service end to end.
//
// Runs a 64-key zipfian read/write workload over the Figure 1 GQS through
// one quorum_service engine per process: a closed-loop client at every
// process keeps 4 operations in flight, the service coalesces everything
// started in the same instant into shared wire batches, and one gossip
// stream per process carries the dirty keys of all 64 objects. The demo
// prints the realized key-popularity skew, operation latencies
// (p50/p95/p99), and the engine's batching counters, then verifies the
// hottest keys' histories with the black-box Wing–Gong checker.
//
//   $ ./examples/service_demo
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "core/factories.hpp"
#include "lincheck/wing_gong.hpp"
#include "register/keyed_register.hpp"
#include "workload/clients.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

namespace {

using namespace gqs;

constexpr process_id kN = 4;
constexpr service_key kKeys = 64;

}  // namespace

int main() {
  const auto fig = make_figure1();
  std::cout << "service_demo — one quorum service engine per process, "
            << kKeys << " keys, Figure 1 GQS\n\n";

  world<keyed_register_node> w(kN, fault_plan::none(kN), /*seed=*/21,
                               network_options{}, kKeys,
                               quorum_config::of(fig.gqs), service_options{});

  client_workload_options opts;
  opts.keys = kKeys;
  opts.zipf_theta = 0.99;
  opts.read_ratio = 0.5;
  opts.ops_per_process = 48;
  opts.inflight_window = 4;
  opts.seed = 5;

  keyed_node_adapter<keyed_register_node> adapter{w.nodes};
  workload_driver<keyed_node_adapter<keyed_register_node>> driver(
      w.sim, std::move(adapter), opts);
  driver.launch();
  if (!w.sim.run_until_condition([&] { return driver.done(); },
                                 600L * 1000 * 1000)) {
    std::cerr << "workload stalled\n";
    return 1;
  }

  // Realized per-key load (the zipfian skew as served).
  const auto loads = driver.per_key_ops();
  std::vector<service_key> order(kKeys);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](service_key a, service_key b) {
    return loads[a] > loads[b];
  });
  const std::uint64_t total =
      std::accumulate(loads.begin(), loads.end(), std::uint64_t{0});

  text_table top({"key", "ops", "share"});
  for (int i = 0; i < 5; ++i)
    top.add_row({std::to_string(order[static_cast<std::size_t>(i)]),
                 std::to_string(loads[order[static_cast<std::size_t>(i)]]),
                 fmt_double(100.0 *
                                static_cast<double>(
                                    loads[order[static_cast<std::size_t>(i)]]) /
                                static_cast<double>(total),
                            1) +
                     "%"});
  std::cout << "hottest keys of " << total << " operations:\n";
  top.print();

  sample_accumulator lat;
  lat.add(driver.latencies_us());
  const sample_summary s = lat.summary();
  std::cout << "\nlatency p50/p95/p99: " << fmt_double(s.p50 / 1000) << " / "
            << fmt_double(s.p95 / 1000) << " / " << fmt_double(s.p99 / 1000)
            << " ms\n";

  const auto& c = w.nodes[0]->counters();
  std::cout << "process a engine counters: " << c.ops_completed
            << " ops over " << c.flushes << " flushes, "
            << c.set_batches_sent << " set batches ("
            << c.set_entries_sent << " entries), "
            << c.gossip_batches_sent << " gossip batches ("
            << c.gossip_entries_sent << " dirty-key entries)\n";

  // Verify the three hottest keys' histories linearize.
  for (int i = 0; i < 3; ++i) {
    const service_key k = order[static_cast<std::size_t>(i)];
    const register_history h = driver.history_of(k);
    if (h.size() > 64) continue;  // checker input bound
    const auto r = check_linearizable(h);
    if (!r.linearizable) {
      std::cerr << "key " << k << " history not linearizable: " << r.reason
                << "\n";
      return 1;
    }
  }
  std::cout << "\nhottest-key histories: linearizable\n";
  return 0;
}
