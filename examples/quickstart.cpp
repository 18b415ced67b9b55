// quickstart — the smallest end-to-end use of the library.
//
// Builds the paper's Figure 1 generalized quorum system, injects failure
// pattern f1 (process d crashes; every channel except (c,a), (a,b), (b,a)
// disconnects), and runs linearizable register operations at the processes
// where the theory promises wait-freedom (U_f1 = {a, b}).
//
//   $ ./examples/quickstart
#include <iostream>

#include "lincheck/wing_gong.hpp"
#include "workload/worlds.hpp"

int main() {
  using namespace gqs;

  // 1. The quorum system and the failure pattern to inject.
  const figure1_system fig = make_figure1();
  std::cout << "Fail-prone system F with " << fig.gqs.fps.size()
            << " patterns over processes a, b, c, d\n";
  const auto check = check_generalized(fig.gqs);
  std::cout << "Definition 2 check: " << (check.ok ? "OK" : check.reason)
            << "\n";
  const failure_pattern& f1 = fig.gqs.fps[0];
  std::cout << "Injecting pattern f1 = " << f1.to_string(fig.names) << "\n";
  std::cout << "Termination promised within U_f1 = "
            << compute_u_f(fig.gqs, f1).to_string() << " (a=0, b=1)\n\n";

  // 2. A simulated world: 4 processes running the Figure 4 register over
  //    the Figure 3 access functions, failures injected at time 0.
  register_world<gqs_register_node> world(
      4, fault_plan::from_pattern(f1, 0), /*seed=*/1, network_options{},
      quorum_config::of(fig.gqs), reg_state{}, push_qaf_options{});

  constexpr process_id a = 0, b = 1;
  const sim_time budget = 600L * 1000 * 1000;

  // 3. write(42) at a, then read() at b — note a can never contact read
  //    quorum member c directly; the logical-clock protocol works anyway.
  const auto w_idx = world.client.invoke_write(a, 42);
  if (!world.sim.run_until_condition(
          [&] { return world.client.complete(w_idx); }, budget)) {
    std::cerr << "write did not complete\n";
    return 1;
  }
  std::cout << "write(42) at a completed after "
            << world.sim.now() / 1000 << " ms (simulated)\n";

  const auto r_idx = world.client.invoke_read(b);
  if (!world.sim.run_until_condition(
          [&] { return world.client.complete(r_idx); }, budget)) {
    std::cerr << "read did not complete\n";
    return 1;
  }
  std::cout << "read() at b returned "
            << world.client.history()[r_idx].value << "\n";

  // 4. The recorded history is machine-checked for linearizability.
  const auto lin = check_linearizable(world.client.history());
  std::cout << "history linearizable: " << (lin.linearizable ? "yes" : "NO")
            << "\n";
  return lin.linearizable &&
                 world.client.history()[r_idx].value == 42
             ? 0
             : 1;
}
