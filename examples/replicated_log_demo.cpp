// replicated_log_demo — state machine replication over generalized quorum
// systems: a bank ledger whose commands survive the Figure 1 partition.
//
// Each replica runs one single-decree Figure 6 consensus instance per log
// slot (multiplexed on one endpoint). Commands submitted at different
// replicas race for slots; losers retry on later slots; every replica
// (inside U_f) converges on the same committed prefix and applies it to
// its local balance.
//
//   $ ./examples/replicated_log_demo
#include <iostream>

#include "smr/replicated_log.hpp"
#include "workload/table.hpp"
#include "workload/worlds.hpp"

int main() {
  using namespace gqs;
  const auto fig = make_figure1();
  std::cout << "replicated_log_demo — 4 replicas, failure pattern f1 at "
               "t=0, U_f1 = {a, b}\n\n";

  world<replicated_log_node> w(
      4, fault_plan::from_pattern(fig.gqs.fps[0], 0), /*seed=*/21,
      consensus_world::partial_sync(), 4, quorum_config::of(fig.gqs),
      /*max_slots=*/8);
  simulation& sim = w.sim;
  const std::vector<replicated_log_node*>& replicas = w.nodes;

  // Deposits submitted at both U_f1 members, partly concurrent.
  struct submission {
    process_id at;
    std::int32_t amount;
    std::optional<std::size_t> slot;
  };
  std::vector<submission> subs = {{0, 100, {}}, {1, 250, {}}};
  for (auto& s : subs)
    sim.post(s.at, [&sim, &s, &replicas] {
      replicas[s.at]->submit(s.amount,
                             [&s](std::size_t slot) { s.slot = slot; });
    });
  if (!sim.run_until_condition(
          [&] {
            for (const auto& s : subs)
              if (!s.slot) return false;
            return true;
          },
          1800L * 1000 * 1000)) {
    std::cerr << "submissions did not commit\n";
    return 1;
  }
  // Two more, sequential, at a.
  for (std::int32_t amount : {40, -15}) {
    submission s{0, amount, {}};
    sim.post(0, [&sim, &s, &replicas] {
      replicas[0]->submit(s.amount, [&s](std::size_t slot) { s.slot = slot; });
    });
    if (!sim.run_until_condition([&] { return s.slot.has_value(); },
                                 sim.now() + 1800L * 1000 * 1000)) {
      std::cerr << "submission stalled\n";
      return 1;
    }
    subs.push_back(s);
  }
  // Let the passive learners catch up.
  sim.run_until_condition(
      [&] {
        return replicas[0]->committed_prefix() >= 4 &&
               replicas[1]->committed_prefix() >= 4;
      },
      sim.now() + 1800L * 1000 * 1000);

  print_heading("Committed log as seen by each replica");
  text_table t({"replica", "committed prefix", "log (payloads)", "balance"});
  for (process_id p = 0; p < 4; ++p) {
    std::string entries;
    std::int64_t balance = 0;
    for (std::size_t s = 0; s < replicas[p]->committed_prefix(); ++s) {
      const log_command& cmd = *replicas[p]->log()[s];
      if (!entries.empty()) entries += " ";
      entries += std::to_string(cmd.payload);
      balance += cmd.payload;
    }
    t.add_row({fig.names[p],
               std::to_string(replicas[p]->committed_prefix()),
               entries.empty() ? "(none — isolated/crashed)" : entries,
               std::to_string(balance)});
  }
  t.print();

  const auto agreement = check_log_agreement(
      {replicas.begin(), replicas.end()});
  std::cout << "\nslot-wise agreement across replicas: "
            << (agreement.linearizable ? "OK" : agreement.reason) << "\n";
  const bool converged =
      replicas[0]->committed_prefix() == 4 &&
      replicas[1]->committed_prefix() == 4;
  std::cout << "a and b applied the same 4-command ledger: "
            << (converged ? "yes" : "NO") << "\n";
  return agreement.linearizable && converged ? 0 : 1;
}
