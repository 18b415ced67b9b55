// bench_fig1_gqs — Experiments E1 + E2
// (docs/ARCHITECTURE.md, "Figures → benches").
//
// Regenerates the paper's running example: Figure 1's fail-prone system
// and generalized quorum system (Examples 1, 2, 7, 8), the U_f sets of
// Example 9, and the tightness half of Example 9 (the variant F′ with
// channel (a, b) also failing admits no GQS — verified both by the pruned
// search and by exhaustive enumeration).
#include "bench_main.hpp"

#include <iostream>

#include "core/existence.hpp"
#include "core/factories.hpp"
#include "workload/table.hpp"

namespace {

using namespace gqs;

std::string name_set(process_set s, const std::vector<std::string>& names) {
  std::string out = "{";
  bool first = true;
  for (process_id p : s) {
    if (!first) out += ", ";
    out += names[p];
    first = false;
  }
  return out + "}";
}

void example_1_and_2() {
  print_heading("Figure 1 / Examples 1-2: the fail-prone system F and GQS");
  const auto fig = make_figure1();
  text_table t({"pattern", "may crash", "reliable channels", "R_i", "W_i"});
  for (int i = 0; i < 4; ++i) {
    const failure_pattern& f = fig.gqs.fps[i];
    std::string channels;
    const digraph residual = f.residual();
    for (const edge& e : residual.edges()) {
      if (!channels.empty()) channels += " ";
      channels += "(" + fig.names[e.from] + "," + fig.names[e.to] + ")";
    }
    t.add_row({"f" + std::to_string(i + 1),
               name_set(f.crashable(), fig.names), channels,
               name_set(fig.gqs.reads[i], fig.names),
               name_set(fig.gqs.writes[i], fig.names)});
  }
  t.print();
}

void example_7_and_8() {
  print_heading(
      "Examples 7-8: availability/reachability per pattern and the "
      "Definition 2 check");
  const auto fig = make_figure1();
  text_table t({"pattern", "W_i f-available", "W_i f-reachable from R_i",
                "R_i strongly connected"});
  for (int i = 0; i < 4; ++i) {
    const failure_pattern& f = fig.gqs.fps[i];
    t.add_row({"f" + std::to_string(i + 1),
               is_f_available(fig.gqs.writes[i], f) ? "yes" : "no",
               is_f_reachable_from(fig.gqs.writes[i], fig.gqs.reads[i], f)
                   ? "yes"
                   : "no",
               is_f_available(fig.gqs.reads[i], f) ? "yes" : "no (by design)"});
  }
  t.print();

  const auto check = check_generalized(fig.gqs);
  std::cout << "\nDefinition 2 check (Consistency + Availability): "
            << (check.ok ? "PASS" : "FAIL — " + check.reason) << "\n";

  std::cout << "Consistency matrix (R_i ∩ W_j):\n";
  text_table m({"", "W1", "W2", "W3", "W4"});
  for (int i = 0; i < 4; ++i) {
    std::vector<std::string> row = {"R" + std::to_string(i + 1)};
    for (int j = 0; j < 4; ++j)
      row.push_back(
          name_set(fig.gqs.reads[i] & fig.gqs.writes[j], fig.names));
    m.add_row(row);
  }
  m.print();
}

void example_9_uf() {
  print_heading("Example 9: the U_f sets (maximal termination sets)");
  const auto fig = make_figure1();
  text_table t({"pattern", "U_f (computed)", "U_f (paper)"});
  const char* expected[] = {"{a, b}", "{b, c}", "{c, d}", "{d, a}"};
  std::uint64_t matches = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string computed =
        name_set(compute_u_f(fig.gqs, fig.gqs.fps[i]), fig.names);
    matches += computed == expected[i];
    t.add_row({"f" + std::to_string(i + 1), computed, expected[i]});
  }
  t.print();
  gqs_bench::record("uf_matches_paper", matches);
}

void example_9_tightness() {
  print_heading(
      "Example 9 (tightness): F' = F with channel (a,b) also failing");
  const auto fig = make_figure1();
  const auto variant = make_example9_variant();

  text_table t({"fail-prone system", "pruned search", "exhaustive check"});
  const auto base_witness = find_gqs(fig.gqs.fps);
  t.add_row({"F (Figure 1)",
             base_witness ? "GQS found" : "no GQS",
             gqs_exists_exhaustive(fig.gqs.fps) ? "GQS exists" : "no GQS"});
  const auto variant_witness = find_gqs(variant);
  t.add_row({"F' (Example 9)",
             variant_witness ? "GQS found" : "no GQS",
             gqs_exists_exhaustive(variant) ? "GQS exists" : "no GQS"});
  t.print();
  gqs_bench::record("base_admits_gqs", std::uint64_t{base_witness ? 1u : 0u});
  gqs_bench::record("variant_admits_gqs",
                    std::uint64_t{variant_witness ? 1u : 0u});

  std::cout << "\nExpected per Theorem 2: F admits a GQS, F' does not — so\n"
               "no object implementation can be obstruction-free anywhere\n"
               "under F'.\n";

  if (base_witness) {
    std::cout << "\nWitness found for F (canonical construction):\n";
    text_table w({"pattern", "write quorum S_f", "read quorum reach(S_f)",
                  "U_f"});
    for (int i = 0; i < 4; ++i)
      w.add_row({"f" + std::to_string(i + 1),
                 name_set(base_witness->chosen_writes[i], fig.names),
                 name_set(base_witness->chosen_reads[i], fig.names),
                 name_set(base_witness->max_termination[i], fig.names)});
    w.print();
  }
}

}  // namespace

int bench_entry() {
  std::cout << "bench_fig1_gqs — paper Figure 1 and Examples 1-2, 7-9\n";
  example_1_and_2();
  example_7_and_8();
  example_9_uf();
  example_9_tightness();
  return 0;
}
