// Quickstart: the paper's Section-2 running example.
//
// Builds F = a + b + c'd' + cd, asks the library for a 1-approximation, and
// prints what the synthesis machinery did: the type assignment, the two
// cube-selection techniques on the output node, and the final approximate
// circuit with its approximation percentage (the paper reports G = a + b:
// 85.72% approximation for a fraction of the area).
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/approx_synthesis.hpp"
#include "core/cube_selection.hpp"
#include "core/verify.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "network/blif.hpp"

using namespace apx;

int main() {
  // F = (a + b) + XNOR(c, d), as a small multi-level network.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_pi("d");
  NodeId ab = net.add_or(a, b, "ab");
  NodeId xnor_cd = net.add_node({c, d}, *Sop::parse(2, "00\n11"), "xnor_cd");
  NodeId f = net.add_or(ab, xnor_cd, "F");
  net.add_po("F", f);

  std::printf("== original circuit (BLIF) ==\n%s\n",
              write_blif_string(net).c_str());

  // Ask for a 1-approximation of the single output with an aggressive
  // significance threshold so the infrequent XNOR path is dropped.
  ApproxOptions options;
  options.significance_threshold = 0.45;
  ApproxResult result =
      synthesize_approximation(net, {ApproxDirection::kOneApprox}, options);

  std::printf("== type assignment ==\n");
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.node(id).kind != NodeKind::kLogic) continue;
    std::printf("  %-8s -> type %s\n", net.node(id).name.c_str(),
                to_string(result.types.of(id)).c_str());
  }

  // Show the two cube-selection techniques on the output node directly.
  std::vector<NodeType> fanin_types = {result.types.of(ab),
                                       result.types.of(xnor_cd)};
  Sop exact = exact_cube_selection(net.node(f).sop, fanin_types);
  auto odc = odc_cube_selection(net.node(f).sop, fanin_types);
  std::printf("\n== cube selection at node F (fanins: ab=%s, xnor=%s) ==\n",
              to_string(fanin_types[0]).c_str(),
              to_string(fanin_types[1]).c_str());
  std::printf("  exact selection keeps: {%s}\n",
              exact.to_string().empty() ? "-" : exact.to_string().c_str());
  if (odc) {
    std::printf("  ODC-based selection:   {%s}\n", odc->to_string().c_str());
  }

  std::printf("\n== approximate circuit (BLIF) ==\n%s\n",
              write_blif_string(result.approx).c_str());

  bool ok = verify_po_approximation(net, result.approx, 0,
                                    ApproxDirection::kOneApprox);
  double pct = approximation_percentage(net, result.approx, 0,
                                        ApproxDirection::kOneApprox);
  int orig_gates = technology_map(quick_synthesis(net)).num_logic_nodes();
  int approx_gates = technology_map(result.approx).num_logic_nodes();
  std::printf("G => F verified:          %s\n", ok ? "yes" : "NO");
  std::printf("approximation percentage: %.2f%%  (paper: 85.72%% for G=a+b)\n",
              100.0 * pct);
  std::printf("gate count:               %d -> %d\n", orig_gates,
              approx_gates);
  return ok ? 0 : 1;
}
