#include "sim/transition_fault.hpp"

namespace apx {

FaultSite transition_site(const TransitionFault& fault, WordSpan launch,
                          std::vector<uint64_t>& gate) {
  gate.resize(static_cast<size_t>(launch.num_words()));
  for (int w = 0; w < launch.num_words(); ++w) {
    gate[w] = fault.slow_to_rise ? ~launch[w] : launch[w];
  }
  FaultSite site;
  site.node = fault.node;
  site.stuck_value = !fault.slow_to_rise;
  site.gate = gate.data();
  return site;
}

std::vector<TransitionFault> enumerate_transition_faults(const Network& net) {
  std::vector<TransitionFault> faults;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NodeKind kind = net.node(id).kind;
    // PI fanout stems are delay-fault sites too: a slow transition on an
    // input line is launched exactly like a gate-output transition.
    if (kind == NodeKind::kLogic || kind == NodeKind::kPi) {
      faults.push_back({id, true});
      faults.push_back({id, false});
    }
  }
  return faults;
}

}  // namespace apx
