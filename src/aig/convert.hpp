// Boundary converters between the SOP-node Network (the representation the
// paper's cube-selection core operates on) and the AIG substrate, plus the
// AIG-based quick-synthesis pass assembled from them.
//
// Network -> AIG walks the cached TopologyView order and builds each SOP
// node as balanced cube-AND / cover-OR trees; structural hashing collapses
// shared logic on the way in. AIG -> Network emits one 2-input SOP node
// per reachable AND (local function recovered by per-node ISOP through
// src/tt, so edge polarities become cover literals, not inverter chains);
// complemented POs get a single inverter node. PI/PO names and order are
// preserved in both directions, which is what makes the round-trip
// SAT-checkable output by output.
#pragma once

#include "aig/aig.hpp"
#include "network/network.hpp"

namespace apx::aig {

/// Converts an SOP network to an AIG (structural hashing on the way in).
Aig network_to_aig(const Network& net);

/// Converts the PO-reachable part of an AIG back to a 2-input SOP network.
Network aig_to_network(const Aig& aig);

/// Quick synthesis through the AIG substrate: convert, DAG-aware cut
/// rewriting, convert back, cleanup. PIs/POs preserved.
Network aig_quick_synthesis(const Network& net);

}  // namespace apx::aig
