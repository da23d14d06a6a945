// Light technology-independent optimization ("quick synthesis", paper
// Sec. 3): constant sweeping, duplicate-fanin fusion, per-node SOP
// minimization, buffer/inverter collapsing and structural hashing. Applied
// before mapping and before approximate synthesis.
#pragma once

#include "network/network.hpp"

namespace apx {

/// Logic-node count at or above which quick_synthesis switches from the
/// SOP-level pass to the AIG substrate (structural hashing + NPN-canonical
/// cut rewriting). The SOP pass itself is the faster and smaller-mapping
/// one on both large circuits measured (EXPERIMENTS.md, bench_aig); the
/// switch pays off downstream, where the SOP pass's output makes
/// approximate synthesis and its SAT fallback far slower. Every circuit in
/// the committed benchmark suite sits below this, and forcing the AIG path
/// onto them raises their CED area overhead, so both substrates stay.
inline constexpr int kAigQuickSynthesisThreshold = 5000;

/// Quick-synthesis preset used before reliability analysis and mapping.
/// Returns an optimized copy of `net` (same PIs/POs): below
/// kAigQuickSynthesisThreshold logic nodes the SOP pass; at or above it
/// aig::aig_quick_synthesis.
Network quick_synthesis(const Network& net);

/// Drops fanins (and the matching SOP variables) that no cube of a node
/// binds, across the whole network, so cleanup() can remove logic that only
/// fed now-unused literals. Mutates `net` in place.
void compact_unused_fanins(Network& net);

}  // namespace apx
