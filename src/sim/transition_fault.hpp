// Transition (gate-delay) fault model for the paper's future-work item (i):
// "CED of errors caused by delay faults on speed-paths in logic circuits".
//
// A slow-to-rise (slow-to-fall) fault at a node delays its 0->1 (1->0)
// transition past the clock edge. Under the standard two-pattern model the
// faulty machine evaluates the second pattern with the fault site holding
// its first-pattern value whenever the delayed transition was required:
//   slow-to-rise: x_faulty = x2 AND x1   (a rising site stays 0)
//   slow-to-fall: x_faulty = x2 OR  x1   (a falling site stays 1)
// and the stale value propagates through the fanout cone. Both are
// stuck-at faults gated by the launch frame, so FaultSimEngine injects them
// like any other site (transition_site below).
#pragma once

#include <cstdint>
#include <vector>

#include "network/network.hpp"
#include "sim/fault_engine.hpp"

namespace apx {

struct TransitionFault {
  NodeId node = kNullNode;
  bool slow_to_rise = true;  ///< false = slow-to-fall
};

/// Expresses `fault` as a FaultSimEngine site evaluated on the capture
/// patterns and gated by the launch frame: slow-to-rise is a stuck-at-0 on
/// the patterns whose launch value is 0 (capture x2 AND x1), slow-to-fall a
/// stuck-at-1 on those whose launch value is 1 (x2 OR x1). `launch` is the
/// site's launch-frame value row (e.g. Simulator::value after running the
/// launch patterns). The gate mask is written into `gate`, which backs the
/// returned site and so must outlive the engine call that injects it.
FaultSite transition_site(const TransitionFault& fault, WordSpan launch,
                          std::vector<uint64_t>& gate);

/// Enumerates both transition faults of every PI fanout stem and every
/// logic node. A slow transition on a PI stem is a real defect site (the
/// paper's speed-paths start at the inputs); skipping them used to make PI
/// delay faults unobservable in every delay-CED measurement.
std::vector<TransitionFault> enumerate_transition_faults(const Network& net);

}  // namespace apx
