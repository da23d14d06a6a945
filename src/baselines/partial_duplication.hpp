// Partial-duplication CED baseline (Mohanram & Touba, ITC 2003 [10] in the
// paper): duplicate the output cones that contribute most to the soft-error
// rate and compare the duplicated outputs with equality checkers. The paper
// uses it as the intrusive state-of-the-art whose coverage is matched at
// lower cost by approximate-logic CED (Table 2).
#pragma once

#include <vector>

#include "core/ced.hpp"
#include "network/network.hpp"

namespace apx {

/// Fault-injection budget for ranking outputs and estimating prefix
/// coverage: the engine's CampaignOptions with this baseline's defaults
/// (1000 samples, seed 0xD0B1). `model` drives both selection campaigns;
/// selection is bit-identical for any num_threads.
struct PartialDuplicationOptions : CampaignOptions {
  PartialDuplicationOptions() {
    num_fault_samples = 1000;
    seed = 0xD0B1;
  }
};

struct PartialDuplicationResult {
  CedDesign ced;
  /// Indices of duplicated POs, in selection order.
  std::vector<int> duplicated_pos;
  /// Coverage estimate (fraction of erroneous runs visible at duplicated
  /// outputs) used during selection.
  double estimated_coverage = 0.0;
};

/// Duplicates output cones, most error-prone first, until the estimated
/// coverage reaches `target_coverage` (or all POs are duplicated).
PartialDuplicationResult build_partial_duplication(
    const Network& mapped, double target_coverage,
    const PartialDuplicationOptions& options = {});

}  // namespace apx
