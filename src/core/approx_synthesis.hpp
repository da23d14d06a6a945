// Iterative synthesis of approximate logic circuits (paper Sec. 2.2).
//
// Pipeline: type assignment -> stage 1 "approximation of SOPs" (discard
// insignificant cubes from phase-matched SOPs) -> per-PO correctness check
// (BDD with SAT fallback) -> stage 2 "ensuring correctness" (backward
// traversal to sources of incorrect approximation, repaired first by
// ODC-based cube selection, then by exact cube selection which the paper's
// theorem guarantees correct).
//
// One type-assignment refinement is made relative to the paper's prose and
// justified in DESIGN.md: a node assigned type EX requests type EX for the
// fanins it depends on. This is exactly the condition under which the
// paper's composition theorem yields a correctness guarantee for exact cube
// selection at the primary outputs.
#pragma once

#include <vector>

#include "core/approx_types.hpp"
#include "core/type_assignment.hpp"
#include "network/network.hpp"

namespace apx {

struct ApproxOptions {
  TypeAssignmentOptions type_options;

  /// Stage-1 significance threshold: a cube whose activation probability
  /// (under fanin signal probabilities) is below this is discarded. This is
  /// the main overhead-vs-coverage knob (0 disables stage-1 reduction).
  double significance_threshold = 0.02;

  /// Ablation: try ODC-based cube selection before exact selection when
  /// repairing a node (paper Sec. 2.2). Off = exact-only repairs.
  bool use_odc_repair = true;

  /// Ablation: stage-1 additionally discards cubes binding DC-typed fanins
  /// at type-0/1 nodes (this is what removes whole DC cones).
  bool drop_dc_cubes = true;

  /// Ablation: stage-1 drops non-conforming cubes at typed nodes (the
  /// composition-theorem premise; cuts repair pressure drastically).
  bool conformance_filter = true;

  /// BDD node budget for verification and per-node correctness analysis.
  /// Overflow falls back to (complete) SAT checking plus sampled
  /// percentage estimates, so a small budget only trades exactness of the
  /// reported approximation percentage, never correctness.
  size_t bdd_budget = 1u << 18;

  /// Conflict cap per SAT verification query (see ApproxOracle); smaller
  /// values fail faster toward the guaranteed repair fallbacks.
  int64_t sat_conflict_budget = 5000;

  /// Parallelism cap (shared task pool) for the final approximation-
  /// percentage sweep; 0 = apx::thread_count() (APX_THREADS policy). The
  /// sweep is partitioned into a fixed number of chunks derived from the
  /// PO count alone (one private oracle per chunk), so results are
  /// bit-identical for any value. The verification screening is a serial
  /// bit-parallel simulation prescreen plus shared-oracle exact checks of
  /// the prescreen-clean POs; the mutating repair loop is always serial.
  int num_threads = 0;
};

struct PoApproxStats {
  ApproxDirection direction = ApproxDirection::kZeroApprox;
  bool verified = false;
  double approximation_pct = 0.0;
  /// Fraction of screening-prescreen sample bits that violated the PO's
  /// direction contract (0 when the prescreen observed no violation; an
  /// estimate of the pre-repair error rate, not of approximation_pct).
  double sim_violation_rate = 0.0;
};

struct ApproxResult {
  /// The approximate logic circuit: same PIs (by order) and one PO per
  /// original PO, cleaned of unused logic.
  Network approx;
  /// Types on the *original* network's node ids.
  TypeAssignment types;
  std::vector<PoApproxStats> po_stats;
  /// Total node repairs performed by stage 2.
  int repairs = 0;
  /// Number of POs already correct after stage 1 (paper: usually all).
  int correct_after_stage1 = 0;

  bool all_verified() const {
    for (const auto& s : po_stats) {
      if (!s.verified) return false;
    }
    return true;
  }
};

/// Synthesizes a 0/1-approximation of every PO of `net` per `directions`.
ApproxResult synthesize_approximation(
    const Network& net, const std::vector<ApproxDirection>& directions,
    const ApproxOptions& options = {});

}  // namespace apx
