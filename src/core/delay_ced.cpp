#include "core/delay_ced.hpp"

#include <algorithm>
#include <random>

#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"

namespace apx {

CoverageResult evaluate_delay_fault_coverage(
    const CedDesign& ced, const DelayCoverageOptions& options) {
  CoverageResult result;
  const Network& net = ced.design;
  std::vector<NodeId> sites = ced.functional_nodes;
  if (options.include_pi_stems) {
    sites.insert(sites.end(), net.pis().begin(), net.pis().end());
  }
  if (sites.empty()) return result;
  std::mt19937_64 rng(options.seed);
  // Each sample is one engine site on the capture patterns, gated by the
  // launch frame (sim/transition_fault.hpp).
  Simulator launch_sim(net);
  FaultSimEngine engine(net);
  std::vector<uint64_t> gate;

  const int W = options.words_per_fault;
  std::vector<uint64_t> err_row(W);
  for (int s = 0; s < options.num_fault_samples; ++s) {
    NodeId site = sites[rng() % sites.size()];
    TransitionFault fault{site, static_cast<bool>(rng() & 1)};
    PatternSet launch = PatternSet::random(net.num_pis(), W, rng());
    PatternSet capture = PatternSet::random(net.num_pis(), W, rng());
    launch_sim.run(launch);
    FaultSpec spec;
    spec.add(transition_site(fault, launch_sim.value(site), gate));
    engine.run_batch(
        capture, {spec},
        [&](int, const FaultSpec&, const FaultView& v) {
          std::fill(err_row.begin(), err_row.end(), 0);
          for (NodeId out : ced.functional_outputs) {
            accumulate_xor_or(err_row.data(), v.golden(out), v.faulty(out),
                              W);
          }
          // The rails agree exactly where the checker flags the fault, so
          // detected = |err| - |(z1 ^ z2) & err|.
          const int64_t erroneous = popcount_words(err_row.data(), W, ~0ULL);
          result.erroneous += erroneous;
          result.detected +=
              erroneous - popcount_xor_and(v.faulty(ced.error_pair.rail1),
                                           v.faulty(ced.error_pair.rail2),
                                           err_row.data(), W, ~0ULL);
        },
        /*num_threads=*/1);
    result.runs += 64ll * W;
  }
  return result;
}

}  // namespace apx
