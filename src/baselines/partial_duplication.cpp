#include "baselines/partial_duplication.hpp"

#include <algorithm>
#include <numeric>

#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "sim/fault_engine.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace apx {
namespace {

// Unbiased bounded draw (Lemire multiply-shift with rejection). The legacy
// `rng() % n` pick over-weighted low fault indices whenever n does not
// divide 2^64.
size_t bounded_pick(SplitMix64& rng, uint64_t n) {
  uint64_t x = rng.next();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = rng.next();
      m = static_cast<unsigned __int128>(x) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<size_t>(m >> 64);
}

// One campaign under the configured fault model; the selection accounting
// in `visit` is fault-agnostic. kSingleStuckAt keeps its historical draw —
// a Lemire bounded_pick over all 2N stuck-at faults — which differs from
// make_sampler's and would change the selections; the other models use
// the stock samplers over the logic nodes.
void run_model_campaign(FaultSimEngine& engine, const Network& net,
                        const std::vector<StuckFault>& faults,
                        const PartialDuplicationOptions& options,
                        uint64_t seed,
                        const FaultSimEngine::SpecVisitor& visit) {
  FaultSimEngine::SpecSampler sampler;
  if (options.model == FaultModel::kSingleStuckAt) {
    sampler = [&faults](uint64_t sample_seed) {
      SplitMix64 rng(sample_seed);
      return FaultSpec::stuck_at(faults[bounded_pick(rng, faults.size())]);
    };
  } else {
    std::vector<NodeId> sites;
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (net.node(id).kind == NodeKind::kLogic) sites.push_back(id);
    }
    sampler =
        FaultSimEngine::make_sampler(options.model, std::move(sites), options);
  }
  CampaignOptions copt = options;
  copt.seed = seed;
  engine.run_campaign(copt, sampler, visit);
}

// For POs ordered by rank, returns hist[k] = number of runs whose first
// erroneous PO (by rank) is rank k, plus the total erroneous-run count.
// Prefix-coverage(k) = sum(hist[0..k-1]) / erroneous.
struct RankHistogram {
  std::vector<int64_t> first_error_at_rank;
  int64_t erroneous = 0;
};

RankHistogram rank_histogram(const Network& net,
                             const std::vector<int>& ranked_pos,
                             const std::vector<StuckFault>& faults,
                             const PartialDuplicationOptions& options) {
  RankHistogram hist;
  const size_t ranks = ranked_pos.size();
  hist.first_error_at_rank.assign(ranks, 0);
  if (faults.empty() || options.num_fault_samples <= 0 || ranks == 0) {
    return hist;
  }

  FaultSimEngine engine(net);
  std::vector<NodeId> drivers(ranks);
  for (size_t k = 0; k < ranks; ++k) {
    drivers[k] = net.po(ranked_pos[k]).driver;
  }
  // Per-slot rows (ranks counters + the erroneous total), merged in slot
  // order afterwards; integer sums are exact, so the result is
  // bit-identical for any thread count.
  const size_t stride = ranks + 1;
  const int slots = resolve_thread_option(options.num_threads);
  std::vector<int64_t> rows(static_cast<size_t>(slots) * stride, 0);
  // "First erroneous PO has rank k" counts via the prefix-OR identity: the
  // bits rank k claims are exactly the bits it adds to the running OR of
  // ranks 0..k, so row[k] = |prefix after k| - |prefix before k| — the
  // per-word remaining/any bookkeeping reduced to one accumulate and one
  // popcount kernel call per rank. A driver the fault never touched adds
  // no bits, so the prefix popcount only moves after a touched rank.
  std::vector<std::vector<uint64_t>> any_scratch(slots);
  run_model_campaign(
      engine, net, faults, options, options.seed,
      [&](int, const FaultSpec&, const FaultView& v) {
        int64_t* row =
            rows.data() + static_cast<size_t>(v.worker_slot()) * stride;
        const int W = v.num_words();
        const uint64_t tail = v.word_mask(W - 1);
        std::vector<uint64_t>& any_row = any_scratch[v.worker_slot()];
        any_row.assign(static_cast<size_t>(W), 0);
        int64_t prev = 0;
        for (size_t k = 0; k < ranks; ++k) {
          const NodeId drv = drivers[k];
          if (!v.touched(drv)) continue;
          accumulate_xor_or(any_row.data(), v.golden(drv), v.faulty(drv), W);
          const int64_t cur = popcount_words(any_row.data(), W, tail);
          row[k] += cur - prev;
          prev = cur;
        }
        row[ranks] += prev;
      });
  for (int s = 0; s < slots; ++s) {
    const int64_t* row = rows.data() + static_cast<size_t>(s) * stride;
    for (size_t k = 0; k < ranks; ++k) hist.first_error_at_rank[k] += row[k];
    hist.erroneous += row[ranks];
  }
  return hist;
}

// Per-output erroneous-bit counts over a fault-injection campaign, used to
// rank POs by error contribution.
std::vector<int64_t> output_error_counts(
    const Network& net, const std::vector<StuckFault>& faults,
    const PartialDuplicationOptions& options) {
  const size_t num_pos = static_cast<size_t>(net.num_pos());
  std::vector<int64_t> rate(num_pos, 0);
  if (faults.empty() || options.num_fault_samples <= 0 || num_pos == 0) {
    return rate;
  }

  FaultSimEngine engine(net);
  // Per-slot rows merged in slot order, as in rank_histogram.
  const int slots = resolve_thread_option(options.num_threads);
  std::vector<int64_t> rows(static_cast<size_t>(slots) * num_pos, 0);
  run_model_campaign(
      engine, net, faults, options, options.seed ^ 0xABCD,
      [&](int, const FaultSpec&, const FaultView& v) {
        int64_t* row =
            rows.data() + static_cast<size_t>(v.worker_slot()) * num_pos;
        const int W = v.num_words();
        const uint64_t tail = v.word_mask(W - 1);
        for (size_t o = 0; o < num_pos; ++o) {
          NodeId drv = net.po(static_cast<int>(o)).driver;
          if (!v.touched(drv)) continue;  // golden == faulty: no error bits
          const uint64_t* g = v.golden(drv);
          const uint64_t* f = v.faulty(drv);
          // |g ^ f| = |~g & f| + |g & ~f|.
          row[o] += popcount_andnot(g, f, W, tail) +
                    popcount_andnot(f, g, W, tail);
        }
      });
  for (int s = 0; s < slots; ++s) {
    const int64_t* row = rows.data() + static_cast<size_t>(s) * num_pos;
    for (size_t o = 0; o < num_pos; ++o) rate[o] += row[o];
  }
  return rate;
}

}  // namespace

PartialDuplicationResult build_partial_duplication(
    const Network& mapped, double target_coverage,
    const PartialDuplicationOptions& options) {
  trace::Span span("baseline.partial_dup");
  PartialDuplicationResult result;

  // A wire-only circuit has no gate-level fault sites; both campaigns must
  // degrade to zero counts instead of sampling from an empty list.
  std::vector<StuckFault> faults = enumerate_faults(mapped);

  // Rank POs by their error contribution (per-output error rate).
  std::vector<int64_t> rate = output_error_counts(mapped, faults, options);
  std::vector<int> ranked(mapped.num_pos());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](int a, int b) { return rate[a] > rate[b]; });

  // Prefix coverage from one fault-injection pass; select the shortest
  // prefix reaching the target.
  RankHistogram hist = rank_histogram(mapped, ranked, faults, options);
  int64_t covered = 0;
  size_t chosen = ranked.size();
  for (size_t k = 0; k < ranked.size(); ++k) {
    covered += hist.first_error_at_rank[k];
    double coverage =
        hist.erroneous > 0
            ? static_cast<double>(covered) / static_cast<double>(hist.erroneous)
            : 0.0;
    if (coverage >= target_coverage) {
      chosen = k + 1;
      result.estimated_coverage = coverage;
      break;
    }
    result.estimated_coverage = coverage;
  }
  result.duplicated_pos.assign(ranked.begin(),
                               ranked.begin() + static_cast<long>(chosen));

  // Predictor: a copy of the circuit keeping only the duplicated POs (cone
  // sharing is preserved).
  Network predictor = mapped;
  {
    Network pruned;
    pruned.set_name(mapped.name() + "_pdup");
    std::vector<NodeId> pi_map;
    for (NodeId pi : mapped.pis()) {
      pi_map.push_back(pruned.add_pi(mapped.node(pi).name));
    }
    std::vector<NodeId> map = mapped.append_into(pruned, pi_map);
    for (int po : result.duplicated_pos) {
      pruned.add_po(mapped.po(po).name, map[mapped.po(po).driver]);
    }
    pruned.cleanup();
    predictor = std::move(pruned);
  }
  // Checker indices inside the predictor follow selection order.
  std::vector<int> predictor_pos(result.duplicated_pos.size());
  std::iota(predictor_pos.begin(), predictor_pos.end(), 0);

  // build_duplication_ced wants matching po indices between original and
  // predictor; construct the pairs directly.
  CedDesign ced;
  ced.design.set_name(mapped.name() + "_pdup_ced");
  std::vector<NodeId> pi_map;
  for (NodeId pi : mapped.pis()) {
    pi_map.push_back(ced.design.add_pi(mapped.node(pi).name));
  }
  int before = ced.design.num_nodes();
  std::vector<NodeId> omap = mapped.append_into(ced.design, pi_map);
  for (NodeId id = before; id < ced.design.num_nodes(); ++id) {
    if (ced.design.node(id).kind == NodeKind::kLogic) {
      ced.functional_nodes.push_back(id);
    }
  }
  before = ced.design.num_nodes();
  std::vector<NodeId> pmap = predictor.append_into(ced.design, pi_map);
  for (NodeId id = before; id < ced.design.num_nodes(); ++id) {
    if (ced.design.node(id).kind == NodeKind::kLogic) {
      ced.checkgen_nodes.push_back(id);
    }
  }
  for (int o = 0; o < mapped.num_pos(); ++o) {
    NodeId drv = omap[mapped.po(o).driver];
    ced.functional_outputs.push_back(drv);
    ced.design.add_po(mapped.po(o).name, drv);
  }
  before = ced.design.num_nodes();
  std::vector<TwoRail> pairs;
  for (size_t k = 0; k < result.duplicated_pos.size(); ++k) {
    NodeId a = omap[mapped.po(result.duplicated_pos[k]).driver];
    NodeId b = pmap[predictor.po(static_cast<int>(k)).driver];
    pairs.push_back(build_equality_checker(ced.design, a, b));
  }
  ced.error_pair = build_two_rail_tree(ced.design, std::move(pairs));
  for (NodeId id = before; id < ced.design.num_nodes(); ++id) {
    if (ced.design.node(id).kind == NodeKind::kLogic) {
      ced.checker_nodes.push_back(id);
    }
  }
  ced.design.add_po("err_rail1", ced.error_pair.rail1);
  ced.design.add_po("err_rail2", ced.error_pair.rail2);
  ced.design.check();
  result.ced = std::move(ced);
  return result;
}

}  // namespace apx
