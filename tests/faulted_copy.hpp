// Independent reference for FaultSimEngine: the faulty machine built as a
// plain network and evaluated by a full Simulator::run, with no cone walk,
// no event scheduling and no engine code on the path.
//
// The copy keeps every original node id and appends a golden copy G of the
// network (sharing its PIs). Each fault site n gets a replacement node n':
//   * a permanent, ungated site: the stuck constant;
//   * a transient and/or gated site: G[n] AND NOT m (stuck-at-0) or
//     G[n] OR m (stuck-at-1), where m is an extra PI carrying the site's
//     forced-vector mask (burst window AND gate words).
// Every fanin and PO reference to n among the original nodes is rewired to
// n', so the site blocks propagation through itself and a masked site
// carries its *fault-free* value outside the mask — the engine's contract.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "sim/fault_engine.hpp"
#include "sim/simulator.hpp"

namespace apx::reference {

using Plane = std::vector<std::vector<uint64_t>>;

/// Bit mask of word `w` covering the vector window [start, start + len).
inline uint64_t window_mask(int32_t start, int32_t len, int w) {
  const int64_t lo = static_cast<int64_t>(w) * 64;
  const int64_t s = std::max<int64_t>(start, lo);
  const int64_t e =
      std::min<int64_t>(static_cast<int64_t>(start) + len, lo + 64);
  if (s >= e) return 0;
  const int b = static_cast<int>(e - lo);
  const int a = static_cast<int>(s - lo);
  const uint64_t upto = b == 64 ? ~0ULL : (1ULL << b) - 1;
  return upto & ~((1ULL << a) - 1);
}

/// Every single stuck-at fault of the network's logic nodes
/// (enumerate_faults) as a one-site FaultSpec, in the same order.
inline std::vector<FaultSpec> single_stuck_at_specs(const Network& net) {
  std::vector<FaultSpec> specs;
  for (const StuckFault& f : enumerate_faults(net)) {
    specs.push_back(FaultSpec::stuck_at(f));
  }
  return specs;
}

/// Faulty value rows of `net` under `spec` on `patterns`, indexed by the
/// original node ids.
inline Plane faulted_copy_rows(const Network& net, const PatternSet& patterns,
                               const FaultSpec& spec) {
  const int n = net.num_nodes();
  const int W = patterns.num_words();
  Network copy = net;
  const std::vector<NodeId> golden = net.append_into(copy, net.pis());

  std::vector<NodeId> row_of(n);
  for (NodeId id = 0; id < n; ++id) row_of[id] = id;
  std::vector<std::vector<uint64_t>> mask_columns;
  for (int s = 0; s < spec.num_sites; ++s) {
    const FaultSite& site = spec.sites[s];
    NodeId replacement;
    if (!site.transient && site.gate == nullptr) {
      replacement = copy.add_const(site.stuck_value);
    } else {
      std::vector<uint64_t> mask(W);
      for (int w = 0; w < W; ++w) {
        uint64_t m = site.transient
                         ? window_mask(site.burst_start, site.burst_length, w)
                         : ~0ULL;
        if (site.gate != nullptr) m &= site.gate[w];
        mask[w] = m;
      }
      mask_columns.push_back(std::move(mask));
      const NodeId m = copy.add_pi("fault_mask" + std::to_string(s));
      const NodeId g = golden[site.node];
      replacement = site.stuck_value ? copy.add_or(g, m)
                                     : copy.add_and(g, copy.add_not(m));
    }
    row_of[site.node] = replacement;
  }

  auto rewired = [&](NodeId id) { return id < n ? row_of[id] : id; };
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = copy.node(id);
    if (node.kind != NodeKind::kLogic) continue;
    std::vector<NodeId> fanins = node.fanins;
    for (NodeId& f : fanins) f = rewired(f);
    if (fanins != node.fanins) copy.set_function(id, fanins, node.sop);
  }
  for (int o = 0; o < copy.num_pos(); ++o) {
    copy.set_po_driver(o, rewired(copy.po(o).driver));
  }

  PatternSet extended(copy.num_pis(), W);
  for (int i = 0; i < copy.num_pis(); ++i) {
    for (int w = 0; w < W; ++w) {
      extended.set_word(i, w,
                        i < net.num_pis()
                            ? patterns.word(i, w)
                            : mask_columns[i - net.num_pis()][w]);
    }
  }
  Simulator sim(copy);
  sim.run(extended);
  Plane rows(n);
  for (NodeId id = 0; id < n; ++id) {
    const WordSpan v = sim.value(row_of[id]);
    rows[id].assign(v.begin(), v.end());
  }
  return rows;
}

/// Asserts that every node row of an engine view equals the faulted-copy
/// reference on every valid vector, and that its golden rows equal a plain
/// Simulator run.
inline void expect_view_matches_faulted_copy(const Network& net,
                                             const PatternSet& patterns,
                                             const FaultSpec& spec,
                                             const FaultView& view) {
  const Plane ref = faulted_copy_rows(net, patterns, spec);
  Simulator golden(net);
  golden.run(patterns);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (int w = 0; w < view.num_words(); ++w) {
      const uint64_t valid = view.word_mask(w);
      ASSERT_EQ(view.golden(id)[w] & valid, golden.value(id)[w] & valid)
          << "golden row of node " << id << " word " << w;
      ASSERT_EQ(view.faulty(id)[w] & valid, ref[id][w] & valid)
          << "node " << id << " word " << w << " (site 0 on node "
          << spec.sites[0].node << ", " << spec.num_sites << " site(s))";
    }
  }
}

}  // namespace apx::reference
