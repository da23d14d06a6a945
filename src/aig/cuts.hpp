// Priority k-cut enumeration over an AIG, with per-cut truth tables.
//
// A cut of node n is a set of nodes ("leaves") such that every path from a
// PI to n passes through a leaf; the cut's truth table expresses n as a
// function of its leaves. Cuts of an AND node are products of its fanins'
// cuts (leaf-set union, truth tables ANDed after expansion into the merged
// leaf space, complemented edges folded into the child table).
//
// The full cut set is exponential, so this is *priority* enumeration in
// the standard style: per node, keep only the kMaxCuts best cuts under a
// (size, lexicographic-leaves) order, and always keep the trivial cut {n}
// so every node has at least one cut and enumeration never starves
// upstream. With k ≤ 4 each truth table is a single uint16 over the cut's
// leaves in slot order — exactly the domain of the NPN table, which is
// what makes cut rewriting a table lookup.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

namespace apx::aig {

inline constexpr int kMaxCutSize = 4;
/// Cuts kept per node, including the trivial cut.
inline constexpr int kMaxCuts = 8;

struct Cut {
  std::array<uint32_t, kMaxCutSize> leaves{};  ///< sorted node ids
  uint8_t size = 0;
  /// Function of the leaves (leaf i = variable i), always stored as a full
  /// 4-variable table: variables >= size are replicated don't-cares.
  uint16_t tt = 0;
};

struct CutSet {
  /// cuts[node] — indexed by node id; empty for the constant node.
  std::vector<std::vector<Cut>> cuts;
  /// Total cuts enumerated before truncation (throughput accounting).
  size_t total_enumerated = 0;
};

/// Enumerates priority cuts for every node, in one ascending-id pass.
CutSet enumerate_cuts(const Aig& aig);

}  // namespace apx::aig
