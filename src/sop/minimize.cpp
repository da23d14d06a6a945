#include "sop/minimize.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace apx {
namespace {

// Greedy literal removal: try to free each bound literal of `c`; keep the
// removal if the enlarged cube still does not intersect any offset cube.
Cube expand_cube(Cube c, const Sop& offset) {
  const int n = c.num_vars();
  // Order variables by how many offset cubes would block their removal,
  // removing the least-blocked literals first.
  std::vector<int> order;
  for (int v = 0; v < n; ++v) {
    if (c.get(v) != LitCode::kFree) order.push_back(v);
  }
  std::vector<int> blockers(n, 0);
  for (int v : order) {
    Cube t = c.without_var(v);
    for (const Cube& off : offset.cubes()) {
      if (t.distance(off) == 0) ++blockers[v];
    }
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return blockers[a] < blockers[b]; });
  for (int v : order) {
    Cube t = c.without_var(v);
    bool clash = false;
    for (const Cube& off : offset.cubes()) {
      if (t.distance(off) == 0) {
        clash = true;
        break;
      }
    }
    if (!clash) c = t;
  }
  return c;
}

// REDUCE: shrink cube c to the smallest cube covering the part of the onset
// that only c covers. We use the standard formulation: c reduced =
// smallest cube containing c AND complement(rest + dc) cofactored by c.
Cube reduce_cube(const Cube& c, const Sop& rest_plus_dc) {
  Sop cof = rest_plus_dc.cofactor(c);
  Sop comp = Sop::complement(cof);
  if (comp.empty()) return c;  // cube fully covered elsewhere; leave intact
  // Supercube of comp, then intersect with c.
  const int n = c.num_vars();
  Cube super = comp.cube(0);
  for (int i = 1; i < comp.num_cubes(); ++i) {
    const Cube& o = comp.cube(i);
    for (int v = 0; v < n; ++v) {
      LitCode a = super.get(v);
      LitCode b = o.get(v);
      super.set(v, static_cast<LitCode>(static_cast<uint8_t>(a) |
                                        static_cast<uint8_t>(b)));
    }
  }
  auto reduced = c.intersect(super);
  return reduced ? *reduced : c;
}

}  // namespace

Sop expand_against_offset(const Sop& cover, const Sop& offset) {
  Sop result(cover.num_vars());
  for (const Cube& c : cover.cubes()) {
    result.add_cube(expand_cube(c, offset));
  }
  result.make_scc_free();
  return result;
}

Sop irredundant(const Sop& cover, const Sop& dc) {
  // Greedy: walk cubes largest-first; drop a cube if the remaining cover
  // plus dc still covers it.
  std::vector<Cube> cubes = cover.cubes();
  std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() > b.literal_count();
  });
  std::vector<bool> removed(cubes.size(), false);
  // Scratch cover reused across probes: the dc cubes form a fixed prefix,
  // each probe truncates back to it and appends the surviving other cubes.
  // A cover is a set (order-independent), so hoisting dc to the front
  // changes nothing semantically.
  Sop rest(cover.num_vars());
  for (const Cube& d : dc.cubes()) rest.add_cube(d);
  const int dc_prefix = rest.num_cubes();
  for (size_t i = 0; i < cubes.size(); ++i) {
    rest.truncate(dc_prefix);
    for (size_t j = 0; j < cubes.size(); ++j) {
      if (j != i && !removed[j]) rest.add_cube(cubes[j]);
    }
    if (rest.covers_cube(cubes[i])) removed[i] = true;
  }
  Sop result(cover.num_vars());
  for (size_t i = 0; i < cubes.size(); ++i) {
    if (!removed[i]) result.add_cube(cubes[i]);
  }
  return result;
}

Sop minimize(const Sop& onset, const Sop& dc) {
  assert(onset.num_vars() == dc.num_vars());
  Sop care = Sop::disjunction(onset, dc);
  Sop offset = Sop::complement(care);
  Sop cover = onset;
  cover.make_scc_free();
  cover = expand_against_offset(cover, offset);
  cover = irredundant(cover, dc);
  // One REDUCE / EXPAND / IRREDUNDANT refinement pass, kept only when it
  // improves the cover. The dc cubes sit as a fixed prefix of the scratch
  // rest-cover, so each cube's probe rebuilds only the tail (covers are
  // order-independent sets).
  Sop rest(cover.num_vars());
  for (const Cube& d : dc.cubes()) rest.add_cube(d);
  const int dc_prefix = rest.num_cubes();
  Sop reduced(cover.num_vars());
  for (int i = 0; i < cover.num_cubes(); ++i) {
    rest.truncate(dc_prefix);
    for (int j = 0; j < cover.num_cubes(); ++j) {
      if (j != i) rest.add_cube(cover.cube(j));
    }
    reduced.add_cube(reduce_cube(cover.cube(i), rest));
  }
  Sop next = expand_against_offset(reduced, offset);
  next = irredundant(next, dc);
  if (next.literal_count() < cover.literal_count() ||
      next.num_cubes() < cover.num_cubes()) {
    cover = std::move(next);
  }
  return cover;
}

}  // namespace apx
