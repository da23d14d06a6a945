#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "core/trace.hpp"

namespace apx {

namespace {

// Smallest power of two >= n (and >= floor_cap).
size_t pow2_at_least(size_t n, size_t floor_cap) {
  size_t cap = floor_cap;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

BddManager::BddManager(int num_vars, size_t max_nodes,
                       std::vector<int> level_to_var)
    : num_vars_(num_vars), max_nodes_(max_nodes), reorder_threshold_(8192) {
  // Terminal nodes: index 0 = false, 1 = true. Terminals use the sentinel
  // variable num_vars (below every real variable in the order).
  var_.push_back(num_vars_);
  kids_.push_back({0, 0});
  var_.push_back(num_vars_);
  kids_.push_back({1, 1});
  var2level_.resize(num_vars_ + 1);
  level2var_.resize(num_vars_ + 1);
  install_order(level_to_var);
  unique_slots_.assign(1024, kInvalidRef);
  ite_cache_.assign(ite_capacity(), IteEntry{});
  stats_.peak_nodes = 2;
}

BddManager::~BddManager() {
  if (trace::enabled()) {
    trace::counter("bdd.peak_nodes", trace::CounterKind::kGauge)
        .set_max(static_cast<int64_t>(stats_.peak_nodes));
  }
}

void BddManager::install_order(const std::vector<int>& level_to_var) {
  if (level_to_var.empty()) {
    std::iota(var2level_.begin(), var2level_.end(), 0);
    std::iota(level2var_.begin(), level2var_.end(), 0);
    return;
  }
  if (static_cast<int>(level_to_var.size()) != num_vars_) {
    throw std::logic_error("level_to_var must cover every variable");
  }
  std::vector<char> placed(num_vars_, 0);
  for (int l = 0; l < num_vars_; ++l) {
    int v = level_to_var[l];
    if (v < 0 || v >= num_vars_ || placed[v]) {
      throw std::logic_error(
          "level_to_var must be a permutation of 0..num_vars-1");
    }
    placed[v] = 1;
    level2var_[l] = v;
    var2level_[v] = l;
  }
  // The terminal sentinel sits below every real level.
  level2var_[num_vars_] = num_vars_;
  var2level_[num_vars_] = num_vars_;
}

void BddManager::seed_order(const std::vector<int>& level_to_var) {
  // Levels are baked into every existing internal node; reinterpreting
  // them post hoc would silently change those nodes' functions.
  if (var_.size() != 2 || !free_list_.empty()) {
    throw std::logic_error("seed_order requires an empty manager");
  }
  install_order(level_to_var);
}

void BddManager::unique_insert(Ref id) {
  const size_t mask = unique_slots_.size() - 1;
  size_t idx = hash_triple(var_[id], kids_[id].lo, kids_[id].hi) & mask;
  while (unique_slots_[idx] != kInvalidRef) idx = (idx + 1) & mask;
  unique_slots_[idx] = id;
}

void BddManager::unique_rebuild(size_t capacity) {
  unique_slots_.assign(capacity, kInvalidRef);
  unique_count_ = live_internal();
  // Every live non-terminal node goes in exactly once; inserting from the
  // arena needs no old slot array.
  for (Ref id = 2; id < static_cast<Ref>(var_.size()); ++id) {
    if (var_[id] != kFreeVar) unique_insert(id);
  }
}

size_t BddManager::ite_capacity() const {
  // Direct-mapped lossy cache: sized to the budget (bounded at 2^20
  // entries = 16 MB) so big managers don't thrash on a tiny cache.
  return std::clamp(pow2_at_least(max_nodes_ / 4, size_t{1} << 12),
                    size_t{1} << 12, size_t{1} << 20);
}

size_t BddManager::unique_fit_capacity() const {
  return pow2_at_least((live_internal() + 1) * 10 / 7, 1024);
}

BddManager::Ref BddManager::alloc_node(int32_t var, Ref lo, Ref hi) {
  Ref id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    var_[id] = var;
    kids_[id] = {lo, hi};
  } else {
    id = static_cast<Ref>(var_.size());
    var_.push_back(var);
    kids_.push_back({lo, hi});
  }
  if (live_nodes() > stats_.peak_nodes) stats_.peak_nodes = live_nodes();
  return id;
}

BddManager::Ref BddManager::make_node(int32_t var, Ref lo, Ref hi) {
  if (lo == hi) return lo;
  const size_t mask = unique_slots_.size() - 1;
  size_t idx = hash_triple(var, lo, hi) & mask;
  ++stats_.unique_lookups;
  while (true) {
    ++stats_.unique_probes;
    Ref slot = unique_slots_[idx];
    if (slot == kInvalidRef) break;
    if (var_[slot] == var && kids_[slot].lo == lo && kids_[slot].hi == hi) {
      return slot;
    }
    idx = (idx + 1) & mask;
  }
  if (live_nodes() >= max_nodes_) throw BddOverflow();
  Ref id = alloc_node(var, lo, hi);
  unique_slots_[idx] = id;
  ++unique_count_;
  if ((unique_count_ + 1) * 10 >= unique_slots_.size() * 7) {
    unique_rebuild(unique_slots_.size() * 2);
  }
  // Reordering here would move levels under the feet of in-flight
  // recursions (ite_rec holds refs and a top level on its stack), so only
  // latch the request; cooperative callers reorder() at a safe point.
  if (auto_reorder_ && !in_reorder_ && !reorder_pending_ &&
      live_nodes() >= reorder_threshold_) {
    reorder_pending_ = true;
  }
  return id;
}

BddManager::Ref BddManager::var(int v) {
  assert(v >= 0 && v < num_vars_);
  return make_node(v, 0, 1);
}

BddManager::Ref BddManager::literal(int v, bool positive) {
  return positive ? var(v) : make_node(v, 1, 0);
}

BddManager::Ref BddManager::bdd_not(Ref f) { return ite_rec(f, 0, 1); }
BddManager::Ref BddManager::bdd_and(Ref f, Ref g) { return ite_rec(f, g, 0); }
BddManager::Ref BddManager::bdd_or(Ref f, Ref g) { return ite_rec(f, 1, g); }
BddManager::Ref BddManager::bdd_xor(Ref f, Ref g) {
  return ite_rec(f, bdd_not(g), g);
}
BddManager::Ref BddManager::bdd_ite(Ref f, Ref g, Ref h) {
  return ite_rec(f, g, h);
}

BddManager::Ref BddManager::ite_rec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == 1) return g;
  if (f == 0) return h;
  if (g == h) return g;
  if (g == 1 && h == 0) return f;

  const size_t mask = ite_cache_.size() - 1;
  const size_t idx =
      mix64(static_cast<uint64_t>(f) * 0x9E3779B97F4A7C15ULL +
            ((static_cast<uint64_t>(g) << 32) | h)) &
      mask;
  IteEntry& entry = ite_cache_[idx];
  if (entry.f == f && entry.g == g && entry.h == h) {
    ++stats_.ite_hits;
    return entry.result;
  }
  ++stats_.ite_misses;

  // Decompose on the topmost *level* (not variable index): the recursion
  // is what makes the permutation layer transparent to callers.
  int32_t top_level = std::min({level_of(f), level_of(g), level_of(h)});
  int32_t top_var = level2var_[top_level];
  auto cof = [&](Ref x, bool hi) -> Ref {
    if (var_[x] != top_var) return x;
    return hi ? kids_[x].hi : kids_[x].lo;
  };
  Ref lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  Ref hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  Ref result = make_node(top_var, lo, hi);
  // Lossy cache: overwrite whatever the recursive calls left in this slot.
  IteEntry& out = ite_cache_[idx];
  out.f = f;
  out.g = g;
  out.h = h;
  out.result = result;
  return out.result;
}

bool BddManager::implies(Ref f, Ref g) { return bdd_and(f, bdd_not(g)) == 0; }

void BddManager::begin_scratch_pass() const {
  if (stamp_.size() < var_.size()) stamp_.resize(var_.size(), 0);
  if (frac_memo_.size() < var_.size()) frac_memo_.resize(var_.size());
  if (ref_memo_.size() < var_.size()) ref_memo_.resize(var_.size());
  if (++stamp_epoch_ == 0) {  // epoch wrapped: invalidate everything
    std::fill(stamp_.begin(), stamp_.end(), 0);
    stamp_epoch_ = 1;
  }
}

double BddManager::sat_fraction_rec(Ref f) {
  if (f == 0) return 0.0;
  if (f == 1) return 1.0;
  if (stamp_[f] == stamp_epoch_) return frac_memo_[f];
  double result =
      0.5 * (sat_fraction_rec(kids_[f].lo) + sat_fraction_rec(kids_[f].hi));
  stamp_[f] = stamp_epoch_;
  frac_memo_[f] = result;
  return result;
}

double BddManager::sat_fraction(Ref f) {
  begin_scratch_pass();
  return sat_fraction_rec(f);
}

double BddManager::sat_count(Ref f) {
  return sat_fraction(f) * std::ldexp(1.0, num_vars_);
}

BddManager::Ref BddManager::cofactor_rec(Ref f, int32_t vlevel, bool value) {
  if (f <= 1) return f;
  const int32_t lev = level_of(f);
  if (lev > vlevel) return f;  // f does not depend on v (v above f's top)
  if (lev == vlevel) return value ? kids_[f].hi : kids_[f].lo;
  if (stamp_[f] == stamp_epoch_) return ref_memo_[f];
  Ref lo = cofactor_rec(kids_[f].lo, vlevel, value);
  Ref hi = cofactor_rec(kids_[f].hi, vlevel, value);
  // Only nodes of f's input DAG are stamped, all of which predate the
  // pass, so make_node growing the arena past stamp_.size() is safe.
  Ref result = make_node(var_[f], lo, hi);
  stamp_[f] = stamp_epoch_;
  ref_memo_[f] = result;
  return result;
}

BddManager::Ref BddManager::cofactor(Ref f, int v, bool value) {
  assert(v >= 0 && v < num_vars_);
  begin_scratch_pass();
  return cofactor_rec(f, var2level_[v], value);
}

BddManager::Ref BddManager::exists(Ref f, int var) {
  return bdd_or(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::forall(Ref f, int var) {
  return bdd_and(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::exists_many(Ref f, const std::vector<bool>& vars) {
  // Quantify bottom-up (deepest level first) so intermediate results stay
  // small near the terminals. Depth means level, not variable index.
  std::vector<int> order;
  for (int v = 0; v < static_cast<int>(vars.size()); ++v) {
    if (vars[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return var2level_[a] > var2level_[b]; });
  for (int v : order) f = exists(f, v);
  return f;
}

BddManager::Ref BddManager::boolean_difference(Ref f, int var) {
  return bdd_xor(cofactor(f, var, false), cofactor(f, var, true));
}

BddManager::Ref BddManager::compose(Ref f, int var, Ref g) {
  // f[var <- g] = ITE(g, f|var=1, f|var=0).
  return bdd_ite(g, cofactor(f, var, true), cofactor(f, var, false));
}

bool BddManager::evaluate(Ref f, uint64_t input) const {
  while (f > 1) {
    f = ((input >> var_[f]) & 1) ? kids_[f].hi : kids_[f].lo;
  }
  return f == 1;
}

std::vector<bool> BddManager::support(Ref f) const {
  begin_scratch_pass();
  std::vector<bool> vars(num_vars_, false);
  std::vector<Ref> stack = {f};
  while (!stack.empty()) {
    Ref r = stack.back();
    stack.pop_back();
    if (r <= 1 || stamp_[r] == stamp_epoch_) continue;
    stamp_[r] = stamp_epoch_;
    vars[var_[r]] = true;
    stack.push_back(kids_[r].lo);
    stack.push_back(kids_[r].hi);
  }
  return vars;
}

size_t BddManager::size(Ref f) const {
  begin_scratch_pass();
  std::vector<Ref> stack = {f};
  size_t count = 0;
  while (!stack.empty()) {
    Ref r = stack.back();
    stack.pop_back();
    if (r <= 1 || stamp_[r] == stamp_epoch_) continue;
    stamp_[r] = stamp_epoch_;
    ++count;
    stack.push_back(kids_[r].lo);
    stack.push_back(kids_[r].hi);
  }
  return count;
}

std::vector<BddManager::Ref> BddManager::garbage_collect(
    const std::vector<Ref>& roots) {
  std::vector<Ref> remap = compact_arena(roots);
  unique_rebuild(unique_fit_capacity());
  ite_cache_.assign(ite_capacity(), IteEntry{});
  return remap;
}

std::vector<BddManager::Ref> BddManager::compact_arena(
    const std::vector<Ref>& roots) {
  ++stats_.gc_runs;
  if (trace::enabled()) {
    trace::counter("bdd.gc_runs").add(1);
    trace::counter("bdd.peak_nodes", trace::CounterKind::kGauge)
        .set_max(static_cast<int64_t>(stats_.peak_nodes));
  }
  // Refs are about to change meaning, which invalidates the unique table,
  // the ITE cache and the scratch memos: release them all before the
  // compaction allocates (callers rebuild the tables; the memos regrow on
  // demand).
  std::vector<Ref>().swap(unique_slots_);
  unique_count_ = 0;
  std::vector<IteEntry>().swap(ite_cache_);
  std::vector<uint32_t>().swap(stamp_);
  std::vector<double>().swap(frac_memo_);
  std::vector<Ref>().swap(ref_memo_);
  stamp_epoch_ = 0;
  std::vector<Ref> remap(var_.size(), kInvalidRef);
  std::vector<int32_t> kept_var;
  std::vector<BddChildren> kept_kids;
  kept_var.reserve(live_nodes());
  kept_kids.reserve(live_nodes());
  kept_var.push_back(var_[0]);
  kept_kids.push_back(kids_[0]);
  kept_var.push_back(var_[1]);
  kept_kids.push_back(kids_[1]);
  remap[0] = 0;
  remap[1] = 1;
  // Post-order DFS compaction: a node is emitted only after both children,
  // so children's remap entries are final when the parent is rewritten.
  // (Index order is not enough once free-list reuse by sifting breaks the
  // arena's children-before-parents monotonicity.) Roots equal to
  // kInvalidRef are permitted (callers keep sentinel slots for nodes
  // outside their cones) and simply ignored.
  std::vector<Ref> stack;
  for (Ref r : roots) {
    if (r == kInvalidRef || r >= remap.size() || remap[r] != kInvalidRef) {
      continue;
    }
    assert(var_[r] != kFreeVar && "GC root references a freed node");
    stack.push_back(r);
  }
  while (!stack.empty()) {
    Ref r = stack.back();
    if (remap[r] != kInvalidRef) {  // finished via another parent
      stack.pop_back();
      continue;
    }
    const Ref lo = kids_[r].lo;
    const Ref hi = kids_[r].hi;
    bool ready = true;
    if (remap[lo] == kInvalidRef) {
      stack.push_back(lo);
      ready = false;
    }
    if (remap[hi] == kInvalidRef) {
      stack.push_back(hi);
      ready = false;
    }
    if (!ready) continue;
    stack.pop_back();
    remap[r] = static_cast<Ref>(kept_var.size());
    kept_var.push_back(var_[r]);
    kept_kids.push_back({remap[lo], remap[hi]});
  }
  var_ = std::move(kept_var);
  kids_ = std::move(kept_kids);
  free_list_.clear();
  return remap;
}

// ---- dynamic reordering ----

void BddManager::register_external_refs(std::vector<Ref>* slots) {
  unregister_external_refs(slots);  // idempotent
  external_slots_.push_back(slots);
}

void BddManager::unregister_external_refs(std::vector<Ref>* slots) {
  external_slots_.erase(
      std::remove(external_slots_.begin(), external_slots_.end(), slots),
      external_slots_.end());
}

size_t BddManager::sift_find(const SiftTable& t, Ref lo, Ref hi) {
  const size_t mask = t.slots.size() - 1;
  size_t i = sift_home(lo, hi, mask);
  while (t.slots[i].id != kInvalidRef &&
         (t.slots[i].lo != lo || t.slots[i].hi != hi)) {
    i = (i + 1) & mask;
  }
  return i;
}

void BddManager::sift_resize(SiftTable& t, size_t capacity) {
  std::vector<SiftSlot> old(capacity, SiftSlot{kInvalidRef, 0, 0});
  old.swap(t.slots);
  const size_t mask = capacity - 1;
  for (const SiftSlot& e : old) {
    if (e.id == kInvalidRef) continue;
    size_t i = sift_home(e.lo, e.hi, mask);
    while (t.slots[i].id != kInvalidRef) i = (i + 1) & mask;
    t.slots[i] = e;
  }
}

void BddManager::sift_put(SiftTable& t, size_t slot, SiftSlot entry) {
  assert(t.slots[slot].id == kInvalidRef && "key already in the subtable");
  t.slots[slot] = entry;
  if (++t.used * 2 > t.slots.size()) sift_resize(t, t.slots.size() * 2);
}

void BddManager::sift_erase(SiftTable& t, Ref lo, Ref hi) {
  const size_t mask = t.slots.size() - 1;
  size_t hole = sift_find(t, lo, hi);
  assert(t.slots[hole].id != kInvalidRef && "erasing a key not in table");
  // Backward-shift deletion over the stored keys: slide later run members
  // into the hole when their home is at or before it (no tombstones).
  for (size_t probe = (hole + 1) & mask; t.slots[probe].id != kInvalidRef;
       probe = (probe + 1) & mask) {
    const size_t home = sift_home(t.slots[probe].lo, t.slots[probe].hi, mask);
    if (((probe - home) & mask) >= ((probe - hole) & mask)) {
      t.slots[hole] = t.slots[probe];
      hole = probe;
    }
  }
  t.slots[hole].id = kInvalidRef;
  // Give space back once the table is 1/8 full, so the subtables track
  // their variables' current sizes rather than the largest ever reached.
  if (--t.used * 8 < t.slots.size() && t.slots.size() > kMinSiftSlots) {
    sift_resize(t, t.slots.size() / 2);
  }
}

BddManager::Ref BddManager::sift_find_or_make(int32_t var, Ref lo, Ref hi) {
  // No reorder latch and no node cap: the sift_var max-growth abort bounds
  // temporary growth instead.
  if (lo == hi) {
    ++parent_count_[lo];
    return lo;
  }
  SiftTable& t = sift_tables_[var];
  const size_t i = sift_find(t, lo, hi);
  Ref id = t.slots[i].id;
  if (id == kInvalidRef) {
    id = alloc_node(var, lo, hi);
    if (parent_count_.size() <= id) parent_count_.resize(id + 1, 0);
    parent_count_[id] = 0;
    ++parent_count_[lo];
    ++parent_count_[hi];
    sift_put(t, i, {id, lo, hi});
    var_nodes_[var].push_back(id);
  }
  ++parent_count_[id];
  return id;
}

void BddManager::free_dead(Ref n) {
  // The node's children never die with it: each rewritten parent took its
  // own reference to them (through a new upper-variable node or directly),
  // so the release is a plain decrement — no cascade, no stack.
  const Ref lo = kids_[n].lo;
  const Ref hi = kids_[n].hi;
  sift_erase(sift_tables_[var_[n]], lo, hi);
  assert(parent_count_[lo] > 1 && parent_count_[hi] > 1);
  --parent_count_[lo];
  --parent_count_[hi];
  var_[n] = kFreeVar;  // its stale list entry is skipped from now on
  free_list_.push_back(n);
}

void BddManager::build_interaction_matrix(const std::vector<Ref>& roots) {
  // u and v interact iff some root's support contains both. Every arena
  // node is root-reachable here (reorder() GCs first), so a node labelled
  // x with a child labelled y implies x and y interact; contrapositive:
  // non-interacting level pairs swap with zero node rewrites.
  interact_words_ = (static_cast<size_t>(num_vars_) + 63) / 64;
  interact_.assign(static_cast<size_t>(num_vars_) * interact_words_, 0);
  std::vector<Ref> uniq(roots);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  std::vector<uint32_t> mark(var_.size(), 0);
  std::vector<uint64_t> sup(interact_words_);
  std::vector<Ref> stack;
  uint32_t tag = 0;
  for (Ref root : uniq) {
    if (root <= 1) continue;
    ++tag;
    std::fill(sup.begin(), sup.end(), 0);
    stack.push_back(root);
    while (!stack.empty()) {
      const Ref n = stack.back();
      stack.pop_back();
      if (n <= 1 || mark[n] == tag) continue;
      mark[n] = tag;
      const int32_t v = var_[n];
      sup[static_cast<size_t>(v) / 64] |= 1ull << (static_cast<size_t>(v) % 64);
      stack.push_back(kids_[n].lo);
      stack.push_back(kids_[n].hi);
    }
    for (int32_t v = 0; v < num_vars_; ++v) {
      if ((sup[static_cast<size_t>(v) / 64] >>
           (static_cast<size_t>(v) % 64)) &
          1u) {
        uint64_t* row = &interact_[static_cast<size_t>(v) * interact_words_];
        for (size_t w = 0; w < interact_words_; ++w) row[w] |= sup[w];
      }
    }
  }
}

void BddManager::swap_levels(int level) {
  // Exchange the variables at `level` and `level + 1`. Only nodes labelled
  // with the upper variable x that reference the lower variable y change;
  // they are rewritten *in place* (same Ref, same function, new label y),
  // which is what keeps every live Ref stable across sifting. Nodes not
  // at these two levels are untouched by construction.
  ++stats_.sift_swaps;
  const int32_t x = level2var_[level];
  const int32_t y = level2var_[level + 1];
  if (!interacts(x, y)) {
    // Disjoint supports: no x-node has a y-child, so the swap is pure
    // permutation bookkeeping — the dominant case on wide, shallow
    // circuits where most PI pairs never meet in one cone.
    std::swap(level2var_[level], level2var_[level + 1]);
    var2level_[x] = level + 1;
    var2level_[y] = level;
    return;
  }
  // x's list is rebuilt from a copy: swapping buffers with the scratch
  // instead would pass capacity from variable to variable until every list
  // carried the largest one.
  std::vector<Ref>& x_nodes = var_nodes_[x];
  sift_scratch_.assign(x_nodes.begin(), x_nodes.end());
  x_nodes.clear();
  SiftTable& tx = sift_tables_[x];
  SiftTable& ty = sift_tables_[y];
  for (Ref n : sift_scratch_) {
    if (var_[n] != x) continue;  // stale entry: freed/reused/moved
    const Ref f0 = kids_[n].lo;
    const Ref f1 = kids_[n].hi;
    const bool lo_y = var_[f0] == y;
    const bool hi_y = var_[f1] == y;
    if (!lo_y && !hi_y) {
      // Independent of y: keeps label x, silently moves down one level.
      x_nodes.push_back(n);
      continue;
    }
    const Ref f00 = lo_y ? kids_[f0].lo : f0;
    const Ref f01 = lo_y ? kids_[f0].hi : f0;
    const Ref f10 = hi_y ? kids_[f1].lo : f1;
    const Ref f11 = hi_y ? kids_[f1].hi : f1;
    // The new children's keys hold no y-child, so they never match a
    // y-dependent x-node still indexed under its old key.
    const Ref g0 = sift_find_or_make(x, f00, f10);
    const Ref g1 = sift_find_or_make(x, f01, f11);
    assert(g0 != g1 && "swap produced a redundant node");
    sift_erase(tx, f0, f1);
    var_[n] = y;
    kids_[n] = {g0, g1};
    sift_put(ty, sift_find(ty, g0, g1), {n, g0, g1});
    var_nodes_[y].push_back(n);
    ++stats_.sift_node_rewrites;
    // New references were counted above; dropping the old ones last means
    // shared children never see a transient zero. Only a y-child can die
    // (g0 and g1 hold any other child), and it is freed at once, f0 before
    // f1, so its slot is reused within this swap as sifting always has.
    --parent_count_[f0];
    --parent_count_[f1];
    if (lo_y && parent_count_[f0] == 0) free_dead(f0);
    if (hi_y && parent_count_[f1] == 0) free_dead(f1);
  }
  // A list that shrank far below its buffer gives the space back (rare:
  // its size has to fall fourfold first), so the lists track their current
  // sizes rather than the largest each one ever reached.
  if (x_nodes.capacity() > 4 * x_nodes.size() + 64) x_nodes.shrink_to_fit();
  std::swap(level2var_[level], level2var_[level + 1]);
  var2level_[x] = level + 1;
  var2level_[y] = level;
}

void BddManager::sift_var(int x) {
  const int bottom = num_vars_ - 1;
  const int start = var2level_[x];
  const size_t start_size = live_internal();
  const size_t limit = start_size + start_size / 5 + 2;  // 1.2x growth abort
  size_t best_size = start_size;
  int best = start;
  int cur = start;
  auto move_to = [&](int target) {
    while (cur < target) swap_levels(cur++);
    while (cur > target) swap_levels(--cur);
  };
  auto sweep = [&](int end, int step) {
    while (cur != end) {
      if (step > 0) {
        swap_levels(cur);
        ++cur;
      } else {
        --cur;
        swap_levels(cur);
      }
      const size_t s = live_internal();
      if (s < best_size) {
        best_size = s;
        best = cur;
      }
      if (s > limit) break;
    }
  };
  // Sweep toward the nearer end first (fewer swaps to undo on abort),
  // return to the start, sweep the other way, then park at the best level
  // seen. Post-GC the live size is a pure function of the order, so
  // live_internal() measured at each stop is exact.
  if (bottom - start <= start) {
    sweep(bottom, +1);
    move_to(start);
    sweep(0, -1);
  } else {
    sweep(0, -1);
    move_to(start);
    sweep(bottom, +1);
  }
  move_to(best);
}

void BddManager::sift(const std::vector<Ref>& roots) {
  // Scoped reference counts: the arena was just garbage-collected, so
  // every node is reachable and in-arena parent edges plus one pin per
  // root occurrence give exact liveness for the duration of the pass.
  parent_count_.assign(var_.size(), 0);
  for (Ref r = 2; r < static_cast<Ref>(var_.size()); ++r) {
    ++parent_count_[kids_[r].lo];
    ++parent_count_[kids_[r].hi];
  }
  for (Ref r : roots) {
    if (r != kInvalidRef) ++parent_count_[r];
  }
  // Arena order after the collection is the visit order swaps start from.
  var_nodes_.assign(num_vars_, {});
  for (Ref r = 2; r < static_cast<Ref>(var_.size()); ++r) {
    var_nodes_[var_[r]].push_back(r);
  }
  sift_tables_.assign(num_vars_, {});
  for (int v = 0; v < num_vars_; ++v) {
    SiftTable& t = sift_tables_[v];
    t.slots.assign(pow2_at_least(2 * var_nodes_[v].size() + 2, kMinSiftSlots),
                   SiftSlot{kInvalidRef, 0, 0});
    for (Ref r : var_nodes_[v]) {
      sift_put(t, sift_find(t, kids_[r].lo, kids_[r].hi),
               {r, kids_[r].lo, kids_[r].hi});
    }
  }
  build_interaction_matrix(roots);

  // One Rudell pass per reorder (CUDD's CUDD_REORDER_SIFT): a further pass
  // costs about as much as the first and wins back only a few percent of
  // the nodes, and no BDD answer depends on the order.
  constexpr size_t kMaxSiftVars = 128;  // CUDD-style per-pass variable cap
  // Most-populated variables first: biggest expected gain. The subtables
  // hold exactly the live nodes of each variable. Lower-bound prune: the
  // sweep for a variable with c nodes cannot shrink the table by more than
  // c - 1 (its own level collapsing is the best case), so single-node and
  // empty variables are skipped outright instead of paying 2n swaps for a
  // provably zero gain.
  std::vector<std::pair<size_t, int>> occupancy;
  occupancy.reserve(num_vars_);
  for (int v = 0; v < num_vars_; ++v) {
    const size_t count = sift_tables_[v].used;
    if (count > 1) occupancy.emplace_back(count, v);
  }
  std::sort(occupancy.begin(), occupancy.end(),
            [](const std::pair<size_t, int>& a,
               const std::pair<size_t, int>& b) { return a.first > b.first; });
  if (occupancy.size() > kMaxSiftVars) occupancy.resize(kMaxSiftVars);
  for (const auto& [count, v] : occupancy) sift_var(v);
  [[maybe_unused]] size_t table_bytes = 0;
  for (const SiftTable& t : sift_tables_) {
    table_bytes += t.slots.capacity() * sizeof(SiftSlot);
  }
  std::vector<uint32_t>().swap(parent_count_);
  std::vector<std::vector<Ref>>().swap(var_nodes_);
  std::vector<SiftTable>().swap(sift_tables_);
  std::vector<Ref>().swap(sift_scratch_);
  std::vector<uint64_t>().swap(interact_);
#ifdef __GLIBC__
  // The subtables were many mid-sized heap blocks; hand their pages back
  // so a big sift leaves no resident residue. Below about a megabyte the
  // heap walk costs more than it returns.
  if (table_bytes >= (size_t{1} << 20)) malloc_trim(0);
#endif
}

std::vector<BddManager::Ref> BddManager::reorder(
    const std::vector<Ref>& extra_roots) {
  reorder_pending_ = false;
  // Reorder budget: a manager seeded with a previously converged order is
  // not expected to beat that order until it outgrows it, so absorb the
  // request — no GC, no sifting, refs stay valid (identity remap). The
  // growth threshold backs off exactly like the sifting path so the
  // make_node latch does not re-fire on the very next allocation.
  if (reorder_budget_ != 0 && live_nodes() <= reorder_budget_) {
    ++stats_.reorder_skipped;
    if (trace::enabled()) {
      trace::counter("bdd.reorder_skipped_budget").add(1);
    }
    reorder_threshold_ = std::max(reorder_threshold_, 2 * live_nodes());
    std::vector<Ref> identity(var_.size());
    std::iota(identity.begin(), identity.end(), 0);
    return identity;
  }
  std::vector<Ref> roots;
  for (const std::vector<Ref>* slots : external_slots_) {
    for (Ref r : *slots) {
      if (r != kInvalidRef) roots.push_back(r);
    }
  }
  for (Ref r : extra_roots) {
    if (r != kInvalidRef) roots.push_back(r);
  }
  if (roots.empty()) {
    // No known roots: collecting would drop every node. Identity no-op.
    std::vector<Ref> identity(var_.size());
    std::iota(identity.begin(), identity.end(), 0);
    return identity;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t swaps0 = stats_.sift_swaps;
  const uint64_t rewrites0 = stats_.sift_node_rewrites;
  std::vector<Ref> remap = compact_arena(roots);
  for (std::vector<Ref>* slots : external_slots_) {
    for (Ref& r : *slots) {
      if (r != kInvalidRef) r = remap[r];
    }
  }
  for (Ref& r : roots) r = remap[r];  // all live: they were the GC roots
  in_reorder_ = true;
  {
    trace::Span span("bdd.reorder");
    sift(roots);
  }
  in_reorder_ = false;
  // The build resumes right after a reorder: leave the table room to grow.
  unique_rebuild(2 * unique_fit_capacity());
  ite_cache_.assign(ite_capacity(), IteEntry{});
  ++stats_.reorder_runs;
  if (trace::enabled()) {
    trace::counter("bdd.reorder_runs").add(1);
    trace::counter("bdd.sift_swaps")
        .add(static_cast<int64_t>(stats_.sift_swaps - swaps0));
    trace::counter("bdd.sift_node_rewrites")
        .add(static_cast<int64_t>(stats_.sift_node_rewrites - rewrites0));
    trace::counter("bdd.peak_nodes", trace::CounterKind::kGauge)
        .set_max(static_cast<int64_t>(stats_.peak_nodes));
  }
  // Back off: don't re-trigger until the arena quadruples from here. A
  // monotonically growing build re-sifts O(log4 n) times instead of
  // O(log2 n); sift cost rises with table size, so halving the re-sift
  // count roughly halves total sift time while the max-growth abort in
  // sift_var still bounds the peak between runs.
  reorder_threshold_ = std::max(reorder_threshold_, 4 * live_nodes());
  stats_.reorder_time_ms += std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  return remap;
}

}  // namespace apx
