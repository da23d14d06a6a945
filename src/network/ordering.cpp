#include "network/ordering.hpp"

#include <algorithm>

#include "core/trace.hpp"

namespace apx {

std::vector<int> static_pi_order(const Network& net) {
  const std::vector<int> depth = net.levels();
  std::vector<char> seen(net.num_nodes(), 0);
  std::vector<int> order;
  order.reserve(net.num_pis());

  std::vector<NodeId> stack;
  std::vector<int> fanin_idx;  // scratch for the deepest-first fanin sort
  for (const PrimaryOutput& po : net.pos()) {
    if (po.driver == kNullNode) continue;
    stack.push_back(po.driver);
    while (!stack.empty()) {
      NodeId id = stack.back();
      stack.pop_back();
      if (seen[id]) continue;
      seen[id] = 1;
      const Node& n = net.node(id);
      if (n.kind == NodeKind::kPi) {
        order.push_back(net.pi_index(id));
        continue;
      }
      // Push fanins shallowest-first so the deepest fanin is expanded
      // first (LIFO): variables feeding long reconvergent paths surface
      // early and land near the top of the order.
      fanin_idx.assign(n.fanins.size(), 0);
      for (size_t i = 0; i < n.fanins.size(); ++i) {
        fanin_idx[i] = static_cast<int>(i);
      }
      std::stable_sort(fanin_idx.begin(), fanin_idx.end(),
                       [&](int a, int b) {
                         return depth[n.fanins[a]] < depth[n.fanins[b]];
                       });
      for (int i : fanin_idx) stack.push_back(n.fanins[i]);
    }
  }
  // PIs outside every PO cone still need a level: append them.
  for (int i = 0; i < net.num_pis(); ++i) {
    if (!seen[net.pis()[i]]) order.push_back(i);
  }
  return order;
}

namespace {

// SplitMix64 finalizer — same mixer the BDD unique table and the fault
// engine's seed derivation use; full-avalanche so positionally-combined
// fields cannot cancel.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t combine(uint64_t h, uint64_t v) { return mix64(h ^ mix64(v)); }

}  // namespace

uint64_t network_content_hash(const Network& net) {
  uint64_t h = mix64(0x417070726f784f64ULL);  // arbitrary domain tag
  h = combine(h, static_cast<uint64_t>(net.num_pis()));
  h = combine(h, static_cast<uint64_t>(net.num_nodes()));
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Node& n = net.node(id);
    h = combine(h, static_cast<uint64_t>(n.kind));
    if (n.kind == NodeKind::kPi) {
      h = combine(h, static_cast<uint64_t>(net.pi_index(id)));
      continue;
    }
    for (NodeId f : n.fanins) h = combine(h, static_cast<uint64_t>(f));
    h = combine(h, static_cast<uint64_t>(n.sop.num_cubes()));
    for (const Cube& c : n.sop.cubes()) {
      for (int v = 0; v < c.num_vars(); ++v) {
        h = combine(h, static_cast<uint64_t>(c.get(v)) + 1);
      }
    }
  }
  for (const PrimaryOutput& po : net.pos()) {
    h = combine(h, static_cast<uint64_t>(po.driver));
  }
  return h;
}

OrderCache& OrderCache::instance() {
  static OrderCache cache;
  return cache;
}

void OrderCache::touch_locked(Entry& e, uint64_t key) {
  if (e.lru_it != lru_.begin()) {
    lru_.erase(e.lru_it);
    lru_.push_front(key);
    e.lru_it = lru_.begin();
  }
}

void OrderCache::enforce_cap_locked() {
  static trace::Counter& evictions =
      trace::counter("bdd.order_cache_evictions");
  while (map_.size() > max_entries_) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
    evictions.add(1);
  }
}

OrderCache::Entry& OrderCache::entry_locked(uint64_t key) {
  auto [it, inserted] = map_.try_emplace(key);
  if (inserted) {
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
  } else {
    touch_locked(it->second, key);
  }
  return it->second;
}

std::optional<CachedOrder> OrderCache::lookup(uint64_t key, int num_pis) {
  static trace::Counter& hits = trace::counter("bdd.order_cache_hits");
  static trace::Counter& misses = trace::counter("bdd.order_cache_misses");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.order.has_value() ||
      it->second.order->level_to_var.size() != static_cast<size_t>(num_pis)) {
    ++stats_.misses;
    misses.add(1);
    return std::nullopt;
  }
  ++stats_.hits;
  hits.add(1);
  touch_locked(it->second, key);
  return it->second.order;
}

void OrderCache::store(uint64_t key, CachedOrder entry) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_locked(key);
  // Keep-best: replace only when the candidate converged strictly smaller.
  // First-write-wins otherwise, so concurrent workers racing to store the
  // same circuit cannot flip-flop the entry.
  if (!e.order.has_value() ||
      (entry.converged_live > 0 &&
       entry.converged_live < e.order->converged_live)) {
    e.order = std::move(entry);
    ++stats_.stores;
  } else {
    ++stats_.stores_rejected;
  }
  enforce_cap_locked();
}

void OrderCache::record_overflow(uint64_t key, size_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_locked(key);
  e.overflow_budget = std::max(e.overflow_budget, budget);
  enforce_cap_locked();
}

bool OrderCache::known_overflow(uint64_t key, size_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.order.has_value() ||
      it->second.overflow_budget < budget) {
    return false;
  }
  touch_locked(it->second, key);
  ++stats_.overflow_hits;
  return true;
}

void OrderCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  max_entries_ = kDefaultMaxEntries;
  stats_ = Stats{};
}

void OrderCache::set_max_entries(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_entries_ = n < 1 ? 1 : n;
  enforce_cap_locked();
}

size_t OrderCache::max_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_entries_;
}

OrderCache::Stats OrderCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t OrderCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<int> cached_or_static_order(const Network& net, uint64_t* key_out,
                                        size_t* reorder_budget_out) {
  const uint64_t key = network_content_hash(net);
  if (key_out != nullptr) *key_out = key;
  if (std::optional<CachedOrder> hit =
          OrderCache::instance().lookup(key, net.num_pis())) {
    if (reorder_budget_out != nullptr) {
      *reorder_budget_out = 2 * hit->converged_live;
    }
    return std::move(hit->level_to_var);
  }
  return static_pi_order(net);
}

}  // namespace apx
