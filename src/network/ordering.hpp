// Structural BDD variable-ordering heuristics over a Network, plus the
// process-wide cache of *converged* orders.
//
// The quality of a BDD variable order dominates both peak node count and
// build time (often exponentially: a ripple-carry adder is linear under an
// interleaved order and exponential under the "all a's then all b's" PI
// order). static_pi_order computes the classic Malik/Fujita-style order:
// an interleaved depth-first traversal of the PO fanin cones, appending
// each primary input the first time the walk reaches it, with fanins
// visited deepest-first so the variables feeding long paths end up near
// the top of the order. The result seeds BddManager's permutation layer;
// sifting (BddManager::reorder) refines it dynamically.
//
// Sifting is expensive — before the OrderCache it was ~98% of pipeline
// wall time, because the synthesis flow rebuilds BDDs for the same cones
// over and over (the repair loop refreshes the oracle 13+ times per
// circuit, and the screening/percentage sweeps spin up private per-chunk
// oracles over the same network pair). An order that sifting already
// converged on for a given circuit is just as good the next time that
// circuit's cones are built, so OrderCache memoizes it process-wide,
// keyed by a content hash of the network. Consumers (ApproxOracle,
// NetworkBdds) seed fresh managers from the cache and arm the manager's
// reorder budget with the recorded converged size, so a seeded build
// skips sifting entirely unless it grows well past what the converged
// order achieved.
//
// Determinism: a cached order can never change any BDD *answer* — every
// query (implies, sat_fraction, evaluate) is exact under any variable
// order — so sharing the cache across task-pool workers preserves the
// bit-identity contract of ALGORITHM.md §8 regardless of which worker
// stores first. The store policy (first entry wins unless a later one
// converged strictly smaller) keeps the cache contents stable anyway.
// Staleness is handled by construction: the key is a hash of the network
// CONTENT, so any mutation — including structural ones that bump
// Network::structure_version() — produces a different key and misses.
//
// The cache also remembers networks whose cold build overflowed the BDD
// node budget. A cold build starts from the static order and is
// deterministic, and its node counts do not depend on the budget, so it
// overflows again at any budget no larger. A later consumer can then skip
// the build (and its sifting) and go straight to its fallback.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "network/network.hpp"

namespace apx {

/// Returns a permutation of the PI indices: position l holds the PI index
/// placed at BDD level l (level 0 = top of the order). PIs outside every
/// PO cone are appended at the bottom. Deterministic for a given network.
std::vector<int> static_pi_order(const Network& net);

/// Stable content hash of a network: PIs, every node's kind/fanins/SOP
/// cubes, and the PO drivers, splitmix-mixed position by position. Two
/// networks with identical construction-order content collide on purpose
/// (that is the cache hit); any mutation — local SOP rewrite or structural
/// change — moves the hash. Never hashes addresses, so the value is stable
/// across runs and processes.
uint64_t network_content_hash(const Network& net);

/// A variable order that sifting converged on, plus the live-node count
/// the converged build ended at (the basis for the reorder budget: a
/// seeded rebuild should not pay for sifting again until it exceeds a
/// multiple of this).
struct CachedOrder {
  std::vector<int> level_to_var;
  size_t converged_live = 0;
};

/// Process-wide map from network content hash to converged variable
/// order. Thread-safe; shared by every oracle and cone builder in the
/// process (including all task-pool workers).
///
/// Bounded: the cache holds at most `max_entries()` orders and evicts the
/// least-recently-used one past the cap (content hashes are ephemeral —
/// every approximation round produces a new key, so an unbounded map grows
/// with pipeline length). Eviction can only cost a later re-sift (a miss);
/// it can never change a BDD answer, so the bit-identity contract is
/// unaffected by cache pressure.
class OrderCache {
 public:
  /// Default LRU capacity. An entry is one PI permutation (a few hundred
  /// bytes), so the default bounds the cache near a megabyte while still
  /// covering every distinct cone a long repair campaign touches.
  static constexpr size_t kDefaultMaxEntries = 1024;

  static OrderCache& instance();

  /// Returns the cached order for `key` when present AND sized for
  /// `num_pis` variables (a width mismatch would be a hash collision
  /// across different circuits; treated as a miss). Counts a hit or miss
  /// in both the internal stats and the `bdd.order_cache_hits/misses`
  /// trace counters.
  std::optional<CachedOrder> lookup(uint64_t key, int num_pis);

  /// Records a converged order. First write wins unless `entry` converged
  /// strictly smaller than the stored one (keep-best), so repeated
  /// rebuilds of an evolving approximation cannot churn the entry.
  void store(uint64_t key, CachedOrder entry);

  /// Records that a cold build of `key` (static order, no cached order)
  /// overflowed a node budget of `budget`. Keeps the largest such budget.
  void record_overflow(uint64_t key, size_t budget);

  /// True when a cold build of `key` is known to overflow `budget`: an
  /// overflow was recorded at a budget at least this large and no order
  /// has been stored for the key since. Counts an overflow hit.
  bool known_overflow(uint64_t key, size_t budget);

  /// Drops every entry and zeroes the stats (tests, bench cold-runs).
  /// Restores the default capacity.
  void clear();

  /// Caps the cache at `n` entries (n >= 1), evicting LRU entries
  /// immediately if it is already over. Tests use tiny caps to exercise
  /// the eviction path.
  void set_max_entries(size_t n);
  size_t max_entries() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;           ///< entries inserted or improved
    uint64_t stores_rejected = 0;  ///< keep-best kept the existing entry
    uint64_t evictions = 0;        ///< entries dropped by the LRU cap
    uint64_t overflow_hits = 0;    ///< known_overflow() answered true
  };
  Stats stats() const;
  size_t size() const;

 private:
  OrderCache() = default;

  struct Entry {
    std::optional<CachedOrder> order;  // empty: only an overflow is known
    size_t overflow_budget = 0;        // largest budget a cold build overflowed
    std::list<uint64_t>::iterator lru_it;  // position in lru_
  };

  /// Finds or inserts `key`'s entry and marks it most recently used.
  /// Caller holds mu_ and calls enforce_cap_locked() once done with it.
  Entry& entry_locked(uint64_t key);
  /// Moves `key` to the most-recent end. Caller holds mu_.
  void touch_locked(Entry& e, uint64_t key);
  /// Evicts LRU entries until size() <= max_entries_. Caller holds mu_.
  void enforce_cap_locked();

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
  std::list<uint64_t> lru_;  // front = most recently used
  size_t max_entries_ = kDefaultMaxEntries;
  Stats stats_;
};

/// Cache-aware seed order for a BDD manager over `net`'s PIs: the cached
/// converged order on a hit, static_pi_order on a miss. `key_out` always
/// receives the content hash (for the caller's later store); on a hit
/// `reorder_budget_out` receives 2x the recorded converged live-node
/// count (pass to BddManager::set_reorder_budget so the seeded build
/// skips sifting until it outgrows the converged order), on a miss it is
/// left at 0 (no budget: cold builds sift as before).
std::vector<int> cached_or_static_order(const Network& net, uint64_t* key_out,
                                        size_t* reorder_budget_out);

}  // namespace apx
