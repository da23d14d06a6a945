// Order-invariance and dynamic-reordering tests for the BDD manager's
// permutation layer (bdd.hpp): every query — evaluate, sat_count, implies,
// boolean_difference — must be bit-identical whether the manager runs the
// identity order, a random permutation, the structural static order
// (network/ordering.hpp), or sifts dynamically mid-build. The independent
// reference is the truth-table engine (src/tt), composed over the network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/network_bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "core/verify.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "network/blif.hpp"
#include "network/ordering.hpp"
#include "reliability/reliability.hpp"
#include "tt/truth_table.hpp"

namespace apx {
namespace {

Network random_network(std::mt19937& rng, int pis, int gates) {
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) {
    pool.push_back(net.add_pi("p" + std::to_string(i)));
  }
  for (int g = 0; g < gates; ++g) {
    NodeId a = pool[rng() % pool.size()];
    NodeId b = pool[rng() % pool.size()];
    switch (rng() % 4) {
      case 0:
        pool.push_back(net.add_and(a, b));
        break;
      case 1:
        pool.push_back(net.add_or(a, b));
        break;
      case 2:
        pool.push_back(net.add_xor(a, b));
        break;
      case 3:
        pool.push_back(net.add_not(a));
        break;
    }
  }
  net.add_po("f", pool.back());
  net.add_po("g", pool[pool.size() / 2]);
  return net;
}

// Global truth table of every node, composed bottom-up with the tt engine
// (independent of the BDD package: different recursion, different memo).
std::vector<TruthTable> global_tables(const Network& net) {
  const int n = net.num_pis();
  std::vector<TruthTable> tt(net.num_nodes(), TruthTable::zeros(n));
  for (NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    switch (node.kind) {
      case NodeKind::kConst0:
        tt[id] = TruthTable::zeros(n);
        break;
      case NodeKind::kConst1:
        tt[id] = TruthTable::ones(n);
        break;
      case NodeKind::kPi:
        tt[id] = TruthTable::variable(n, net.pi_index(id));
        break;
      case NodeKind::kLogic: {
        TruthTable acc = TruthTable::zeros(n);
        for (const Cube& c : node.sop.cubes()) {
          TruthTable cube_tt = TruthTable::ones(n);
          for (int v = 0; v < c.num_vars(); ++v) {
            LitCode code = c.get(v);
            if (code == LitCode::kFree) continue;
            const TruthTable& fanin = tt[node.fanins[v]];
            cube_tt &= (code == LitCode::kPos) ? fanin : ~fanin;
          }
          acc |= cube_tt;
        }
        tt[id] = acc;
        break;
      }
    }
  }
  return tt;
}

double tt_count(const TruthTable& t) {
  double count = 0.0;
  for (uint64_t m = 0; m < (uint64_t{1} << t.num_vars()); ++m) {
    count += t.get(m) ? 1.0 : 0.0;
  }
  return count;
}

std::vector<int> random_order(int n, uint32_t seed) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

// One manager configuration under test: an explicit level_to_var order
// plus optionally forced sifting (tiny trigger threshold) mid-build.
struct OrderConfig {
  const char* name;
  std::vector<int> order;
  bool sift;
};

// Builds both PO cones under `cfg` and checks every query against the
// truth-table reference. Exercises the cooperative reorder path exactly
// the way NetworkBdds/ApproxOracle do (registered refs + polling).
void check_config(const Network& net, const std::vector<TruthTable>& tt,
                  const OrderConfig& cfg) {
  const int n = net.num_pis();
  BddManager mgr(n, 1u << 20, cfg.order);
  mgr.set_auto_reorder(cfg.sift);
  if (cfg.sift) mgr.set_reorder_threshold(48);

  std::vector<BddManager::Ref> po(net.num_pos(), BddManager::kInvalidRef);
  mgr.register_external_refs(&po);
  for (int i = 0; i < net.num_pos(); ++i) {
    auto ref = build_po_bdd(mgr, net, i);
    ASSERT_TRUE(ref.has_value()) << cfg.name;
    po[i] = *ref;
  }
  if (cfg.sift) {
    mgr.reorder();  // settle: refs in `po` are rewritten in place
    EXPECT_FALSE(mgr.reorder_pending());
  }

  // The permutation layer must remain a permutation whatever sifting did.
  std::vector<char> seen(n, 0);
  for (int l = 0; l < n; ++l) {
    int v = mgr.var_at_level(l);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    EXPECT_EQ(mgr.level_of_var(v), l) << cfg.name;
    EXPECT_FALSE(seen[v]) << cfg.name;
    seen[v] = 1;
  }

  for (int i = 0; i < net.num_pos(); ++i) {
    const TruthTable& ref_tt = tt[net.pos()[i].driver];
    for (uint64_t m = 0; m < (uint64_t{1} << n); ++m) {
      ASSERT_EQ(mgr.evaluate(po[i], m), ref_tt.get(m))
          << cfg.name << " po " << i << " minterm " << m;
    }
    // Counting and Boolean difference go through sat_fraction/cofactor,
    // which recurse by level: exact equality, not approximate.
    EXPECT_EQ(mgr.sat_count(po[i]), tt_count(ref_tt)) << cfg.name;
    for (int v = 0; v < n; ++v) {
      BddManager::Ref diff = mgr.boolean_difference(po[i], v);
      EXPECT_EQ(mgr.sat_count(diff), tt_count(ref_tt.boolean_difference(v)))
          << cfg.name << " po " << i << " var " << v;
    }
  }
  const TruthTable& f = tt[net.pos()[0].driver];
  const TruthTable& g = tt[net.pos()[1].driver];
  EXPECT_EQ(mgr.implies(po[0], po[1]), (f & ~g) == TruthTable::zeros(n))
      << cfg.name;
  mgr.unregister_external_refs(&po);
}

class BddOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddOrderProperty, QueriesInvariantUnderOrdering) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const int pis = 6 + static_cast<int>(rng() % 5);  // 6..10 PIs
    Network net = random_network(rng, pis, 28);
    std::vector<TruthTable> tt = global_tables(net);
    std::vector<OrderConfig> configs;
    configs.push_back({"identity", {}, false});
    configs.push_back({"static", static_pi_order(net), false});
    configs.push_back({"random-a", random_order(pis, GetParam() * 31 + trial), false});
    configs.push_back({"random-b", random_order(pis, GetParam() * 57 + trial), false});
    configs.push_back({"identity+sift", {}, true});
    configs.push_back({"static+sift", static_pi_order(net), true});
    for (const OrderConfig& cfg : configs) check_config(net, tt, cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddOrderProperty,
                         ::testing::Values(3, 17, 29, 71));

// Sifting keeps every externally held Ref valid: adjacent-level swaps are
// in place, and the GC phase rewrites registered vectors through the
// remap. Hold the full node-BDD vector of a comparator (the classic
// order-sensitive function), force repeated reorders, and re-check every
// node function after each one.
TEST(BddSifting, RefsSurviveRepeatedReorders) {
  Network net = make_comparator(6);  // 12 PIs, separated (bad) PI order
  std::vector<TruthTable> tt = global_tables(net);
  BddManager mgr(net.num_pis(), 1u << 20);  // identity order
  mgr.set_auto_reorder(false);

  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);

  const size_t natural_size = mgr.live_nodes();
  for (int round = 0; round < 3; ++round) {
    mgr.reorder();
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (refs[id] == kNoBddRef) continue;
      for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); m += 7) {
        ASSERT_EQ(mgr.evaluate(refs[id], m), tt[id].get(m))
            << "round " << round << " node " << id << " minterm " << m;
      }
    }
  }
  // The separated order is exponentially bad for a comparator; sifting
  // must find a materially smaller (interleaved-like) order.
  EXPECT_LT(mgr.live_nodes(), natural_size);
  EXPECT_GE(mgr.stats().reorder_runs, 3u);
  mgr.unregister_external_refs(&refs);
}

// Unregistered callers get the GC remap back from reorder() and must be
// able to chase their refs through it (garbage_collect contract).
TEST(BddSifting, ReorderRemapCoversExtraRoots) {
  Network net = make_comparator(4);
  std::vector<TruthTable> tt = global_tables(net);
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(false);

  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);

  std::vector<BddManager::Ref> remap = mgr.reorder(refs);  // not registered
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (refs[id] == kNoBddRef) continue;
    BddManager::Ref moved = remap[refs[id]];
    ASSERT_NE(moved, BddManager::kInvalidRef);
    for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); ++m) {
      ASSERT_EQ(mgr.evaluate(moved, m), tt[id].get(m));
    }
  }
}

// With no registered vectors and no extras, reorder() must not collect
// the arena out from under the caller: identity map, nothing freed.
TEST(BddSifting, ReorderWithoutRootsIsIdentity) {
  BddManager mgr(4);
  BddManager::Ref f = mgr.bdd_and(mgr.var(0), mgr.var(2));
  size_t before = mgr.live_nodes();
  std::vector<BddManager::Ref> remap = mgr.reorder();
  EXPECT_EQ(mgr.live_nodes(), before);
  EXPECT_EQ(remap[f], f);
  EXPECT_TRUE(mgr.evaluate(f, 0b0101));
}

// make_node only latches the trigger; reorder() clears it, shrinks the
// comparator, and backs the threshold off so it cannot thrash.
TEST(BddSifting, AutoTriggerLatchesAndClears) {
  Network net = make_comparator(8);  // 16 PIs: identity order blows up
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(true);
  mgr.set_reorder_threshold(128);

  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  // build_cone_bdds polls the latch and reorders internally; afterwards
  // the latch must be clear and at least one sift must have run.
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  EXPECT_FALSE(mgr.reorder_pending());
  EXPECT_GE(mgr.stats().reorder_runs, 1u);

  // Spot-check the comparator functions (a == b and a > b on 8+8 bits).
  std::mt19937 rng(99);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng() % 256, b = rng() % 256;
    uint64_t input = a | (b << 8);
    EXPECT_EQ(mgr.evaluate(refs[roots[0]], input), a == b);
    EXPECT_EQ(mgr.evaluate(refs[roots[1]], input), a > b);
  }
}

// The static structural order alone (no sifting) must already beat the
// separated identity order on the comparator: interleaving is the known
// linear-size order for it.
TEST(BddOrdering, StaticOrderBeatsIdentityOnComparator) {
  Network net = make_comparator(8);
  size_t identity_size, static_size;
  {
    BddManager mgr(net.num_pis(), 1u << 20);
    mgr.set_auto_reorder(false);
    auto f = build_po_bdd(mgr, net, 1);
    ASSERT_TRUE(f.has_value());
    identity_size = mgr.size(*f);
  }
  {
    BddManager mgr(net.num_pis(), 1u << 20, static_pi_order(net));
    mgr.set_auto_reorder(false);
    auto f = build_po_bdd(mgr, net, 1);
    ASSERT_TRUE(f.has_value());
    static_size = mgr.size(*f);
  }
  EXPECT_LT(static_size * 4, identity_size);
}

// Regression (ISSUE 6 satellite): set_reorder_threshold must re-evaluate
// the latched request against the new threshold. Raising it above the
// current live count clears a pending reorder instead of forcing a
// spurious full sift at the next safe point; lowering it below the live
// count latches one without waiting for another make_node.
TEST(BddSifting, SetReorderThresholdReevaluatesLatch) {
  Network net = make_comparator(4);
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(true);
  mgr.set_reorder_threshold(16);

  // Build WITHOUT polling the latch so it stays pending.
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  mgr.set_auto_reorder(false);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.set_auto_reorder(true);
  mgr.set_reorder_threshold(16);  // live >> 16: latches immediately
  ASSERT_TRUE(mgr.reorder_pending());

  // Raising the threshold above the live count must clear the latch...
  mgr.set_reorder_threshold(2 * mgr.live_nodes());
  EXPECT_FALSE(mgr.reorder_pending());
  // ...and lowering it back below must re-latch.
  mgr.set_reorder_threshold(mgr.live_nodes() / 2);
  EXPECT_TRUE(mgr.reorder_pending());
  mgr.set_reorder_threshold(2 * mgr.live_nodes());
  EXPECT_FALSE(mgr.reorder_pending());
  EXPECT_EQ(mgr.stats().reorder_runs, 0u);  // latch games never sifted
}

// Regression (ISSUE 6 satellite): the sifting convergence check used a
// `prev / 50` tolerance, which is 0 for tables under 50 nodes — the pass
// loop then compared with zero slack instead of requiring a real gain.
// On a small, already-optimal table sifting must converge (single pass,
// no size growth, functions intact).
TEST(BddSifting, SmallTableConvergence) {
  Network net = make_comparator(2);  // 4 PIs: well under 50 nodes
  std::vector<TruthTable> tt = global_tables(net);
  BddManager mgr(net.num_pis(), 1u << 20);
  mgr.set_auto_reorder(false);
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);
  ASSERT_LT(mgr.live_nodes(), 50u);

  const size_t before = mgr.live_nodes();
  mgr.reorder();  // converges; the old zero-tolerance check is the bug
  EXPECT_LE(mgr.live_nodes(), before);
  EXPECT_EQ(mgr.stats().reorder_runs, 1u);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (refs[id] == kNoBddRef) continue;
    for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); ++m) {
      ASSERT_EQ(mgr.evaluate(refs[id], m), tt[id].get(m));
    }
  }
  mgr.unregister_external_refs(&refs);
}

// export_order round-trips through seed_order: a fresh manager seeded with
// a sifted manager's order carries the identical permutation.
TEST(BddOrdering, ExportSeedOrderRoundTrip) {
  Network net = make_comparator(6);
  BddManager mgr(net.num_pis(), 1u << 20, static_pi_order(net));
  mgr.set_auto_reorder(false);
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);
  mgr.reorder();
  std::vector<int> order = mgr.export_order();
  ASSERT_EQ(order.size(), static_cast<size_t>(net.num_pis()));
  mgr.unregister_external_refs(&refs);

  BddManager seeded(net.num_pis(), 1u << 20);
  seeded.seed_order(order);
  for (int l = 0; l < net.num_pis(); ++l) {
    EXPECT_EQ(seeded.var_at_level(l), mgr.var_at_level(l));
  }

  // Seeding is only legal before any internal node exists.
  BddManager dirty(net.num_pis(), 1u << 20);
  dirty.bdd_and(dirty.var(0), dirty.var(1));
  EXPECT_THROW(dirty.seed_order(order), std::logic_error);
  // And the permutation itself is validated.
  std::vector<int> bogus(net.num_pis(), 0);
  BddManager empty(net.num_pis(), 1u << 20);
  EXPECT_THROW(empty.seed_order(bogus), std::logic_error);
}

// The reorder budget absorbs requests while the arena stays at or below
// the budget: no sift, refs untouched, identity remap, and the skip is
// counted. Outgrowing the budget sifts as usual.
TEST(BddSifting, ReorderBudgetAbsorbsRequests) {
  Network net = make_comparator(6);
  BddManager mgr(net.num_pis(), 1u << 20, static_pi_order(net));
  mgr.set_auto_reorder(false);
  std::vector<NodeId> roots;
  for (const PrimaryOutput& p : net.pos()) roots.push_back(p.driver);
  std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
  mgr.register_external_refs(&refs);

  mgr.set_reorder_budget(2 * mgr.live_nodes());
  std::vector<BddManager::Ref> before = refs;
  std::vector<BddManager::Ref> remap = mgr.reorder();
  EXPECT_EQ(mgr.stats().reorder_runs, 0u);
  EXPECT_EQ(mgr.stats().reorder_skipped, 1u);
  EXPECT_EQ(refs, before);  // identity: nothing moved
  for (BddManager::Ref r : before) {
    if (r != kNoBddRef) EXPECT_EQ(remap[r], r);
  }

  // Below-budget arena: a second request is absorbed too.
  mgr.reorder();
  EXPECT_EQ(mgr.stats().reorder_skipped, 2u);

  // Disarm the budget: the same request now really sifts.
  mgr.set_reorder_budget(0);
  mgr.reorder();
  EXPECT_EQ(mgr.stats().reorder_runs, 1u);
  mgr.unregister_external_refs(&refs);
}

// Seeding a converged order through the OrderCache must reproduce the
// cold-sift results bit-for-bit: same permutation, same query answers.
// This is the cache analogue of QueriesInvariantUnderOrdering — stronger,
// because the seeded manager must also skip re-sifting (budget armed).
TEST(OrderCacheTest, SeededOrderMatchesColdSift) {
  OrderCache::instance().clear();
  Network net = make_comparator(6);
  std::vector<TruthTable> tt = global_tables(net);

  // Cold build: miss, sift, store.
  std::vector<double> cold_counts;
  std::vector<int> cold_order;
  {
    NetworkBdds bdds(net);
    cold_order = bdds.manager().export_order();
    for (int po = 0; po < net.num_pos(); ++po) {
      cold_counts.push_back(bdds.manager().sat_count(bdds.po_ref(po)));
    }
  }
  ASSERT_GE(OrderCache::instance().stats().misses, 1u);
  ASSERT_GE(OrderCache::instance().stats().stores, 1u);

  // Warm rebuilds: hit, seeded, identical answers and order every time.
  for (int round = 0; round < 3; ++round) {
    uint64_t hits_before = OrderCache::instance().stats().hits;
    NetworkBdds bdds(net);
    EXPECT_GT(OrderCache::instance().stats().hits, hits_before);
    EXPECT_EQ(bdds.manager().export_order(), cold_order);
    for (int po = 0; po < net.num_pos(); ++po) {
      EXPECT_EQ(bdds.manager().sat_count(bdds.po_ref(po)),
                cold_counts[po]);
      const TruthTable& ref_tt = tt[net.pos()[po].driver];
      for (uint64_t m = 0; m < (uint64_t{1} << net.num_pis()); m += 5) {
        ASSERT_EQ(bdds.manager().evaluate(bdds.po_ref(po), m),
                  ref_tt.get(m));
      }
    }
  }
  OrderCache::instance().clear();
}

// Content-hash staleness: any mutation — a local SOP rewrite or a
// structural rewiring — moves the hash, so a stale converged order is
// unreachable by construction (the mutated network misses and re-sifts).
TEST(OrderCacheTest, MutationMovesContentHash) {
  Network net = make_comparator(4);
  Network clone = net;
  EXPECT_EQ(network_content_hash(net), network_content_hash(clone));

  // Local function change (bumps version, not structure_version).
  NodeId node = kNullNode;
  for (NodeId id = 0; id < clone.num_nodes(); ++id) {
    if (clone.node(id).kind == NodeKind::kLogic) {
      node = id;
      break;
    }
  }
  ASSERT_NE(node, kNullNode);
  uint64_t sv_before = clone.structure_version();
  clone.set_sop(node, Sop::zero(clone.node(node).sop.num_vars()));
  EXPECT_EQ(clone.structure_version(), sv_before);
  EXPECT_NE(network_content_hash(net), network_content_hash(clone));

  // Structural change (bumps structure_version): also moves the hash.
  Network clone2 = net;
  NodeId a = clone2.pis()[0];
  NodeId b = clone2.pis()[1];
  clone2.set_function(node, {a, b}, *Sop::parse(2, "11"));
  EXPECT_GT(clone2.structure_version(), net.structure_version());
  EXPECT_NE(network_content_hash(net), network_content_hash(clone2));
}

// Cache mechanics: width-mismatched hits are misses (hash-collision
// guard), keep-best stores prefer strictly smaller converged sizes, and
// clear() really empties.
TEST(OrderCacheTest, StorePolicyAndCollisionGuard) {
  OrderCache& cache = OrderCache::instance();
  cache.clear();
  const uint64_t key = 0xABCDEF;
  cache.store(key, {{1, 0, 2}, 100});
  ASSERT_TRUE(cache.lookup(key, 3).has_value());
  EXPECT_FALSE(cache.lookup(key, 4).has_value()) << "width mismatch = miss";

  cache.store(key, {{0, 1, 2}, 200});  // worse: rejected
  EXPECT_EQ(cache.lookup(key, 3)->converged_live, 100u);
  cache.store(key, {{2, 1, 0}, 50});  // better: replaces
  EXPECT_EQ(cache.lookup(key, 3)->converged_live, 50u);
  EXPECT_EQ(cache.lookup(key, 3)->level_to_var, (std::vector<int>{2, 1, 0}));
  EXPECT_GE(cache.stats().stores_rejected, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key, 3).has_value());
  cache.clear();
}

// The LRU cap bounds the process-wide cache: stores past the cap evict the
// least-recently-used entry (lookups and re-stores refresh recency), the
// eviction counter advances, and clear() restores the default capacity.
TEST(OrderCacheTest, LruCapEvictsLeastRecentlyUsed) {
  OrderCache& cache = OrderCache::instance();
  cache.clear();
  EXPECT_EQ(cache.max_entries(), OrderCache::kDefaultMaxEntries);
  cache.set_max_entries(3);
  cache.store(1, {{0}, 10});
  cache.store(2, {{0}, 10});
  cache.store(3, {{0}, 10});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  ASSERT_TRUE(cache.lookup(1, 1).has_value());  // 1 is now most recent
  cache.store(4, {{0}, 10});                    // evicts LRU = 2
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(2, 1).has_value());
  EXPECT_TRUE(cache.lookup(1, 1).has_value());
  EXPECT_TRUE(cache.lookup(3, 1).has_value());
  EXPECT_TRUE(cache.lookup(4, 1).has_value());

  // A keep-best-rejected re-store still refreshes recency: the lookups
  // above (1, then 3, then 4) left 1 least-recent; re-storing 1 touches
  // it, so the next overflow must evict 3 instead.
  cache.store(1, {{0}, 99});  // rejected (worse), but touches
  cache.store(5, {{0}, 10});  // evicts LRU = 3
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.lookup(3, 1).has_value());
  EXPECT_TRUE(cache.lookup(1, 1).has_value());

  // Shrinking the cap below the current size evicts immediately.
  cache.set_max_entries(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 4u);

  cache.clear();
  EXPECT_EQ(cache.max_entries(), OrderCache::kDefaultMaxEntries);
}

// static_pi_order is a permutation of the PI indices for every benchmark
// circuit (the BddManager constructor asserts this too, but a direct test
// localizes failures to the heuristic).
TEST(BddOrdering, StaticOrderIsPermutation) {
  for (const std::string& name : benchmark_names()) {
    Network net = make_benchmark(name);
    std::vector<int> order = static_pi_order(net);
    ASSERT_EQ(order.size(), static_cast<size_t>(net.num_pis())) << name;
    std::vector<char> seen(net.num_pis(), 0);
    for (int v : order) {
      ASSERT_GE(v, 0) << name;
      ASSERT_LT(v, net.num_pis()) << name;
      EXPECT_FALSE(seen[v]) << name;
      seen[v] = 1;
    }
  }
}

// ---- order independence of approximate synthesis ----
//
// The oracle's answers (implication checks and minterm fractions) are
// exact under any variable order, so approximate synthesis must not depend
// on where sifting leaves the order. Each suite circuit is synthesized
// from a cold cache (the oracles sift) and from the unsifted static order
// (seeded with a reorder budget no build reaches, so no oracle sifts), and
// everything the flow reports must agree bit for bit. This is what lets
// the sifting policy, and the pinned orders below, change without moving
// a quality number.
TEST(BddOrderIndependence, SynthesisMatchesUnsiftedStaticOrder) {
  for (const char* name : {"cmb", "cordic", "term1", "x1", "i2"}) {
    SCOPED_TRACE(name);
    const Network opt = quick_synthesis(make_benchmark(name));
    ReliabilityOptions rel;
    rel.num_fault_samples = 2000;
    const std::vector<ApproxDirection> dirs =
        choose_directions(analyze_reliability(technology_map(opt), rel));
    ApproxOptions options;
    options.significance_threshold = 0.2;

    OrderCache::instance().clear();
    const ApproxResult sifted = synthesize_approximation(opt, dirs, options);
    OrderCache::instance().clear();
    OrderCache::instance().store(network_content_hash(opt),
                                 {static_pi_order(opt), size_t{1} << 40});
    const ApproxResult unsifted = synthesize_approximation(opt, dirs, options);

    EXPECT_EQ(network_content_hash(sifted.approx),
              network_content_hash(unsifted.approx));
    EXPECT_EQ(sifted.repairs, unsifted.repairs);
    ASSERT_EQ(sifted.po_stats.size(), unsifted.po_stats.size());
    for (size_t o = 0; o < sifted.po_stats.size(); ++o) {
      const PoApproxStats& a = sifted.po_stats[o];
      const PoApproxStats& b = unsifted.po_stats[o];
      EXPECT_EQ(a.direction, b.direction) << "PO " << o;
      EXPECT_EQ(a.verified, b.verified) << "PO " << o;
      EXPECT_EQ(std::memcmp(&a.approximation_pct, &b.approximation_pct,
                            sizeof(double)),
                0)
          << "PO " << o << ": " << a.approximation_pct << " vs "
          << b.approximation_pct;
    }
  }
  OrderCache::instance().clear();
}

// ---- pinned cold orders ----
//
// Sifting decisions depend on live-node counts and on the ranking of the
// variables by live node count, so a faster swap kernel must walk the
// exact same trajectory. The pins below hold the order hash and live count
// after every reorder() of a cold build, plus the end state, under the
// one-pass sifting policy (one Rudell pass per reorder). A policy change
// moves them; BddOrderIndependence above shows that no synthesis result
// depends on the order, so such a change re-pins these points.

// FNV-1a over the level_to_var permutation.
uint64_t order_hash(const std::vector<int>& order) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int v : order) {
    h ^= static_cast<uint32_t>(v);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct OrderPoint {
  uint64_t order_hash;
  size_t live_nodes;
  bool operator==(const OrderPoint& o) const {
    return order_hash == o.order_hash && live_nodes == o.live_nodes;
  }
};

void PrintTo(const OrderPoint& p, std::ostream* os) {
  *os << "{0x" << std::hex << p.order_hash << std::dec << ", " << p.live_nodes
      << "}";
}

OrderPoint snapshot(const BddManager& mgr) {
  return {order_hash(mgr.export_order()), mgr.live_nodes()};
}

Network load_cedbench_input(const std::string& name) {
  return read_blif_file(std::string(APX_REPO_ROOT) + "/cedbench/inputs/" +
                        name + ".blif");
}

// Builds the BDD of every node of `order` (topological) the way NetworkBdds
// and build_cone_bdds do, polling the reorder latch after each node, and
// records the order and live count after every reorder(). Unregistered
// `refs` ride the reorder as extra roots and are remapped by hand.
void sweep_recording(BddManager& mgr, const Network& net,
                     const std::vector<NodeId>& order, bool registered,
                     std::vector<BddManager::Ref>& refs,
                     std::vector<OrderPoint>& points) {
  std::vector<BddManager::Ref> fanin_refs;
  for (NodeId id : order) {
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kConst0) refs[id] = mgr.zero();
    if (n.kind == NodeKind::kConst1) refs[id] = mgr.one();
    if (n.kind == NodeKind::kLogic) {
      fanin_refs.clear();
      for (NodeId f : n.fanins) fanin_refs.push_back(refs[f]);
      refs[id] = eval_sop_bdd(mgr, n.sop, fanin_refs);
    }
    if (!mgr.reorder_pending()) continue;
    if (registered) {
      mgr.reorder();
    } else {
      std::vector<BddManager::Ref> remap = mgr.reorder(refs);
      for (BddManager::Ref& r : refs) {
        if (r != kNoBddRef) r = remap[r];
      }
    }
    points.push_back(snapshot(mgr));
  }
}

std::vector<BddManager::Ref> pi_refs(BddManager& mgr, const Network& net) {
  std::vector<BddManager::Ref> refs(net.num_nodes(), kNoBddRef);
  for (int i = 0; i < net.num_pis(); ++i) refs[net.pis()[i]] = mgr.var(i);
  return refs;
}

// NetworkBdds' cold build (static order, every node in topological order,
// refs registered). The last point is the state after the build.
std::vector<OrderPoint> replay_network_bdds(const Network& net) {
  BddManager mgr(net.num_pis(), 8u << 20, static_pi_order(net));
  std::vector<BddManager::Ref> refs = pi_refs(mgr, net);
  mgr.register_external_refs(&refs);
  std::vector<OrderPoint> points;
  sweep_recording(mgr, net, net.topology()->topo(), true, refs, points);
  points.push_back(snapshot(mgr));
  mgr.unregister_external_refs(&refs);
  return points;
}

// ApproxOracle's cold build: the PO cones of the original, then of the
// approximation, into one manager seeded with the original's static order.
std::vector<OrderPoint> replay_oracle_build(const Network& original,
                                            const Network& approx) {
  BddManager mgr(original.num_pis(), 1u << 18, static_pi_order(original));
  std::vector<OrderPoint> points;
  auto cone_refs = [&](const Network& net) {
    std::vector<NodeId> roots;
    for (const PrimaryOutput& po : net.pos()) roots.push_back(po.driver);
    ConeScratch scratch;
    std::vector<NodeId> cone;
    net.topology()->cone_of(roots, scratch, cone);
    std::vector<BddManager::Ref> refs = pi_refs(mgr, net);
    sweep_recording(mgr, net, cone, false, refs, points);
    return refs;
  };
  std::vector<BddManager::Ref> orig_refs = cone_refs(original);
  mgr.register_external_refs(&orig_refs);
  std::vector<BddManager::Ref> approx_refs = cone_refs(approx);
  mgr.register_external_refs(&approx_refs);
  points.push_back(snapshot(mgr));
  mgr.unregister_external_refs(&approx_refs);
  mgr.unregister_external_refs(&orig_refs);
  return points;
}

// The oracle's approximation: drop the last cube of a few multi-cube
// nodes, so the second cone sweep builds new nodes on top of the first.
Network weakened(const Network& net) {
  Network weak = net;
  int count = 0;
  for (NodeId id = 0; id < weak.num_nodes() && count < 4; id += 3) {
    const Node& n = weak.node(id);
    if (n.kind != NodeKind::kLogic || n.sop.num_cubes() < 2) continue;
    std::vector<Cube> cubes(n.sop.cubes().begin(), n.sop.cubes().end() - 1);
    weak.set_sop(id, Sop(n.sop.num_vars(), std::move(cubes)));
    ++count;
  }
  return weak;
}

struct PinnedCase {
  const char* circuit;
  std::vector<OrderPoint> network_bdds;  // every reorder, then the end state
  std::vector<OrderPoint> oracle;
};

TEST(BddPinnedOrder, ColdBuildsReproducePinnedOrders) {
  const std::vector<PinnedCase> cases = {
      {"x1",
       {{0x35b71694dd0a0df8ull, 2379},
        {0xb01d7112cb8687f2ull, 6873},
        {0x345f91f29ea09f82ull, 18272},
        {0x345f91f29ea09f82ull, 23828}},
       {{0x35b71694dd0a0df8ull, 2379},
        {0xb01d7112cb8687f2ull, 6873},
        {0x345f91f29ea09f82ull, 18272},
        {0x345f91f29ea09f82ull, 43116}}},
      {"i2",
       {{0xad3cf3dac7f89b15ull, 3079},
        {0x47d23b4cec2bfd01ull, 7294},
        {0x47d23b4cec2bfd01ull, 16031}},
       {{0xad3cf3dac7f89b15ull, 3079},
        {0x47d23b4cec2bfd01ull, 7294},
        {0x47d23b4cec2bfd01ull, 28994}}},
  };
  for (const PinnedCase& c : cases) {
    SCOPED_TRACE(c.circuit);
    const Network net = load_cedbench_input(c.circuit);
    const std::vector<OrderPoint> bdd_points = replay_network_bdds(net);
    EXPECT_EQ(bdd_points, c.network_bdds);
    {
      // The real NetworkBdds takes the same trajectory as the replay.
      OrderCache::instance().clear();
      NetworkBdds bdds(net);
      EXPECT_EQ(bdds.manager().stats().reorder_runs, bdd_points.size() - 1);
      EXPECT_EQ(snapshot(bdds.manager()), bdd_points.back());
    }

    const Network approx = weakened(net);
    const std::vector<OrderPoint> oracle_points =
        replay_oracle_build(net, approx);
    EXPECT_EQ(oracle_points, c.oracle);
    {
      OrderCache::instance().clear();
      ApproxOracle oracle(net, approx);
      ASSERT_TRUE(oracle.using_bdds());
      EXPECT_EQ(oracle.manager().stats().reorder_runs,
                oracle_points.size() - 1);
      EXPECT_EQ(snapshot(oracle.manager()), oracle_points.back());
    }
  }
  OrderCache::instance().clear();
}

// Reference value of every node of `net` under one PI assignment.
std::vector<uint8_t> simulate(const Network& net,
                              const std::vector<uint8_t>& pi_values) {
  std::vector<uint8_t> value(net.num_nodes(), 0);
  for (NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    if (node.kind == NodeKind::kConst1) value[id] = 1;
    if (node.kind == NodeKind::kPi) value[id] = pi_values[net.pi_index(id)];
    if (node.kind != NodeKind::kLogic) continue;
    for (const Cube& c : node.sop.cubes()) {
      bool sat = true;
      for (int v = 0; v < c.num_vars() && sat; ++v) {
        LitCode code = c.get(v);
        if (code == LitCode::kFree) continue;
        sat = value[node.fanins[v]] == (code == LitCode::kPos ? 1 : 0);
      }
      if (sat) {
        value[id] = 1;
        break;
      }
    }
  }
  return value;
}

// evaluate() takes a 64-bit assignment; wider managers are walked by
// cofactoring level by level (a top-level cofactor is a child step).
bool evaluate_wide(BddManager& mgr, BddManager::Ref f,
                   const std::vector<uint8_t>& pi_values) {
  for (int l = 0; l < mgr.num_vars() && f > 1; ++l) {
    const int v = mgr.var_at_level(l);
    f = mgr.cofactor(f, v, pi_values[v] != 0);
  }
  return f == mgr.one();
}

// Sifting on managers wider than one interaction-matrix word (> 64
// variables): random networks whose gates mix PIs from every word, forced
// reorders both mid-build (extra-root path) and on the finished,
// registered ref set. Every node's function must survive every reorder.
TEST(BddSifting, WideManagersKeepRegisteredFunctions) {
  std::mt19937 rng(0xB0D);
  for (int trial = 0; trial < 4; ++trial) {
    const int pis = 65 + static_cast<int>(rng() % 60);  // 65..124
    Network net = random_network(rng, pis, 160);
    std::vector<std::vector<uint8_t>> patterns(24);
    std::vector<std::vector<uint8_t>> expected;
    for (std::vector<uint8_t>& p : patterns) {
      p.resize(pis);
      for (uint8_t& bit : p) bit = rng() & 1;
      expected.push_back(simulate(net, p));
    }

    BddManager mgr(pis, 1u << 20, random_order(pis, 1000 + trial));
    mgr.set_reorder_threshold(64);
    std::vector<NodeId> roots;
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (net.node(id).kind == NodeKind::kLogic) roots.push_back(id);
    }
    std::vector<BddManager::Ref> refs = build_cone_bdds(mgr, net, roots);
    mgr.register_external_refs(&refs);
    const uint64_t mid_build = mgr.stats().reorder_runs;
    for (int round = 0; round <= 2; ++round) {
      if (round > 0) mgr.reorder();
      for (size_t p = 0; p < patterns.size(); ++p) {
        for (NodeId id = 0; id < net.num_nodes(); ++id) {
          if (refs[id] == kNoBddRef) continue;
          ASSERT_EQ(evaluate_wide(mgr, refs[id], patterns[p]),
                    expected[p][id] != 0)
              << "trial " << trial << " round " << round << " node " << id;
        }
      }
    }
    EXPECT_GE(mid_build, 1u) << "trial " << trial;
    EXPECT_EQ(mgr.stats().reorder_runs, mid_build + 2);
    mgr.unregister_external_refs(&refs);
  }
}

}  // namespace
}  // namespace apx
