#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/trace.hpp"

namespace apx {
namespace {

TEST(BddTest, TerminalsAndVariables) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.zero(), 0u);
  EXPECT_EQ(mgr.one(), 1u);
  auto x0 = mgr.var(0);
  EXPECT_TRUE(mgr.evaluate(x0, 0b001));
  EXPECT_FALSE(mgr.evaluate(x0, 0b110));
  auto nx1 = mgr.literal(1, false);
  EXPECT_TRUE(mgr.evaluate(nx1, 0b001));
  EXPECT_FALSE(mgr.evaluate(nx1, 0b010));
}

TEST(BddTest, BasicOperations) {
  BddManager mgr(2);
  auto a = mgr.var(0);
  auto b = mgr.var(1);
  auto ab = mgr.bdd_and(a, b);
  auto a_or_b = mgr.bdd_or(a, b);
  auto a_xor_b = mgr.bdd_xor(a, b);
  for (uint64_t m = 0; m < 4; ++m) {
    bool va = m & 1, vb = (m >> 1) & 1;
    EXPECT_EQ(mgr.evaluate(ab, m), va && vb);
    EXPECT_EQ(mgr.evaluate(a_or_b, m), va || vb);
    EXPECT_EQ(mgr.evaluate(a_xor_b, m), va != vb);
  }
}

TEST(BddTest, CanonicityHashConsing) {
  BddManager mgr(3);
  auto a = mgr.var(0);
  auto b = mgr.var(1);
  // a & b built two ways must be the same node.
  auto ab1 = mgr.bdd_and(a, b);
  auto ab2 = mgr.bdd_not(mgr.bdd_or(mgr.bdd_not(a), mgr.bdd_not(b)));
  EXPECT_EQ(ab1, ab2);
  // Idempotence and involution.
  EXPECT_EQ(mgr.bdd_and(a, a), a);
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(a)), a);
}

TEST(BddTest, SatFraction) {
  BddManager mgr(4);
  auto a = mgr.var(0);
  auto b = mgr.var(1);
  auto c = mgr.var(2);
  auto d = mgr.var(3);
  // Paper Sec. 2 example: F = a + b + c'd' + cd has 14/16 minterms.
  auto f = mgr.bdd_or(
      mgr.bdd_or(a, b),
      mgr.bdd_or(mgr.bdd_and(mgr.bdd_not(c), mgr.bdd_not(d)),
                 mgr.bdd_and(c, d)));
  EXPECT_NEAR(mgr.sat_fraction(f), 14.0 / 16.0, 1e-12);
  EXPECT_NEAR(mgr.sat_count(f), 14.0, 1e-9);
  // G = a + b covers 12/16 = 85.7% of F's minterms.
  auto g = mgr.bdd_or(a, b);
  EXPECT_NEAR(mgr.sat_count(g) / mgr.sat_count(f), 12.0 / 14.0, 1e-9);
}

TEST(BddTest, Implication) {
  BddManager mgr(4);
  auto a = mgr.var(0);
  auto b = mgr.var(1);
  auto f = mgr.bdd_or(a, b);
  auto g = mgr.bdd_or(f, mgr.var(2));
  EXPECT_TRUE(mgr.implies(f, g));
  EXPECT_FALSE(mgr.implies(g, f));
  EXPECT_TRUE(mgr.implies(mgr.zero(), f));
  EXPECT_TRUE(mgr.implies(f, mgr.one()));
}

TEST(BddTest, Cofactor) {
  BddManager mgr(3);
  auto a = mgr.var(0);
  auto b = mgr.var(1);
  auto f = mgr.bdd_or(mgr.bdd_and(a, b), mgr.bdd_and(mgr.bdd_not(a), mgr.var(2)));
  EXPECT_EQ(mgr.cofactor(f, 0, true), b);
  EXPECT_EQ(mgr.cofactor(f, 0, false), mgr.var(2));
}

TEST(BddTest, SupportAndSize) {
  BddManager mgr(5);
  auto f = mgr.bdd_and(mgr.var(1), mgr.var(3));
  auto s = mgr.support(f);
  EXPECT_FALSE(s[0]);
  EXPECT_TRUE(s[1]);
  EXPECT_FALSE(s[2]);
  EXPECT_TRUE(s[3]);
  EXPECT_EQ(mgr.size(f), 2u);
  EXPECT_EQ(mgr.size(mgr.one()), 0u);
}

TEST(BddTest, NodeLimitThrows) {
  // A tiny budget must overflow when building a multiplier-ish function.
  BddManager mgr(16, 24);
  auto acc = mgr.zero();
  EXPECT_THROW(
      {
        for (int i = 0; i < 8; ++i) {
          acc = mgr.bdd_xor(acc, mgr.bdd_and(mgr.var(i), mgr.var(15 - i)));
        }
      },
      BddOverflow);
}

class BddRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomProperty, MatchesDirectEvaluation) {
  std::mt19937 rng(GetParam());
  const int n = 6;
  BddManager mgr(n);
  // Build a random expression tree and an evaluator closure alongside.
  std::vector<BddManager::Ref> refs;
  for (int i = 0; i < n; ++i) refs.push_back(mgr.var(i));
  for (int step = 0; step < 40; ++step) {
    auto a = refs[rng() % refs.size()];
    auto b = refs[rng() % refs.size()];
    switch (rng() % 4) {
      case 0:
        refs.push_back(mgr.bdd_and(a, b));
        break;
      case 1:
        refs.push_back(mgr.bdd_or(a, b));
        break;
      case 2:
        refs.push_back(mgr.bdd_xor(a, b));
        break;
      case 3:
        refs.push_back(mgr.bdd_not(a));
        break;
    }
  }
  // Validate sat_fraction of the last ref against brute-force evaluation.
  auto f = refs.back();
  uint64_t ones = 0;
  for (uint64_t m = 0; m < (1u << n); ++m) {
    if (mgr.evaluate(f, m)) ++ones;
  }
  EXPECT_NEAR(mgr.sat_fraction(f), static_cast<double>(ones) / (1u << n),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomProperty,
                         ::testing::Values(10, 20, 30, 40, 50, 60));

TEST(BddTest, GarbageCollectPreservesLiveFunctions) {
  const int n = 8;
  BddManager mgr(n);
  // A live function with real structure: odd parity of all 8 variables.
  auto parity = mgr.zero();
  for (int i = 0; i < n; ++i) parity = mgr.bdd_xor(parity, mgr.var(i));
  // Plenty of garbage: conjunction chains that nothing keeps alive.
  auto junk = mgr.one();
  for (int i = 0; i < n; ++i) {
    junk = mgr.bdd_and(junk, mgr.bdd_or(mgr.var(i), mgr.var((i + 3) % n)));
  }
  std::vector<bool> truth(1u << n);
  for (uint64_t m = 0; m < (1u << n); ++m) truth[m] = mgr.evaluate(parity, m);
  size_t before = mgr.num_nodes();

  auto remap = mgr.garbage_collect({parity});
  ASSERT_LT(mgr.num_nodes(), before);
  ASSERT_NE(remap[parity], BddManager::kInvalidRef);
  EXPECT_EQ(remap[junk], BddManager::kInvalidRef);  // collected

  auto parity2 = remap[parity];
  for (uint64_t m = 0; m < (1u << n); ++m) {
    EXPECT_EQ(mgr.evaluate(parity2, m), truth[m]);
  }
  EXPECT_NEAR(mgr.sat_fraction(parity2), 0.5, 1e-12);
  EXPECT_EQ(mgr.size(parity2), static_cast<size_t>(2 * n - 1));

  // The manager stays usable after compaction: hash-consing still holds.
  auto again = mgr.zero();
  for (int i = 0; i < n; ++i) again = mgr.bdd_xor(again, mgr.var(i));
  EXPECT_EQ(again, parity2);
}

TEST(BddTest, UniqueTableProbeLengthStaysShort) {
  // The splitmix64-mixed flat table should stay near collision-free on a
  // realistic workload (sequentially allocated refs are the adversarial
  // case for weak mixing).
  const int n = 16;
  BddManager mgr(n);
  auto f = mgr.zero();
  for (int i = 0; i < n; ++i) f = mgr.bdd_xor(f, mgr.var(i));
  auto g = mgr.one();
  for (int i = 0; i + 1 < n; ++i) {
    g = mgr.bdd_and(g, mgr.bdd_or(mgr.var(i), mgr.var(i + 1)));
  }
  (void)mgr.bdd_and(f, g);
  const BddManager::Stats& s = mgr.stats();
  ASSERT_GT(s.unique_lookups, 0u);
  EXPECT_LT(s.avg_probe_length(), 4.0);
}

int64_t trace_counter_value(const std::string& name) {
  for (const trace::CounterStat& c : trace::counter_summary()) {
    if (c.name == name) return c.value;
  }
  return -1;
}

// The peak gauge reaches the trace even from a manager that never collects
// or sifts (published on destruction), and the sift work counters mirror
// Stats.
TEST(BddTest, TraceMirrorsPeakAndSiftStats) {
  trace::reset();
  trace::set_trace_enabled(true);
  uint64_t quiet_peak = 0;
  {
    BddManager mgr(8);
    mgr.bdd_xor(mgr.bdd_and(mgr.var(0), mgr.var(5)), mgr.var(3));
    quiet_peak = mgr.stats().peak_nodes;
    EXPECT_LE(trace_counter_value("bdd.peak_nodes"), 0);  // not yet published
  }
  EXPECT_EQ(trace_counter_value("bdd.peak_nodes"),
            static_cast<int64_t>(quiet_peak));

  // x0 x4 + x1 x5 + x2 x6 + x3 x7 under the identity order: the separated
  // pairs make sifting rewrite nodes.
  BddManager mgr(8);
  mgr.set_auto_reorder(false);
  std::vector<BddManager::Ref> roots = {mgr.zero()};
  for (int i = 0; i < 4; ++i) {
    roots[0] = mgr.bdd_or(roots[0], mgr.bdd_and(mgr.var(i), mgr.var(i + 4)));
  }
  mgr.register_external_refs(&roots);
  mgr.reorder();
  EXPECT_GT(mgr.stats().sift_swaps, 0u);
  EXPECT_GT(mgr.stats().sift_node_rewrites, 0u);
  EXPECT_EQ(trace_counter_value("bdd.sift_swaps"),
            static_cast<int64_t>(mgr.stats().sift_swaps));
  EXPECT_EQ(trace_counter_value("bdd.sift_node_rewrites"),
            static_cast<int64_t>(mgr.stats().sift_node_rewrites));
  mgr.unregister_external_refs(&roots);
  trace::set_trace_enabled(false);
  trace::reset();
}

}  // namespace
}  // namespace apx
