#include "mapping/mapper.hpp"

#include <gtest/gtest.h>

#include <random>

#include "mapping/optimize.hpp"
#include "sat/encode.hpp"

namespace apx {
namespace {

Network random_network(std::mt19937& rng, int pis, int nodes) {
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) pool.push_back(net.add_pi("p" + std::to_string(i)));
  for (int g = 0; g < nodes; ++g) {
    int k = 2 + static_cast<int>(rng() % 3);  // 2-4 fanins
    std::vector<NodeId> fanins;
    for (int j = 0; j < k; ++j) fanins.push_back(pool[rng() % pool.size()]);
    Sop sop(k);
    int cubes = 1 + static_cast<int>(rng() % 3);
    for (int c = 0; c < cubes; ++c) {
      Cube cube = Cube::full(k);
      for (int v = 0; v < k; ++v) {
        int roll = static_cast<int>(rng() % 3);
        if (roll == 0) cube.set(v, LitCode::kNeg);
        if (roll == 1) cube.set(v, LitCode::kPos);
      }
      sop.add_cube(cube);
    }
    if (sop.empty()) continue;
    pool.push_back(net.add_node(fanins, sop));
  }
  net.add_po("f", pool.back());
  net.add_po("g", pool[pool.size() / 2]);
  return net;
}

class MapperEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MapperEquivalence, MappedNetworkIsEquivalent) {
  auto [seed, impl_index] = GetParam();
  std::mt19937 rng(seed);
  Network net = random_network(rng, 6, 12);
  const Implementation& impl = standard_implementations()[impl_index];
  Network mapped = technology_map(net, {impl.library, impl.script});
  EXPECT_TRUE(is_mapped(mapped)) << impl.name;
  for (int po = 0; po < net.num_pos(); ++po) {
    EXPECT_EQ(check_po_equivalence(net, po, mapped, po), CheckResult::kHolds)
        << impl.name << " po " << po;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByImpl, MapperEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2, 3, 4)));

TEST(MapperTest, Nand2LibraryUsesOnlyInvertersAndNands) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  net.add_po("f", net.add_node({a, b, c}, *Sop::parse(3, "11-\n--1")));
  Network mapped = technology_map(net, {&GateLibrary::nand2(),
                                        ScriptKind::kBalance});
  for (NodeId id = 0; id < mapped.num_nodes(); ++id) {
    const Node& n = mapped.node(id);
    if (n.kind != NodeKind::kLogic) continue;
    bool is_inv = n.fanins.size() == 1;
    bool is_nand = n.fanins.size() == 2 && n.sop.num_cubes() == 2;
    EXPECT_TRUE(is_inv || is_nand) << n.sop.to_string();
  }
}

TEST(MapperTest, BalanceIsShallowerThanCascade) {
  // A wide AND: balanced tree depth ~log2, cascade depth ~n.
  Network net;
  std::vector<NodeId> pis;
  const int w = 16;
  Sop sop = Sop(w);
  Cube all = Cube::full(w);
  for (int i = 0; i < w; ++i) {
    pis.push_back(net.add_pi("x" + std::to_string(i)));
    all.set(i, LitCode::kPos);
  }
  sop.add_cube(all);
  net.add_po("f", net.add_node(pis, sop));
  Network bal = technology_map(net, {&GateLibrary::basic(), ScriptKind::kBalance});
  Network cas = technology_map(net, {&GateLibrary::basic(), ScriptKind::kCascade});
  EXPECT_EQ(mapped_delay(bal), 4);   // log2(16)
  EXPECT_EQ(mapped_delay(cas), 15);  // linear chain
  EXPECT_EQ(mapped_area(bal), 15);
  EXPECT_EQ(mapped_area(cas), 15);
}

TEST(MapperTest, FactoringSharesCommonLiteral) {
  // f = a b + a c + a d: factored form a(b+c+d) needs 3 gates (2x OR + AND)
  // vs two-level 3 ANDs + 2 ORs = 5.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  NodeId d = net.add_pi("d");
  net.add_po("f", net.add_node({a, b, c, d},
                               *Sop::parse(4, "11--\n1-1-\n1--1")));
  Network fac = technology_map(net, {&GateLibrary::basic(), ScriptKind::kFactor});
  Network two = technology_map(net, {&GateLibrary::basic(), ScriptKind::kBalance});
  EXPECT_EQ(mapped_area(fac), 3);
  EXPECT_EQ(mapped_area(two), 5);
  EXPECT_EQ(check_po_equivalence(fac, 0, two, 0), CheckResult::kHolds);
}

TEST(MapperTest, ConstantsPropagate) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId zero = net.add_const(false);
  net.add_po("f", net.add_and(a, zero));
  Network mapped = technology_map(net);
  EXPECT_EQ(mapped.num_logic_nodes(), 0);
  EXPECT_EQ(mapped.node(mapped.po(0).driver).kind, NodeKind::kConst0);
}

TEST(OptimizeTest, SweepsConstantsAndBuffers) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId one = net.add_const(true);
  NodeId t = net.add_and(a, one);       // == a
  NodeId buf = net.add_buf(t);          // == a
  NodeId inv2 = net.add_not(net.add_not(buf));  // == a
  net.add_po("f", net.add_and(inv2, b));
  Network opt = quick_synthesis(net);
  EXPECT_EQ(opt.num_logic_nodes(), 1);
  EXPECT_EQ(check_po_equivalence(net, 0, opt, 0), CheckResult::kHolds);
}

TEST(OptimizeTest, StrashMergesDuplicates) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId x = net.add_and(a, b);
  NodeId y = net.add_and(a, b);
  net.add_po("f", net.add_or(x, y));
  Network opt = quick_synthesis(net);
  // x and y merge; the OR of identical signals minimizes to a buffer which
  // collapses, leaving just the AND.
  EXPECT_EQ(opt.num_logic_nodes(), 1);
  EXPECT_EQ(check_po_equivalence(net, 0, opt, 0), CheckResult::kHolds);
}

TEST(OptimizeTest, MinimizeReducesRedundantSop) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  // ab + a'c + bc (redundant consensus term).
  NodeId f = net.add_node({a, b, c}, *Sop::parse(3, "11-\n0-1\n-11"));
  net.add_po("f", f);
  Network opt = quick_synthesis(net);
  EXPECT_EQ(opt.node(opt.po(0).driver).sop.num_cubes(), 2);
  EXPECT_EQ(check_po_equivalence(net, 0, opt, 0), CheckResult::kHolds);
}

class OptimizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizeProperty, PreservesAllOutputs) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    Network net = random_network(rng, 6, 15);
    Network opt = quick_synthesis(net);
    for (int po = 0; po < net.num_pos(); ++po) {
      EXPECT_EQ(check_po_equivalence(net, po, opt, po), CheckResult::kHolds);
    }
    EXPECT_LE(opt.num_logic_nodes(), net.num_logic_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeProperty,
                         ::testing::Values(5, 15, 25, 35));

}  // namespace
}  // namespace apx
