#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "aig/convert.hpp"
#include "aig/cuts.hpp"
#include "aig/npn.hpp"
#include "aig/rewrite.hpp"
#include "benchmarks/benchmarks.hpp"
#include "sat/encode.hpp"
#include "sat/solver.hpp"

namespace apx::aig {
namespace {

/// Evaluates every node of the AIG under one input assignment (bit i of
/// `assignment` = value of PI i); returns per-node values.
std::vector<char> eval_nodes(const Aig& g, uint32_t assignment) {
  std::vector<char> value(g.num_nodes(), 0);
  for (uint32_t id = 1; id < static_cast<uint32_t>(g.num_nodes()); ++id) {
    if (g.is_pi(id)) {
      value[id] = (assignment >> g.pi_index(id)) & 1;
      continue;
    }
    const Lit f0 = g.fanin0(id);
    const Lit f1 = g.fanin1(id);
    value[id] = (value[lit_node(f0)] ^ (lit_complemented(f0) ? 1 : 0)) &
                (value[lit_node(f1)] ^ (lit_complemented(f1) ? 1 : 0));
  }
  return value;
}

bool eval_lit(const std::vector<char>& value, Lit l) {
  return (value[lit_node(l)] ^ (lit_complemented(l) ? 1 : 0)) != 0;
}

/// Random strashed AIG over `num_pis` inputs, every PI-reachable signal a
/// candidate fanin; POs sampled from the last few signals.
Aig random_aig(uint32_t seed, int num_pis, int num_ands, int num_pos) {
  std::mt19937 rng(seed);
  Aig g;
  std::vector<Lit> sigs;
  for (int i = 0; i < num_pis; ++i) sigs.push_back(g.add_pi());
  for (int i = 0; i < num_ands; ++i) {
    std::uniform_int_distribution<size_t> pick(0, sigs.size() - 1);
    const Lit a = lit_not_cond(sigs[pick(rng)], rng() & 1);
    const Lit b = lit_not_cond(sigs[pick(rng)], rng() & 1);
    sigs.push_back(g.create_and(a, b));
  }
  for (int i = 0; i < num_pos; ++i) {
    std::uniform_int_distribution<size_t> pick(sigs.size() / 2,
                                               sigs.size() - 1);
    g.add_po(lit_not_cond(sigs[pick(rng)], rng() & 1));
  }
  return g;
}

/// Shared-solver SAT miter: encodes both networks once over common PI
/// variables and proves every PO pair equivalent (UNSAT of the XOR).
::testing::AssertionResult all_pos_equivalent(const Network& a,
                                              const Network& b) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return ::testing::AssertionFailure() << "interface mismatch";
  }
  SatSolver solver;
  std::vector<int> pi_vars;
  for (int i = 0; i < a.num_pis(); ++i) pi_vars.push_back(solver.new_var());
  const std::vector<int> va = encode_network(solver, a, pi_vars);
  const std::vector<int> vb = encode_network(solver, b, pi_vars);
  for (int i = 0; i < a.num_pos(); ++i) {
    const apx::Lit la(va[a.po(i).driver], false);
    const apx::Lit lb(vb[b.po(i).driver], false);
    const int x = solver.new_var();
    const apx::Lit lx(x, false);
    solver.add_ternary(~lx, la, lb);
    solver.add_ternary(~lx, ~la, ~lb);
    solver.add_ternary(lx, ~la, lb);
    solver.add_ternary(lx, la, ~lb);
    if (solver.solve({lx}) != SatResult::kUnsat) {
      return ::testing::AssertionFailure()
             << "PO " << i << " (" << a.po(i).name << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(AigTest, FoldingAndStructuralHashing) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");

  EXPECT_EQ(g.create_and(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.create_and(kLitTrue, b), b);
  EXPECT_EQ(g.create_and(a, a), a);
  EXPECT_EQ(g.create_and(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(g.num_ands(), 0);

  const Lit ab = g.create_and(a, b);
  EXPECT_EQ(g.create_and(b, a), ab);  // commutative dedup
  EXPECT_EQ(g.create_and(a, b), ab);
  EXPECT_EQ(g.num_ands(), 1);

  EXPECT_EQ(g.lookup_and(a, b), ab);
  EXPECT_EQ(g.lookup_and(lit_not(a), b), kInvalidLit);
  EXPECT_EQ(g.num_ands(), 1);  // lookup never inserts

  g.check();
}

TEST(AigTest, GateConstructorsSemantics) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit s = g.add_pi("s");
  g.add_po(g.create_or(a, b), "or");
  g.add_po(g.create_xor(a, b), "xor");
  g.add_po(g.create_mux(s, a, b), "mux");
  for (uint32_t m = 0; m < 8; ++m) {
    const bool va = m & 1, vb = (m >> 1) & 1, vs = (m >> 2) & 1;
    const std::vector<char> val = eval_nodes(g, m);
    EXPECT_EQ(eval_lit(val, g.po_lit(0)), va || vb);
    EXPECT_EQ(eval_lit(val, g.po_lit(1)), va != vb);
    EXPECT_EQ(eval_lit(val, g.po_lit(2)), vs ? va : vb);
  }
}

TEST(AigTest, RandomGraphsKeepStrashInvariants) {
  for (uint32_t seed = 1; seed <= 10; ++seed) {
    const Aig g = random_aig(seed, 6, 80, 4);
    ASSERT_NO_THROW(g.check());
  }
}

TEST(AigTest, CutTruthTablesMatchSimulation) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    const Aig g = random_aig(seed, 6, 60, 3);
    const CutSet cs = enumerate_cuts(g);
    for (uint32_t m = 0; m < 64; ++m) {
      const std::vector<char> val = eval_nodes(g, m);
      for (uint32_t id = 1; id < static_cast<uint32_t>(g.num_nodes()); ++id) {
        for (const Cut& c : cs.cuts[id]) {
          int minterm = 0;
          for (int j = 0; j < c.size; ++j) {
            minterm |= (val[c.leaves[j]] ? 1 : 0) << j;
          }
          ASSERT_EQ((c.tt >> minterm) & 1, val[id])
              << "seed " << seed << " node " << id;
        }
      }
    }
  }
}

TEST(AigTest, CutSetsAreBoundedAndContainTrivialCut) {
  const Aig g = random_aig(7, 6, 120, 3);
  const CutSet cs = enumerate_cuts(g);
  for (uint32_t id = 1; id < static_cast<uint32_t>(g.num_nodes()); ++id) {
    const auto& cuts = cs.cuts[id];
    ASSERT_FALSE(cuts.empty());
    EXPECT_LE(static_cast<int>(cuts.size()), kMaxCuts);
    const Cut& trivial = cuts.back();
    EXPECT_EQ(trivial.size, 1);
    EXPECT_EQ(trivial.leaves[0], id);
    EXPECT_EQ(trivial.tt, tt16::kVar[0]);
    for (const Cut& c : cuts) {
      for (int j = 1; j < c.size; ++j) {
        EXPECT_LT(c.leaves[j - 1], c.leaves[j]);  // sorted, unique
      }
    }
  }
}

TEST(AigTest, RewriteDbImplementsEveryClass) {
  const NpnTable& npn = NpnTable::instance();
  const RewriteDb& db = RewriteDb::instance();
  for (uint16_t rep : npn.representatives()) {
    ASSERT_TRUE(db.has(rep));
    Aig g;
    Lit xs[4];
    for (int i = 0; i < 4; ++i) xs[i] = g.add_pi();
    const Lit out = RewriteDb::instantiate(&g, db.entry(rep), xs);
    g.add_po(out);
    for (uint32_t m = 0; m < 16; ++m) {
      const std::vector<char> val = eval_nodes(g, m);
      ASSERT_EQ(eval_lit(val, out), ((rep >> m) & 1) != 0) << "class " << rep;
    }
    EXPECT_EQ(db.cost(rep), g.count_reachable_ands());
  }
}

TEST(AigTest, RewritePreservesFunctionAndNeverGrows) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    const Aig src = random_aig(seed, 8, 120, 5);
    RewriteStats stats;
    const Aig out = rewrite(src, &stats);
    ASSERT_NO_THROW(out.check());
    EXPECT_LE(stats.ands_after, stats.ands_before);
    EXPECT_EQ(stats.ands_after, out.count_reachable_ands());
    ASSERT_EQ(out.num_pos(), src.num_pos());
    for (uint32_t m = 0; m < 256; ++m) {
      const std::vector<char> val_src = eval_nodes(src, m);
      const std::vector<char> val_out = eval_nodes(out, m);
      for (int i = 0; i < src.num_pos(); ++i) {
        ASSERT_EQ(eval_lit(val_out, out.po_lit(i)),
                  eval_lit(val_src, src.po_lit(i)))
            << "seed " << seed << " po " << i << " m " << m;
      }
    }
  }
}

TEST(AigTest, RoundTripSatMiterOnFullSuite) {
  // Network -> AIG -> Network must be UNSAT-equivalent on every PO of
  // every registered benchmark (the structural hash may only merge).
  for (const std::string& name : benchmark_names()) {
    const Network net = make_benchmark(name);
    const Aig aig = network_to_aig(net);
    ASSERT_NO_THROW(aig.check()) << name;
    const Network back = aig_to_network(aig);
    EXPECT_TRUE(all_pos_equivalent(net, back)) << name;
  }
}

TEST(AigTest, RewrittenRoundTripEquivalentOnMediumSuite) {
  for (const char* name : {"term1", "x1", "alu1", "rca16"}) {
    const Network net = make_benchmark(name);
    const Network synth = aig_quick_synthesis(net);
    EXPECT_TRUE(all_pos_equivalent(net, synth)) << name;
  }
}

TEST(AigTest, ConvertersPreserveInterfaceNamesAndOrder) {
  const Network net = make_benchmark("alu1");
  const Aig aig = network_to_aig(net);
  ASSERT_EQ(aig.num_pis(), net.num_pis());
  ASSERT_EQ(aig.num_pos(), net.num_pos());
  for (int i = 0; i < net.num_pis(); ++i) {
    EXPECT_EQ(aig.pi_name(i), net.node(net.pis()[i]).name);
  }
  const Network back = aig_to_network(aig);
  ASSERT_EQ(back.num_pis(), net.num_pis());
  ASSERT_EQ(back.num_pos(), net.num_pos());
  for (int i = 0; i < net.num_pis(); ++i) {
    EXPECT_EQ(back.node(back.pis()[i]).name, net.node(net.pis()[i]).name);
  }
  for (int i = 0; i < net.num_pos(); ++i) {
    EXPECT_EQ(back.po(i).name, net.po(i).name);
  }
}

}  // namespace
}  // namespace apx::aig
