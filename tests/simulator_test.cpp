#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "bdd/network_bdd.hpp"
#include "sim/fault_engine.hpp"

namespace apx {
namespace {

Network adder_bit() {
  // Full adder: sum = a^b^cin, cout = ab + cin(a^b).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId cin = net.add_pi("cin");
  NodeId axb = net.add_xor(a, b, "axb");
  NodeId sum = net.add_xor(axb, cin, "sum");
  NodeId ab = net.add_and(a, b, "ab");
  NodeId c2 = net.add_and(cin, axb, "c2");
  NodeId cout = net.add_or(ab, c2, "cout");
  net.add_po("sum", sum);
  net.add_po("cout", cout);
  return net;
}

TEST(SimulatorTest, ExhaustiveFullAdder) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  NodeId sum = net.po(0).driver;
  NodeId cout = net.po(1).driver;
  for (uint64_t m = 0; m < 8; ++m) {
    int a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
    int expect_sum = a ^ b ^ c;
    int expect_cout = (a + b + c) >= 2;
    EXPECT_EQ((sim.value(sum)[0] >> m) & 1, static_cast<uint64_t>(expect_sum));
    EXPECT_EQ((sim.value(cout)[0] >> m) & 1,
              static_cast<uint64_t>(expect_cout));
  }
}

TEST(SimulatorTest, SignalProbabilityExhaustive) {
  Network net = adder_bit();
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(3));
  // sum is 1 on 4/8 minterms; cout on 4/8.
  EXPECT_NEAR(sim.signal_probability(net.po(0).driver), 0.5, 1e-12);
  EXPECT_NEAR(sim.signal_probability(net.po(1).driver), 0.5, 1e-12);
  EXPECT_NEAR(sim.switching_activity(net.po(0).driver), 0.5, 1e-12);
}

TEST(SimulatorTest, RandomSimulationMatchesBdd) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Network net;
    std::vector<NodeId> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(net.add_pi("p" + std::to_string(i)));
    for (int g = 0; g < 25; ++g) {
      NodeId a = pool[rng() % pool.size()];
      NodeId b = pool[rng() % pool.size()];
      switch (rng() % 3) {
        case 0:
          pool.push_back(net.add_and(a, b));
          break;
        case 1:
          pool.push_back(net.add_or(a, b));
          break;
        case 2:
          pool.push_back(net.add_xor(a, b));
          break;
      }
    }
    net.add_po("f", pool.back());

    Simulator sim(net);
    sim.run(PatternSet::exhaustive(6));
    NetworkBdds bdds(net);
    EXPECT_NEAR(sim.signal_probability(net.po(0).driver),
                bdds.manager().sat_fraction(bdds.po_ref(0)), 1e-12);
  }
}

// Fault injection rides FaultSimEngine over the Simulator's golden plane;
// these cases pin its single stuck-at behaviour on the full adder.

// Runs `faults` as one engine batch over the exhaustive adder patterns and
// hands each view to `check` in fault order.
void inject_each(const Network& net, const std::vector<StuckFault>& faults,
                 const std::function<void(int, const FaultView&)>& check) {
  std::vector<FaultSpec> specs;
  for (const StuckFault& f : faults) specs.push_back(FaultSpec::stuck_at(f));
  FaultSimEngine engine(net);
  engine.run_batch(
      PatternSet::exhaustive(3), specs,
      [&](int i, const FaultSpec&, const FaultView& v) { check(i, v); },
      /*num_threads=*/1);
}

TEST(SimulatorTest, StuckFaultForcesValue) {
  Network net = adder_bit();
  NodeId axb = *net.find_node("axb");
  NodeId sum = net.po(0).driver;
  inject_each(net, {{axb, true}}, [&](int, const FaultView& v) {
    EXPECT_EQ(v.faulty(axb)[0], ~0ULL);
    // Downstream cone (sum) must differ where a^b == 0 -> sum flips.
    uint64_t golden = v.golden(sum)[0];
    uint64_t faulty = v.faulty(sum)[0];
    for (uint64_t m = 0; m < 8; ++m) {
      int a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
      bool expect_flip = (a ^ b) == 0;
      EXPECT_EQ(((golden ^ faulty) >> m) & 1,
                static_cast<uint64_t>(expect_flip))
          << m << " c=" << c;
    }
  });
}

TEST(SimulatorTest, FaultOutsideConeLeavesGolden) {
  Network net = adder_bit();
  NodeId ab = *net.find_node("ab");
  NodeId sum = net.po(0).driver;
  NodeId cout = net.po(1).driver;
  inject_each(net, {{ab, true}}, [&](int, const FaultView& v) {
    // sum does not depend on ab.
    EXPECT_EQ(v.faulty(sum)[0], v.golden(sum)[0]);
    // cout does.
    EXPECT_NE(v.faulty(cout)[0], v.golden(cout)[0]);
  });
}

TEST(SimulatorTest, SuccessiveInjectionsAreIndependent) {
  Network net = adder_bit();
  NodeId sum = net.po(0).driver;
  NodeId axb = *net.find_node("axb");
  NodeId ab = *net.find_node("ab");
  std::vector<uint64_t> seen(3), golden(3);
  inject_each(net, {{axb, true}, {ab, true}, {axb, true}},
              [&](int i, const FaultView& v) {
                seen[i] = v.faulty(sum)[0];
                golden[i] = v.golden(sum)[0];
              });
  // The second fault must read golden at sum (ab is not in its cone), not
  // the stale value from the first fault; the third repeats the first.
  EXPECT_NE(seen[0], golden[0]);
  EXPECT_EQ(seen[1], golden[1]);
  EXPECT_EQ(seen[2], seen[0]);
}

TEST(SimulatorTest, SecondRunInvalidatesPriorFaultValues) {
  // A second batch with same-shaped patterns reuses the engine's arenas in
  // place: values of the previous batch's fault must not stay readable.
  Network net = adder_bit();
  NodeId axb = *net.find_node("axb");
  NodeId ab = *net.find_node("ab");
  NodeId sum = net.po(0).driver;
  FaultSimEngine engine(net);
  engine.run_batch(PatternSet::exhaustive(3), {FaultSpec::stuck_at({axb, true})},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     ASSERT_NE(v.faulty(axb)[0], v.golden(axb)[0]);
                   });
  engine.run_batch(PatternSet::exhaustive(3), {FaultSpec::stuck_at({ab, true})},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     EXPECT_EQ(v.faulty(axb)[0], v.golden(axb)[0]);
                     EXPECT_EQ(v.faulty(sum)[0], v.golden(sum)[0]);
                   });
}

TEST(SimulatorTest, InjectionValidatesArguments) {
  Network net = adder_bit();
  NodeId axb = *net.find_node("axb");
  FaultSimEngine engine(net);
  auto ignore = [](int, const FaultSpec&, const FaultView&) {};
  const PatternSet patterns = PatternSet::exhaustive(3);  // 1 word
  // Pattern shape: PI count and vector budget must fit the batch.
  EXPECT_THROW(engine.run_batch(PatternSet::exhaustive(2),
                                {FaultSpec::stuck_at({axb, true})}, ignore),
               std::logic_error);
  EXPECT_THROW(engine.run_batch(patterns, {FaultSpec::stuck_at({axb, true})},
                                ignore, 1, /*num_vectors=*/65),
               std::logic_error);
  // Fault node range.
  EXPECT_THROW(engine.run_batch(patterns,
                                {FaultSpec::stuck_at({kNullNode, false})},
                                ignore),
               std::logic_error);
  EXPECT_THROW(engine.run_batch(patterns,
                                {FaultSpec::stuck_at({net.num_nodes(), false})},
                                ignore),
               std::logic_error);
  // A well-formed call still works after the failed attempts.
  int visits = 0;
  engine.run_batch(patterns, {FaultSpec::stuck_at({axb, true})},
                   [&](int, const FaultSpec&, const FaultView& v) {
                     ++visits;
                     EXPECT_EQ(v.faulty(axb)[0], ~0ULL);
                   });
  EXPECT_EQ(visits, 1);
}

TEST(SimulatorTest, EnumerateFaultsCoversLogicNodesTwice) {
  Network net = adder_bit();
  auto faults = enumerate_faults(net);
  EXPECT_EQ(faults.size(), 2u * net.num_logic_nodes());
}

TEST(SimulatorTest, RandomPatternsAreReproducible) {
  PatternSet a = PatternSet::random(4, 3, 42);
  PatternSet b = PatternSet::random(4, 3, 42);
  PatternSet c = PatternSet::random(4, 3, 43);
  EXPECT_EQ(a.word(2, 1), b.word(2, 1));
  EXPECT_NE(a.word(2, 1), c.word(2, 1));
}

TEST(SimulatorTest, ExhaustiveSmallReplicates) {
  // 2 PIs -> 4 patterns replicated to fill 64 bits; probabilities exact.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  net.add_po("o", net.add_and(a, b));
  Simulator sim(net);
  sim.run(PatternSet::exhaustive(2));
  EXPECT_NEAR(sim.signal_probability(net.po(0).driver), 0.25, 1e-12);
}

}  // namespace
}  // namespace apx
