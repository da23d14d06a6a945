#include "sim/transition_fault.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "benchmarks/benchmarks.hpp"
#include "core/delay_ced.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"

namespace apx {
namespace {

// Injects `fault` on the (launch, capture) pair through FaultSimEngine: one
// Simulator run gives the launch frame, which gates a stuck-at site on the
// capture patterns (transition_site).
void inject_transition(const Network& net, const PatternSet& launch,
                       const PatternSet& capture, const TransitionFault& fault,
                       const std::function<void(const FaultView&)>& check) {
  Simulator launch_sim(net);
  launch_sim.run(launch);
  std::vector<uint64_t> gate;
  FaultSpec spec;
  spec.add(transition_site(fault, launch_sim.value(fault.node), gate));
  FaultSimEngine engine(net);
  int visits = 0;
  engine.run_batch(
      capture, {spec},
      [&](int, const FaultSpec&, const FaultView& v) {
        ++visits;
        check(v);
      },
      /*num_threads=*/1);
  EXPECT_EQ(visits, 1);
}

TEST(TransitionFaultTest, SlowToRiseHoldsZero) {
  // Single buffer: y = a. Launch a=0, capture a=1: slow-to-rise keeps 0.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId y = net.add_buf(a, "y");
  net.add_po("y", y);

  PatternSet launch(1, 1), capture(1, 1);
  launch.set_word(0, 0, 0b0011);   // patterns 0,1 launch at 1; 2,3 at 0
  capture.set_word(0, 0, 0b0101);  // capture values
  inject_transition(net, launch, capture, {y, /*slow_to_rise=*/true},
                    [&](const FaultView& v) {
    // Pattern 2: 0 -> 1 rising: faulty stays 0. Pattern 0: 1 -> 1 stays 1.
    EXPECT_EQ(v.faulty(y)[0] & 0xF, 0b0001u);
    // The fault acts exactly on the launched (rising) patterns.
    EXPECT_EQ((v.faulty(y)[0] ^ v.golden(y)[0]) & 0xF, 0b0100u);
  });
  inject_transition(net, launch, capture, {y, /*slow_to_rise=*/false},
                    [&](const FaultView& v) {
    // Falling pattern 1 (1 -> 0): faulty stays 1.
    EXPECT_EQ(v.faulty(y)[0] & 0xF, 0b0111u);
    EXPECT_EQ((v.faulty(y)[0] ^ v.golden(y)[0]) & 0xF, 0b0010u);
  });
}

TEST(TransitionFaultTest, FaultPropagatesThroughCone) {
  // y = a & b: a slow-to-rise at the AND output shows at y only when the
  // output actually rises.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "g");
  NodeId z = net.add_not(y, "z");
  net.add_po("z", z);

  PatternSet launch(2, 1), capture(2, 1);
  // One pattern: a,b launch 0,1 -> capture 1,1 (output rises 0 -> 1).
  launch.set_word(0, 0, 0b0);
  launch.set_word(1, 0, 0b1);
  capture.set_word(0, 0, 0b1);
  capture.set_word(1, 0, 0b1);
  inject_transition(net, launch, capture, {y, true},
                    [&](const FaultView& v) {
    EXPECT_EQ(v.golden(z)[0] & 1, 0u);  // fault-free: z = ~(1&1) = 0
    EXPECT_EQ(v.faulty(z)[0] & 1, 1u);  // stale 0 at y -> z = 1
  });
}

TEST(TransitionFaultTest, NoTransitionNoEffect) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId y = net.add_buf(a, "y");
  net.add_po("y", y);
  PatternSet same(1, 1);
  same.set_word(0, 0, 0xF0F0F0F0F0F0F0F0ULL);
  for (bool slow_to_rise : {true, false}) {
    inject_transition(net, same, same, {y, slow_to_rise},
                      [&](const FaultView& v) {
      EXPECT_FALSE(v.touched(y));
      EXPECT_EQ(v.faulty(y)[0], v.golden(y)[0]);
    });
  }
}

TEST(TransitionFaultTest, EnumerationCoversPiStemsAndLogicNodesTwice) {
  // Both polarities of every PI fanout stem and every gate output: slow
  // transitions on input lines are defect sites too (they used to be
  // skipped, leaving PI delay faults unobservable in every measurement).
  Network net = make_benchmark("c17");
  EXPECT_EQ(enumerate_transition_faults(net).size(),
            2u * (net.num_logic_nodes() + net.num_pis()));
}

TEST(TransitionFaultTest, PiStemTransitionIsEnumeratedAndDetected) {
  // y = a & b observed directly at a PO: a slow-to-rise on PI stem `a`
  // (launch a=0, capture a=1, b=1) holds the stale 0 and flips y.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "y");
  net.add_po("y", y);

  auto faults = enumerate_transition_faults(net);
  bool pi_rise_listed = false;
  for (const TransitionFault& f : faults) {
    pi_rise_listed = pi_rise_listed || (f.node == a && f.slow_to_rise);
  }
  EXPECT_TRUE(pi_rise_listed);

  PatternSet launch(2, 1), capture(2, 1);
  launch.set_word(0, 0, 0b0);   // a: 0 -> 1 (rising)
  launch.set_word(1, 0, 0b1);   // b: steady 1
  capture.set_word(0, 0, 0b1);
  capture.set_word(1, 0, 0b1);
  inject_transition(net, launch, capture, {a, /*slow_to_rise=*/true},
                    [&](const FaultView& v) {
    EXPECT_EQ(v.golden(y)[0] & 1, 1u);  // fault-free capture: y = 1
    // The stale 0 on the stem propagates: the fault is detected at the PO.
    EXPECT_EQ(v.faulty(y)[0] & 1, 0u);
  });
}

TEST(DelayCedTest, DelayFaultsAreDetectedByTheSameCheckers) {
  // Perfect check generator on an AND cone: delay faults produce
  // unidirectional capture errors that the stuck-at checkers flag.
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId c = net.add_pi("c");
  net.add_po("y", net.add_and(net.add_and(a, b), c));
  Network mapped = technology_map(net);
  CedDesign ced =
      build_ced_design(mapped, mapped, {ApproxDirection::kZeroApprox});
  DelayCoverageOptions opt;
  opt.num_fault_samples = 300;
  // Gate-level faults only: this asserts the paper's claim about checker
  // reuse for *gate* delay faults. PI-stem faults are common mode in an
  // exact-duplicate CED (see the test below) and would dilute coverage.
  opt.include_pi_stems = false;
  CoverageResult cov = evaluate_delay_fault_coverage(ced, opt);
  EXPECT_GT(cov.erroneous, 0);
  // An AND cone is mostly-0: slow-to-fall faults dominate the erroneous
  // captures (0->1 direction at the output), which the 0-approx checker
  // catches.
  EXPECT_GT(cov.coverage(), 0.5);
}

TEST(DelayCedTest, PiStemFaultsAreCommonModeInExactDuplication) {
  // A slow PI stem feeds the functional circuit and the check-symbol
  // generator the same stale value: the capture is erroneous, but the
  // rails agree — structurally undetectable by duplication. The erroneous
  // count must rise when PI stems are sampled while detection stays capped
  // at the gate-fault level (this is why include_pi_stems exists and why
  // the headline gate-level claim excludes stems).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  NodeId y = net.add_and(a, b, "y");
  net.add_po("y", y);
  Network mapped = technology_map(net);
  CedDesign ced =
      build_ced_design(mapped, mapped, {ApproxDirection::kZeroApprox});

  PatternSet launch(2, 1), capture(2, 1);
  launch.set_word(0, 0, 0b0);  // a: 0 -> 1 rising
  launch.set_word(1, 0, 0b1);  // b: steady 1
  capture.set_word(0, 0, 0b1);
  capture.set_word(1, 0, 0b1);
  inject_transition(ced.design, launch, capture, {a, /*slow_to_rise=*/true},
                    [&](const FaultView& v) {
    const NodeId out = ced.functional_outputs[0];
    // The functional output is erroneous...
    EXPECT_NE(v.faulty(out)[0] & 1, v.golden(out)[0] & 1);
    // ...but the rails agree exactly where duplication would flag an
    // error only if the two copies diverged — they cannot, the stale
    // input is common to both. Rails agree <=> error flagged; here they
    // must *disagree* (no detection).
    const uint64_t z1 = v.faulty(ced.error_pair.rail1)[0] & 1;
    const uint64_t z2 = v.faulty(ced.error_pair.rail2)[0] & 1;
    EXPECT_NE(z1, z2);
  });
}

TEST(DelayCedTest, CoverageBoundedAndDeterministic) {
  Network net = make_benchmark("cmp4");
  Network opt = quick_synthesis(net);
  Network mapped = technology_map(opt);
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);
  DelayCoverageOptions dopt;
  dopt.num_fault_samples = 200;
  CoverageResult one = evaluate_delay_fault_coverage(ced, dopt);
  CoverageResult two = evaluate_delay_fault_coverage(ced, dopt);
  EXPECT_EQ(one.detected, two.detected);
  EXPECT_LE(one.detected, one.erroneous);
}

// Counts recorded from the two-simulator transition path the engine
// replaced (same mt19937_64 draws per sample): the launch-gated stuck-at
// site must reproduce them exactly.
TEST(DelayCedTest, CoverageReproducesPinnedCounts) {
  Network net = make_benchmark("cmp4");
  Network mapped = technology_map(quick_synthesis(net));
  std::vector<ApproxDirection> dirs(net.num_pos(),
                                    ApproxDirection::kZeroApprox);
  CedDesign ced = build_ced_design(mapped, mapped, dirs);
  DelayCoverageOptions dopt;
  dopt.num_fault_samples = 200;
  CoverageResult stems = evaluate_delay_fault_coverage(ced, dopt);
  EXPECT_EQ(stems.runs, 51200);
  EXPECT_EQ(stems.erroneous, 3400);
  EXPECT_EQ(stems.detected, 1364);
  dopt.include_pi_stems = false;
  CoverageResult gates = evaluate_delay_fault_coverage(ced, dopt);
  EXPECT_EQ(gates.runs, 51200);
  EXPECT_EQ(gates.erroneous, 3467);
  EXPECT_EQ(gates.detected, 1742);
}

}  // namespace
}  // namespace apx
