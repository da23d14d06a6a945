#include "reliability/reliability.hpp"

#include <gtest/gtest.h>

namespace apx {
namespace {

// A wide AND cone: output is 1 rarely, so faults overwhelmingly cause
// 0->1 errors => 0-approximation must dominate.
Network and_cone(int width) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < width; ++i) pis.push_back(net.add_pi("x" + std::to_string(i)));
  NodeId acc = pis[0];
  for (int i = 1; i < width; ++i) acc = net.add_and(acc, pis[i]);
  net.add_po("f", acc);
  return net;
}

Network or_cone(int width) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < width; ++i) pis.push_back(net.add_pi("x" + std::to_string(i)));
  NodeId acc = pis[0];
  for (int i = 1; i < width; ++i) acc = net.add_or(acc, pis[i]);
  net.add_po("f", acc);
  return net;
}

TEST(ReliabilityTest, AndConeSkewsToZeroApprox) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 400;
  ReliabilityReport r = analyze_reliability(and_cone(6), opt);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_GT(r.outputs[0].rate_0_to_1, r.outputs[0].rate_1_to_0);
  EXPECT_EQ(r.outputs[0].dominant(), ApproxDirection::kZeroApprox);
  EXPECT_GT(r.outputs[0].skew(), 0.8);
  EXPECT_GT(r.max_ced_coverage, 0.8);
  EXPECT_LE(r.max_ced_coverage, 1.0 + 1e-12);
}

TEST(ReliabilityTest, OrConeSkewsToOneApprox) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 400;
  ReliabilityReport r = analyze_reliability(or_cone(6), opt);
  EXPECT_EQ(r.outputs[0].dominant(), ApproxDirection::kOneApprox);
  EXPECT_GT(r.outputs[0].rate_1_to_0, r.outputs[0].rate_0_to_1);
}

TEST(ReliabilityTest, XorHasNoSkew) {
  Network net;
  NodeId a = net.add_pi("a");
  NodeId b = net.add_pi("b");
  net.add_po("f", net.add_xor(a, b));
  ReliabilityOptions opt;
  opt.num_fault_samples = 500;
  ReliabilityReport r = analyze_reliability(net, opt);
  // XOR output is unbiased; the two directions should be within noise.
  EXPECT_NEAR(r.outputs[0].rate_0_to_1, r.outputs[0].rate_1_to_0, 0.05);
  // Max coverage therefore hovers near the dominant share (about half).
  EXPECT_LT(r.max_ced_coverage, 0.75);
}

TEST(ReliabilityTest, RatesAreConsistent) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 300;
  Network net = and_cone(4);
  ReliabilityReport r = analyze_reliability(net, opt);
  EXPECT_GT(r.runs, 0);
  // Single output: any_output_error_rate equals the output's total rate.
  EXPECT_NEAR(r.any_output_error_rate, r.outputs[0].total_rate(), 1e-12);
  // Determinism for a fixed seed.
  ReliabilityReport r2 = analyze_reliability(net, opt);
  EXPECT_DOUBLE_EQ(r.any_output_error_rate, r2.any_output_error_rate);
  EXPECT_DOUBLE_EQ(r.max_ced_coverage, r2.max_ced_coverage);
}

TEST(ReliabilityTest, ChooseDirectionsMatchesDominant) {
  ReliabilityOptions opt;
  opt.num_fault_samples = 200;
  Network net = and_cone(4);
  NodeId a = net.pis()[0];
  NodeId b = net.pis()[1];
  net.add_po("g", net.add_or(a, b));
  ReliabilityReport r = analyze_reliability(net, opt);
  auto dirs = choose_directions(r);
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], ApproxDirection::kZeroApprox);
  EXPECT_EQ(dirs[1], ApproxDirection::kOneApprox);
}

// A vector count that is not a multiple of 64: every rate is normalized by
// the vectors actually simulated, so runs = samples * 100 and no rate can
// leave [0, 1] (the padding bits of the final word never count).
TEST(ReliabilityTest, VectorsPerFaultSetsRunsAndKeepsRatesInRange) {
  Network net = and_cone(6);
  net.add_po("g", net.add_or(net.pis()[0], net.pis()[1]));
  ReliabilityOptions opt;
  opt.num_fault_samples = 300;
  opt.vectors_per_fault = 100;
  ReliabilityReport r = analyze_reliability(net, opt);
  EXPECT_EQ(r.runs, int64_t{300} * 100);
  ASSERT_EQ(r.outputs.size(), 2u);
  for (const OutputErrorProfile& p : r.outputs) {
    EXPECT_GE(p.rate_0_to_1, 0.0);
    EXPECT_GE(p.rate_1_to_0, 0.0);
    EXPECT_LE(p.total_rate(), 1.0);
  }
  EXPECT_GT(r.any_output_error_rate, 0.0);
  EXPECT_LE(r.any_output_error_rate, 1.0);
  EXPECT_GE(r.max_ced_coverage, 0.0);
  EXPECT_LE(r.max_ced_coverage, 1.0);
}

TEST(ReliabilityTest, EmptyNetworkYieldsEmptyReport) {
  Network net;
  net.add_pi("a");
  ReliabilityReport r = analyze_reliability(net);
  EXPECT_EQ(r.runs, 0);
  EXPECT_TRUE(r.outputs.empty());
}

}  // namespace
}  // namespace apx
