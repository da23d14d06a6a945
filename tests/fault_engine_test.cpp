#include "sim/fault_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>

#include "benchmarks/benchmarks.hpp"
#include "faulted_copy.hpp"
#include "core/ced.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "core/trace.hpp"
#include "reliability/reliability.hpp"

namespace apx {
namespace {

Network random_network(uint32_t seed, int pis = 6, int gates = 30) {
  std::mt19937 rng(seed);
  Network net;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) {
    pool.push_back(net.add_pi("p" + std::to_string(i)));
  }
  for (int g = 0; g < gates; ++g) {
    NodeId a = pool[rng() % pool.size()];
    NodeId b = pool[rng() % pool.size()];
    switch (rng() % 3) {
      case 0: pool.push_back(net.add_and(a, b)); break;
      case 1: pool.push_back(net.add_or(a, b)); break;
      case 2: pool.push_back(net.add_xor(a, b)); break;
    }
  }
  net.add_po("f", pool.back());
  net.add_po("g", pool[pool.size() / 2]);
  return net;
}

CedDesign duplication_ced(const std::string& bench) {
  Network mapped = technology_map(quick_synthesis(make_benchmark(bench)));
  std::vector<ApproxDirection> dirs(mapped.num_pos(),
                                    ApproxDirection::kZeroApprox);
  return build_ced_design(mapped, mapped, dirs);
}

// Every single stuck-at of a random network, checked row by row against an
// independent reference: a faulted copy of the network run through a full
// Simulator pass (tests/faulted_copy.hpp).
TEST(FaultEngineTest, RunBatchMatchesSimulator) {
  Network net = random_network(11);
  std::vector<FaultSpec> faults = reference::single_stuck_at_specs(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), 4, 77);

  FaultSimEngine engine(net);
  std::atomic<int> visited{0};
  engine.run_batch(patterns, faults,
                   [&](int i, const FaultSpec& fault, const FaultView& view) {
                     EXPECT_EQ(fault.sites[0].node, faults[i].sites[0].node);
                     reference::expect_view_matches_faulted_copy(
                         net, patterns, fault, view);
                     ++visited;
                   });
  EXPECT_EQ(visited.load(), static_cast<int>(faults.size()));
}

// Satellite: run_batch's default num_threads used to be a hard-coded 1
// while every campaign-level option already defaulted to 0 = the
// APX_THREADS policy. The default is now 0, and results stay bit-identical
// between explicit 1 and the policy-resolved pool.
TEST(FaultEngineTest, RunBatchDefaultThreadsFollowsPolicyAndStaysIdentical) {
  Network net = random_network(21);
  std::vector<FaultSpec> faults = reference::single_stuck_at_specs(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), 4, 99);
  FaultSimEngine engine(net);

  auto fingerprint = [&](int num_threads) {
    std::vector<uint64_t> sums(faults.size(), 0);
    engine.run_batch(
        patterns, faults,
        [&](int i, const FaultSpec&, const FaultView& view) {
          uint64_t h = 0;
          for (NodeId id = 0; id < net.num_nodes(); ++id) {
            for (int w = 0; w < view.num_words(); ++w) {
              h = h * 1099511628211ULL ^ (view.faulty(id)[w] & view.word_mask(w));
            }
          }
          sums[i] = h;
        },
        num_threads);
    return sums;
  };

  // 0 resolves through apx::thread_count() (APX_THREADS policy) — the
  // same resolution CampaignOptions uses.
  const std::vector<uint64_t> policy = fingerprint(0);
  const std::vector<uint64_t> serial = fingerprint(1);
  const std::vector<uint64_t> four = fingerprint(4);
  EXPECT_EQ(policy, serial);
  EXPECT_EQ(policy, four);
}

TEST(FaultEngineTest, UnexcitedFaultLeavesViewGolden) {
  // y = a | !a is constant 1; stuck-at-1 on it never differs from golden,
  // so nothing may propagate (early fault dropping inside the engine).
  Network net;
  NodeId a = net.add_pi("a");
  NodeId y = net.add_or(a, net.add_not(a), "y");
  NodeId z = net.add_and(y, a, "z");
  net.add_po("z", z);
  FaultSimEngine engine(net);
  PatternSet patterns = PatternSet::random(1, 2, 3);
  engine.run_batch(patterns, {FaultSpec::stuck_at({y, true})},
                   [&](int, const FaultSpec&, const FaultView& view) {
                     EXPECT_FALSE(view.touched(y));
                     EXPECT_FALSE(view.touched(z));
                     for (int w = 0; w < view.num_words(); ++w) {
                       EXPECT_EQ(view.faulty(z)[w], view.golden(z)[w]);
                     }
                   });
}

TEST(FaultEngineTest, CampaignVisitsEverySampleExactlyOnce) {
  Network net = random_network(5);
  std::vector<FaultSpec> faults = reference::single_stuck_at_specs(net);
  FaultSimEngine engine(net);
  CampaignOptions opt;
  opt.num_fault_samples = 100;
  opt.faults_per_batch = 16;
  opt.num_threads = 4;
  // random_network leaves some gates with no fanout and no PO — legitimate
  // here, the test only counts visits. kAllow keeps them simulatable.
  opt.dead_sites = DeadSitePolicy::kAllow;
  std::vector<int> visits(opt.num_fault_samples, 0);
  engine.run_campaign(
      opt,
      [&](uint64_t s) { return faults[SplitMix64(s).next() % faults.size()]; },
      [&](int i, const FaultSpec&, const FaultView&) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(FaultEngineTest, SeedDerivationIsPureAndIndexStable) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  EXPECT_NE(derive_seed(42, 7), derive_seed(42, 8));
  EXPECT_NE(derive_seed(42, 7), derive_seed(43, 7));
}

// Satellite requirement (c): 4-thread coverage counts bit-identical to the
// single-threaded path for a fixed seed.
TEST(FaultEngineTest, CoverageCountsBitIdenticalAcrossThreadCounts) {
  CedDesign ced = duplication_ced("cmp4");
  CoverageOptions base;
  base.num_fault_samples = 400;
  base.faults_per_batch = 32;

  CoverageOptions one = base;
  one.num_threads = 1;
  CoverageResult r1 = evaluate_ced_coverage(ced, one);

  CoverageOptions four = base;
  four.num_threads = 4;
  CoverageResult r4 = evaluate_ced_coverage(ced, four);

  EXPECT_GT(r1.erroneous, 0);
  EXPECT_EQ(r1.runs, r4.runs);
  EXPECT_EQ(r1.erroneous, r4.erroneous);
  EXPECT_EQ(r1.detected, r4.detected);
}

TEST(FaultEngineTest, ReliabilityBitIdenticalAcrossThreadCounts) {
  Network mapped = technology_map(quick_synthesis(make_benchmark("dec38")));
  ReliabilityOptions one;
  one.num_fault_samples = 300;
  one.num_threads = 1;
  ReliabilityOptions four = one;
  four.num_threads = 4;
  ReliabilityReport r1 = analyze_reliability(mapped, one);
  ReliabilityReport r4 = analyze_reliability(mapped, four);
  ASSERT_EQ(r1.outputs.size(), r4.outputs.size());
  for (size_t o = 0; o < r1.outputs.size(); ++o) {
    EXPECT_DOUBLE_EQ(r1.outputs[o].rate_0_to_1, r4.outputs[o].rate_0_to_1);
    EXPECT_DOUBLE_EQ(r1.outputs[o].rate_1_to_0, r4.outputs[o].rate_1_to_0);
  }
  EXPECT_DOUBLE_EQ(r1.any_output_error_rate, r4.any_output_error_rate);
  EXPECT_DOUBLE_EQ(r1.max_ced_coverage, r4.max_ced_coverage);
}

TEST(FaultEngineTest, CampaignRejectsOutOfRangeFaultSites) {
  Network net = random_network(3);
  FaultSimEngine engine(net);
  CampaignOptions opt;
  opt.num_fault_samples = 4;
  EXPECT_THROW(
      engine.run_campaign(
          opt,
          [&](uint64_t) {
            return FaultSpec::stuck_at({net.num_nodes(), false});
          },
          [](int, const FaultSpec&, const FaultView&) {}),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// Differential tests of the compiled cone walk against the faulted-copy
// reference, on the shapes the gate program has to get right: node ids out
// of level order, a node wider than any small fanin buffer, a kEmpty cube
// position, row widths around the fixed 4-word instantiation with a padded
// tail, and multi-site, transient and gated specs.
// ---------------------------------------------------------------------------

constexpr int kWideFanins = 40;

// A random gate pool plus three awkward nodes:
//   * `late`, a two-gate chain appended last and then made a fanin of the
//     pool's first gate, so that gate's id is below its fanins' ids (and,
//     with over 64 nodes, in an earlier word of the rank bitset);
//   * a 40-fanin node whose cubes reach SOP variables past the first
//     32-position word of a Cube;
//   * a node whose first cube holds a kEmpty position (read as negated).
Network awkward_network() {
  Network net = random_network(5, /*pis=*/6, /*gates=*/80);
  std::mt19937 rng(17);
  std::vector<NodeId> pool;
  for (NodeId id = 0; id < net.num_nodes(); ++id) pool.push_back(id);
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(kWideFanins);

  Sop wide(kWideFanins);
  for (int c = 0; c < 4; ++c) {
    Cube cube(kWideFanins);
    for (int l = 0; l < 3; ++l) {
      cube.set(static_cast<int>(rng() % kWideFanins),
               rng() & 1 ? LitCode::kPos : LitCode::kNeg);
    }
    wide.add_cube(cube);
  }
  const NodeId wide_node = net.add_node(pool, wide, "wide");

  // The vector constructor keeps the kEmpty cube (add_cube would drop it).
  Cube odd(3);
  odd.set(0, LitCode::kPos);
  odd.set(1, LitCode::kEmpty);
  Cube plain(3);
  plain.set(2, LitCode::kNeg);
  const Sop with_empty(3, {odd, plain});
  const NodeId empty_node =
      net.add_node({pool[0], pool[1], wide_node}, with_empty, "empty_pos");

  const std::vector<NodeId>& pis = net.pis();
  const NodeId late =
      net.add_xor(net.add_or(pis[3], pis[4]), pis[5], "late");
  const NodeId first_gate = net.pis().back() + 1;
  Node& g = net.node(first_gate);
  std::vector<NodeId> fanins = g.fanins;
  fanins[0] = late;
  net.set_function(first_gate, fanins, g.sop);

  net.add_po("wide", wide_node);
  net.add_po("empty_pos", empty_node);
  net.check();
  return net;
}

// Every single stuck-at of the network, a multi-site spec with its second
// site inside the first's cone, a transient burst and a gated site.
std::vector<FaultSpec> awkward_specs(const Network& net, int num_vectors,
                                     const std::vector<uint64_t>& gate) {
  std::vector<FaultSpec> specs = reference::single_stuck_at_specs(net);
  const NodeId first_gate = net.pis().back() + 1;
  const NodeId late = *net.find_node("late");
  const NodeId wide = *net.find_node("wide");
  FaultSpec nested;
  nested.add({late, false, false, 0, 0});
  nested.add({first_gate, true, false, 0, 0});  // inside late's cone
  nested.add({wide, true, false, 0, 0});
  specs.push_back(nested);
  FaultSite burst{wide, false, true, 3, std::min(70, num_vectors - 3)};
  FaultSpec transient;
  transient.add(burst);
  specs.push_back(transient);
  FaultSite gated{*net.find_node("empty_pos"), true};
  gated.gate = gate.data();
  FaultSpec gated_spec;
  gated_spec.add(gated);
  specs.push_back(gated_spec);
  return specs;
}

TEST(CompiledWalkTest, AwkwardNetworkHasTheShapesUnderTest) {
  const Network net = awkward_network();
  const NodeId first_gate = net.pis().back() + 1;
  EXPECT_GE(net.node(first_gate).fanins[0] / 64, first_gate / 64 + 1)
      << "a fanin id a bitset word above its consumer's id: ids are not in "
         "level order";
  EXPECT_EQ(net.node(*net.find_node("wide")).fanins.size(),
            static_cast<size_t>(kWideFanins));
  EXPECT_EQ(net.node(*net.find_node("empty_pos")).sop.cube(0).get(1),
            LitCode::kEmpty);
}

TEST(CompiledWalkTest, MatchesFaultedCopyAtEveryRowWidthWithPaddedTail) {
  const Network net = awkward_network();
  FaultSimEngine engine(net);
  for (int words : {1, 3, 4, 5, 8}) {
    const int vectors = 64 * words - 5;  // padded final word
    PatternSet patterns =
        PatternSet::random(net.num_pis(), words, 0x3A1 + words);
    std::vector<uint64_t> gate(words);
    for (int w = 0; w < words; ++w) gate[w] = derive_seed(0x6A7E, w);
    const std::vector<FaultSpec> specs = awkward_specs(net, vectors, gate);
    std::atomic<int> visited{0};
    engine.run_batch(
        patterns, specs,
        [&](int, const FaultSpec& spec, const FaultView& view) {
          ASSERT_EQ(view.num_words(), words);
          reference::expect_view_matches_faulted_copy(net, patterns, spec,
                                                      view);
          ++visited;
        },
        /*num_threads=*/1, vectors);
    EXPECT_EQ(visited.load(), static_cast<int>(specs.size()))
        << words << " word(s)";
  }
}

TEST(CompiledWalkTest, GateEvalsCounterCountsOnlyWhileTracing) {
  const Network net = awkward_network();
  FaultSimEngine engine(net);
  PatternSet patterns = PatternSet::random(net.num_pis(), 4, 0x9E);
  const std::vector<FaultSpec> specs = reference::single_stuck_at_specs(net);
  trace::Counter& evals = trace::counter("faultsim.gate_evals");
  const bool was_enabled = trace::enabled();
  trace::set_trace_enabled(false);
  const int64_t before = evals.value();
  engine.run_batch(patterns, specs,
                   [](int, const FaultSpec&, const FaultView&) {}, 2);
  EXPECT_EQ(evals.value(), before) << "published while tracing was off";
  trace::set_trace_enabled(true);
  engine.run_batch(patterns, specs,
                   [](int, const FaultSpec&, const FaultView&) {}, 2);
  const int64_t traced = evals.value() - before;
  trace::set_trace_enabled(was_enabled);
  // Every excited site evaluates at least its fanouts; a walk never
  // evaluates a gate twice, so no fault exceeds the node count.
  EXPECT_GT(traced, 0);
  EXPECT_LE(traced, static_cast<int64_t>(specs.size()) * net.num_nodes());
}

}  // namespace
}  // namespace apx
