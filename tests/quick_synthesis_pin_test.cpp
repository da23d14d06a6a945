// Bit-identity pins for quick synthesis, mapping and approximate synthesis.
// The values were captured from the flow as it stood before the quick-
// synthesis options became constants; any change to what either substrate
// (SOP pass below kAigQuickSynthesisThreshold, AIG rewriting at or above
// it), the mapper or the synthesis engine emits shows up here as a hash
// mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "mapping/mapper.hpp"
#include "mapping/optimize.hpp"
#include "network/bench_format.hpp"
#include "network/ordering.hpp"

namespace apx {
namespace {

struct NetworkPin {
  const char* name;
  uint64_t quick_synthesis_hash;
  uint64_t mapped_hash;
};

// network_content_hash of quick_synthesis(make_benchmark(name)) and of its
// technology_map output: every benchmark_names() entry, then the two large
// circuits that take the AIG route.
const NetworkPin kNetworkPins[] = {
    {"c17", 0x43b4da3ba9b585abULL, 0x0366e878bec9579eULL},
    {"fadd", 0xc5ba98ab37489388ULL, 0xddc905d2b3db1252ULL},
    {"rca4", 0xd6a65956c9c3b71bULL, 0x683c607cf791a561ULL},
    {"rca8", 0xaaee518a225a832aULL, 0xb75f19769c28c9aeULL},
    {"rca16", 0x9e0e933e0179fff1ULL, 0xaacf6d83714ccea2ULL},
    {"mux41", 0x3948ba2e59a0caf4ULL, 0x08c015201d1ab27aULL},
    {"dec38", 0xfdf29dc120ec5ac3ULL, 0xe15e7578c33a1a98ULL},
    {"cmp4", 0x3c853181c920a5d0ULL, 0x56a79b38a9944c73ULL},
    {"cmp8", 0x6521a08fa855706cULL, 0x308934e620adc9d7ULL},
    {"cmp16", 0xdcdca1099b9065afULL, 0x256508344f62d488ULL},
    {"maj5", 0x76d470d7cc79ba5bULL, 0x333d22df93b7b950ULL},
    {"alu1", 0x288e5ced0e8553c2ULL, 0x035489d8fb9c3abbULL},
    {"cmb", 0x948c1f90a45b821cULL, 0xa366f869a0ac9c08ULL},
    {"cordic", 0xa03fed02311a5b8dULL, 0xc93b18e5d919e099ULL},
    {"term1", 0x2758e26d33285d0cULL, 0xfbdaf1e0ad3189a8ULL},
    {"x1", 0x4fa5df5f6df6d7deULL, 0xaf6b2234391cad39ULL},
    {"i2", 0xe9de75d2fd524d12ULL, 0x0b1596287b6f6bb9ULL},
    {"frg2", 0xe958280491595f49ULL, 0xdff6362cf5aee45eULL},
    {"dalu", 0xeae787fdd2d82faeULL, 0xcd709c98c4db6a35ULL},
    {"i10", 0x2f8ad62289a792bcULL, 0x8726262038e86b25ULL},
    {"i8", 0xaa41920dad644b82ULL, 0xa951394e2feaa588ULL},
    {"des", 0x3a1ed184611a16a5ULL, 0xb91c9009826b84a3ULL},
    {"mult32", 0x43fc1e59b6ffb390ULL, 0xa0c587b55894cb53ULL},
    {"aes_rp", 0x0e08250a846166dbULL, 0xa1544b1fd3f597d0ULL},
};

struct SynthesisPin {
  const char* name;
  uint64_t approx_bench_hash;  ///< FNV-1a of write_bench_string(approx)
  int repairs;
};

const SynthesisPin kSynthesisPins[] = {
    {"cmb", 0xede2963b4ad8922aULL, 0},
    {"term1", 0x45cc6ae9a5a006a0ULL, 7},
    {"x1", 0xa021f8c4c453ee2dULL, 26},
};

uint64_t fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(QuickSynthesisPinTest, PinsCoverTheWholeSuite) {
  std::vector<std::string> pinned;
  for (const NetworkPin& pin : kNetworkPins) pinned.push_back(pin.name);
  std::vector<std::string> expected = benchmark_names();
  expected.push_back("mult32");
  expected.push_back("aes_rp");
  EXPECT_EQ(pinned, expected);
}

TEST(QuickSynthesisPinTest, QuickSynthesisAndMappingAreBitIdentical) {
  for (const NetworkPin& pin : kNetworkPins) {
    const Network optimized = quick_synthesis(make_benchmark(pin.name));
    EXPECT_EQ(network_content_hash(optimized), pin.quick_synthesis_hash)
        << pin.name;
    EXPECT_EQ(network_content_hash(technology_map(optimized)),
              pin.mapped_hash)
        << pin.name;
  }
}

TEST(QuickSynthesisPinTest, ApproximateSynthesisIsBitIdentical) {
  for (const SynthesisPin& pin : kSynthesisPins) {
    const Network net = quick_synthesis(make_benchmark(pin.name));
    // Alternate directions so both approximation kinds are pinned.
    std::vector<ApproxDirection> dirs;
    for (int o = 0; o < net.num_pos(); ++o) {
      dirs.push_back(o % 2 == 0 ? ApproxDirection::kZeroApprox
                                : ApproxDirection::kOneApprox);
    }
    const ApproxResult r = synthesize_approximation(net, dirs);
    EXPECT_EQ(fnv1a(write_bench_string(r.approx)), pin.approx_bench_hash)
        << pin.name;
    EXPECT_EQ(r.repairs, pin.repairs) << pin.name;
  }
}

}  // namespace
}  // namespace apx
