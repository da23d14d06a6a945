// Scalability study (paper Sec. 4 prose: the synthesis "scales with circuit
// size"; i10 — the largest benchmark — synthesized in 5m28s on 2007-era
// hardware). Times the synthesis stages across the benchmark size ladder:
// each row is the median of kRuns runs with the min and max beside it.
// approx_synthesis rows also print network_content_hash of the result, so
// a speedup can be checked against an unchanged output.
// APXCED_SCALE scales the fault-sample budgets; APXCED_THREADS caps the
// parallel suite row (default: all hardware threads).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/approx_synthesis.hpp"
#include "core/pipeline.hpp"
#include "core/task_pool.hpp"
#include "mapping/optimize.hpp"
#include "network/ordering.hpp"
#include "reliability/reliability.hpp"

namespace {

using namespace apx;
using apx::bench::Stopwatch;

const char* kLadder[] = {"cmb", "cordic", "term1", "x1", "i2", "frg2"};
constexpr int kRuns = 5;

struct Timing {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

Timing time_runs(const std::function<void()>& work) {
  std::vector<double> ms;
  for (int i = 0; i < kRuns; ++i) {
    Stopwatch watch;
    work();
    ms.push_back(1000.0 * watch.seconds());
  }
  std::sort(ms.begin(), ms.end());
  return {ms[kRuns / 2], ms.front(), ms.back()};
}

void print_row(const char* stage, const std::string& row, int64_t gates,
               const Timing& t, const std::string& note = "") {
  std::printf("%-22s %-11s %7lld %11.2f %9.2f %9.2f %s\n", stage, row.c_str(),
              static_cast<long long>(gates), t.median_ms, t.min_ms, t.max_ms,
              note.c_str());
}

}  // namespace

int main() {
  const int samples = bench::scaled(300);
  std::printf("Scalability across the benchmark ladder (median of %d runs; "
              "%d fault samples)\n\n",
              kRuns, samples);
  std::printf("%-22s %-11s %7s %11s %9s %9s %s\n", "stage", "circuit",
              "gates", "median_ms", "min_ms", "max_ms", "approx_hash");

  std::vector<Network> nets;
  for (const char* name : kLadder) nets.push_back(make_benchmark(name));

  for (size_t i = 0; i < nets.size(); ++i) {
    const Network optimized = quick_synthesis(nets[i]);
    const Network mapped = technology_map(optimized);
    const int64_t gates = mapped.num_logic_nodes();
    ReliabilityOptions rel_opt;
    rel_opt.num_fault_samples = samples;
    const std::vector<ApproxDirection> dirs =
        choose_directions(analyze_reliability(mapped, rel_opt));
    ApproxOptions opt;
    opt.significance_threshold = 0.12;

    uint64_t approx_hash = 0;
    const Timing t = time_runs([&] {
      approx_hash = network_content_hash(
          synthesize_approximation(optimized, dirs, opt).approx);
    });
    char note[32];
    std::snprintf(note, sizeof(note), "%016llx",
                  static_cast<unsigned long long>(approx_hash));
    print_row("approx_synthesis", kLadder[i], gates, t, note);
    print_row("reliability_analysis", kLadder[i], gates,
              time_runs([&] { analyze_reliability(mapped, rel_opt); }));
    print_row("technology_map", kLadder[i], gates,
              time_runs([&] { technology_map(optimized); }));
  }

  // Whole-suite scaling on the shared task pool: every circuit of the
  // ladder runs as one run_ced_pipeline task, and the per-row tasks plus
  // their inner fault campaigns share the pool's workers (cap 1 = serial
  // reference). Per-row results are bit-identical across caps by the
  // pool's determinism contract.
  for (int threads : {1, bench::bench_threads()}) {
    PipelineOptions opt;
    opt.approx.significance_threshold = 0.12;
    opt.reliability.num_fault_samples = samples;
    opt.coverage.num_fault_samples = samples;
    // Cap the inner loops too, so cap 1 is a genuinely serial reference.
    opt.approx.num_threads = threads;
    opt.reliability.num_threads = threads;
    opt.coverage.num_threads = threads;
    int64_t gates = 0;
    const Timing t = time_runs([&] {
      std::vector<PipelineResult> rows(nets.size());
      TaskPool::instance().parallel_for(
          0, static_cast<int64_t>(nets.size()),
          [&](int64_t i) { rows[i] = run_ced_pipeline(nets[i], opt); },
          threads);
      gates = 0;
      for (const PipelineResult& r : rows) {
        gates += r.mapped_original.num_logic_nodes();
      }
    });
    print_row("pipeline_suite",
              threads == 0 ? "threads=all"
                           : "threads=" + std::to_string(threads),
              gates, t);
  }
  return 0;
}
