// The two timed workloads plus the traced-only scale probe, and the two
// ways of running one circuit of them: straight through the program's
// public entry points (the measured path)
// and as a stepwise replay of run_ced_pipeline with a timer around every
// public call (the traced path, whose outputs must be bit-identical).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/partial_duplication.hpp"
#include "check.hpp"
#include "core/pipeline.hpp"

namespace cedbench {

struct Workload {
  std::string name;
  std::vector<std::string> circuits;
  /// Clear the process-wide OrderCache before every circuit (what each
  /// one-shot CLI invocation pays).
  bool cold = true;
  /// Run a full Table-2 row per circuit instead of one pipeline.
  bool table2_row = false;
  /// Fault samples of every campaign (x 256 vectors each).
  int campaign_samples = 2000;
  size_t bdd_budget = size_t{1} << 18;
  int64_t sat_conflict_budget = 5000;
  /// Set-up repetitions whose median is reported as setup_s.
  int setup_repeats = 5;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// mult32 cold at the CLI defaults with bench_aig's fail-fast oracle
/// budgets. It is not a timed workload (its pass time follows the shared
/// host's contention, see README.md "Steadiness"); the traced run
/// of every workload runs it once to measure the AIG quick-synthesis path
/// and the SAT fallback, which no Table-2 circuit reaches.
const Workload& scale_probe_workload();

/// Per-purpose seeds derived from the workload seed and the circuit index.
/// The reliability campaign keeps the library's default seed: it picks
/// each PO's approximation direction, so seeding it would change which
/// circuit gets synthesized (see README.md, "Seeds").
struct Seeds {
  uint64_t coverage = 0;
  uint64_t pdup = 0;
  uint64_t check = 0;
};
Seeds derive_seeds(uint64_t workload_seed, int circuit_index);

/// A pinned circuit with everything the checks need.
struct Circuit {
  std::string name;
  apx::Network net;
  Seeds seeds;
  std::vector<std::vector<uint64_t>> check_words;
  std::unique_ptr<Evaluation> reference;  ///< net under check_words
};

/// Wall time per named layer, accumulated by the traced replay, plus the
/// time and samples of the fault-simulation campaigns inside those layers.
class LayerClock {
 public:
  template <typename F>
  auto time(const std::string& layer, F&& body) {
    const Stopwatch stop(seconds_[layer]);
    return body();
  }
  /// Times a campaign of `samples` fault samples (counted toward
  /// sim.faults_per_s; the time also stays in the enclosing layer).
  template <typename F>
  auto campaign(int64_t samples, F&& body) {
    campaign_samples_ += samples;
    const Stopwatch stop(campaign_seconds_);
    return body();
  }
  const std::map<std::string, double>& seconds() const { return seconds_; }
  double campaign_seconds() const { return campaign_seconds_; }
  int64_t campaign_samples() const { return campaign_samples_; }

 private:
  // Adds the time between construction and destruction to `sink`.
  class Stopwatch {
   public:
    explicit Stopwatch(double& sink)
        : sink_(sink), t0_(std::chrono::steady_clock::now()) {}
    ~Stopwatch() {
      sink_ += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
                   .count();
    }
    Stopwatch(const Stopwatch&) = delete;
    Stopwatch& operator=(const Stopwatch&) = delete;

   private:
    double& sink_;
    std::chrono::steady_clock::time_point t0_;
  };

  std::map<std::string, double> seconds_;
  double campaign_seconds_ = 0.0;
  int64_t campaign_samples_ = 0;
};

/// Everything one circuit of a workload produced.
struct RowOutcome {
  apx::PipelineResult plain;
  std::optional<apx::PipelineResult> shared;
  std::optional<apx::CedDesign> parity;
  apx::CoverageResult parity_cov;
  apx::OverheadReport parity_over;
  std::optional<apx::PartialDuplicationResult> pdup;
  apx::CoverageResult pdup_cov;
  apx::OverheadReport pdup_over;
};

/// Runs one circuit through the program's public entry points. With a
/// clock, run_ced_pipeline is replayed step by step and every call is
/// timed into its layer; the outputs are the same.
RowOutcome run_row(const Workload& w, const Circuit& c, LayerClock* clock);

/// Exact fingerprint of a row's outputs (gates, design hashes, coverage
/// counts, per-PO verdicts and percentages as hex floats): two runs
/// agree iff their digests are equal.
std::string digest(const RowOutcome& row);

/// The paper's three promises on every design the row emitted.
void check_row(const RowOutcome& row, const Circuit& c, CheckLog& log);

/// Quality of the approximate-CED design (no logic sharing).
struct Quality {
  int64_t erroneous = 0;  ///< coverage campaign: runs with a wrong PO
  int64_t detected = 0;   ///< ... of which the error pair flagged
  double coverage_pct = 0.0;
  double area_overhead_pct = 0.0;
  double power_overhead_pct = 0.0;
  double approx_pct = 0.0;
  int pos = 0;
  int verified_pos = 0;
};
Quality quality(const RowOutcome& row);

}  // namespace cedbench
