#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "baselines/parity.hpp"
#include "mapping/optimize.hpp"
#include "network/ordering.hpp"

namespace cedbench {

namespace {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    const std::vector<std::string> table2 = {"cmb", "cordic", "term1", "x1",
                                             "i2"};
    Workload cold;
    cold.name = "ced_cold";
    cold.circuits = table2;
    cold.setup_repeats = 100;

    Workload warm;
    warm.name = "table2_warm";
    warm.circuits = table2;
    warm.cold = false;
    warm.table2_row = true;
    warm.campaign_samples = 25000;
    warm.setup_repeats = 5;

    return std::vector<Workload>{cold, warm};
  }();
  return all;
}

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

apx::PipelineOptions pipeline_options(const Workload& w, const Seeds& s,
                                      bool sharing) {
  // `apxced ced` defaults: threshold 0.2, equal reliability and coverage
  // budgets, everything else at the library defaults.
  apx::PipelineOptions opt;
  opt.approx.significance_threshold = 0.2;
  opt.approx.bdd_budget = w.bdd_budget;
  opt.approx.sat_conflict_budget = w.sat_conflict_budget;
  opt.reliability.num_fault_samples = w.campaign_samples;
  opt.coverage.num_fault_samples = w.campaign_samples;
  opt.coverage.seed = s.coverage;
  opt.logic_sharing = sharing;
  return opt;
}

// run_ced_pipeline (src/core/pipeline.cpp), one timed public call at a
// time. Any divergence from the real entry point shows up as a digest
// mismatch in the traced run.
apx::PipelineResult replay_pipeline(const apx::Network& net,
                                    const apx::PipelineOptions& options,
                                    LayerClock& clock) {
  apx::PipelineResult result;
  const apx::Network optimized = clock.time(
      "mapping.quick_synthesis_s", [&] { return apx::quick_synthesis(net); });
  result.mapped_original = clock.time("mapping.map_s", [&] {
    return apx::technology_map(optimized, options.map_options);
  });
  clock.time("reliability.analyze_s", [&] {
    clock.campaign(options.reliability.num_fault_samples, [&] {
      result.reliability =
          apx::analyze_reliability(result.mapped_original, options.reliability);
    });
    result.directions = apx::choose_directions(result.reliability);
  });
  result.synthesis = clock.time("core.synthesize_s", [&] {
    return apx::synthesize_approximation(optimized, result.directions,
                                         options.approx);
  });
  result.mapped_checkgen = clock.time("mapping.map_s", [&] {
    return apx::technology_map(result.synthesis.approx, options.map_options);
  });
  result.ced = clock.time("core.assemble_s", [&] {
    return apx::build_ced_design(result.mapped_original,
                                 result.mapped_checkgen, result.directions);
  });
  if (options.logic_sharing) {
    result.sharing = clock.time("core.logic_sharing_s", [&] {
      return apx::apply_logic_sharing(result.ced, options.sharing);
    });
  }
  result.coverage = clock.time("core.coverage_s", [&] {
    return clock.campaign(options.coverage.num_fault_samples, [&] {
      return apx::evaluate_ced_coverage(result.ced, options.coverage);
    });
  });
  clock.time("core.overheads_s", [&] {
    result.overheads = apx::measure_overheads(result.ced);
    result.original_delay = apx::mapped_delay(result.mapped_original);
    result.checkgen_delay = apx::mapped_delay(result.mapped_checkgen);
  });
  return result;
}

apx::PipelineResult pipeline(const Workload& w, const Circuit& c,
                             bool sharing, LayerClock* clock) {
  const apx::PipelineOptions opt = pipeline_options(w, c.seeds, sharing);
  return clock != nullptr ? replay_pipeline(c.net, opt, *clock)
                          : apx::run_ced_pipeline(c.net, opt);
}

// Runs `body` under `layer` when tracing, plainly otherwise.
template <typename F>
auto maybe_time(LayerClock* clock, const std::string& layer, F&& body) {
  if (clock != nullptr) return clock->time(layer, body);
  return body();
}

template <typename F>
auto maybe_campaign(LayerClock* clock, int64_t samples, F&& body) {
  if (clock != nullptr) return clock->campaign(samples, body);
  return body();
}

class Digest {
 public:
  void add(const char* key, long long v) { append(key, "%lld", v); }
  void add(const char* key, unsigned long long v) { append(key, "%016llx", v); }
  void add(const char* key, double v) { append(key, "%a", v); }
  void network(const char* key, const apx::Network& net) {
    add(key, static_cast<unsigned long long>(apx::network_content_hash(net)));
  }
  void coverage(const char* key, const apx::CoverageResult& c) {
    out_ += key;
    add(".runs", static_cast<long long>(c.runs));
    add(".erroneous", static_cast<long long>(c.erroneous));
    add(".detected", static_cast<long long>(c.detected));
  }
  void overheads(const apx::OverheadReport& o) {
    add("area.f", static_cast<long long>(o.functional_area));
    add("area.g", static_cast<long long>(o.checkgen_area));
    add("area.c", static_cast<long long>(o.checker_area));
    add("act.f", o.functional_activity);
    add("act.g", o.checkgen_activity);
    add("act.c", o.checker_activity);
  }
  void pipeline(const apx::PipelineResult& r) {
    network("mapped", r.mapped_original);
    network("checkgen", r.mapped_checkgen);
    network("approx", r.synthesis.approx);
    network("design", r.ced.design);
    add("gates.f", static_cast<long long>(r.mapped_original.num_logic_nodes()));
    add("gates.g", static_cast<long long>(r.mapped_checkgen.num_logic_nodes()));
    add("rel.runs", static_cast<long long>(r.reliability.runs));
    add("rel.max", r.reliability.max_ced_coverage);
    for (const apx::PoApproxStats& s : r.synthesis.po_stats) {
      add("po.dir", static_cast<long long>(s.direction));
      add("po.ok", static_cast<long long>(s.verified));
      add("po.pct", s.approximation_pct);
      add("po.sim", s.sim_violation_rate);
    }
    add("repairs", static_cast<long long>(r.synthesis.repairs));
    add("merged", static_cast<long long>(r.sharing.merged_nodes));
    coverage("cov", r.coverage);
    overheads(r.overheads);
    add("delay.f", static_cast<long long>(r.original_delay));
    add("delay.g", static_cast<long long>(r.checkgen_delay));
  }
  const std::string& str() const { return out_; }

 private:
  template <typename T>
  void append(const char* key, const char* fmt, T v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    out_ += key;
    out_ += '=';
    out_ += buf;
    out_ += ' ';
  }
  std::string out_;
};

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

const Workload& scale_probe_workload() {
  static const Workload mult = [] {
    Workload w;
    w.name = "scale_mult32";
    w.circuits = {"mult32"};
    // The fail-fast oracle budgets of bench_aig: at 64 PIs the oracle's
    // BDDs overflow any realistic budget, so the flow goes to SAT early.
    w.bdd_budget = size_t{1} << 15;
    w.sat_conflict_budget = 1000;
    return w;
  }();
  return mult;
}

Seeds derive_seeds(uint64_t workload_seed, int circuit_index) {
  const uint64_t base =
      mix(workload_seed ^ mix(static_cast<uint64_t>(circuit_index) + 1));
  return Seeds{mix(base ^ 0xCED), mix(base ^ 0xD0B1), mix(base ^ 0xC4EC)};
}

RowOutcome run_row(const Workload& w, const Circuit& c, LayerClock* clock) {
  RowOutcome row;
  row.plain = pipeline(w, c, /*sharing=*/false, clock);
  if (!w.table2_row) return row;
  row.shared = pipeline(w, c, /*sharing=*/true, clock);

  apx::CoverageOptions cov;
  cov.num_fault_samples = w.campaign_samples;
  cov.seed = c.seeds.coverage;
  maybe_time(clock, "baselines.parity_s", [&] {
    row.parity = apx::build_parity_ced(row.plain.mapped_original);
    row.parity_cov = maybe_campaign(clock, cov.num_fault_samples, [&] {
      return apx::evaluate_ced_coverage(*row.parity, cov);
    });
    row.parity_over = apx::measure_overheads(*row.parity);
  });
  maybe_time(clock, "baselines.pdup_s", [&] {
    apx::PartialDuplicationOptions pd;
    pd.num_fault_samples = w.campaign_samples;
    pd.seed = c.seeds.pdup;
    row.pdup = apx::build_partial_duplication(
        row.plain.mapped_original, row.plain.coverage.coverage(), pd);
    row.pdup_cov = maybe_campaign(clock, cov.num_fault_samples, [&] {
      return apx::evaluate_ced_coverage(row.pdup->ced, cov);
    });
    row.pdup_over = apx::measure_overheads(row.pdup->ced);
  });
  return row;
}

std::string digest(const RowOutcome& row) {
  Digest d;
  d.pipeline(row.plain);
  if (row.shared) d.pipeline(*row.shared);
  if (row.parity) {
    d.network("parity", row.parity->design);
    d.coverage("parity.cov", row.parity_cov);
    d.overheads(row.parity_over);
  }
  if (row.pdup) {
    d.network("pdup", row.pdup->ced.design);
    for (int po : row.pdup->duplicated_pos) {
      d.add("pdup.po", static_cast<long long>(po));
    }
    d.add("pdup.est", row.pdup->estimated_coverage);
    d.coverage("pdup.cov", row.pdup_cov);
    d.overheads(row.pdup_over);
  }
  return d.str();
}

void check_row(const RowOutcome& row, const Circuit& c, CheckLog& log) {
  const Evaluation& ref = *c.reference;
  const auto& words = c.check_words;
  check_equal_outputs(ref, row.plain.mapped_original, words,
                      c.name + " mapped", log);
  check_ced_design(ref, row.plain.ced, words, c.name + " approx-CED", log);
  check_implications(ref, row.plain.mapped_checkgen, row.plain.directions,
                     words, c.name + " check generator", log);
  if (row.shared) {
    check_ced_design(ref, row.shared->ced, words,
                     c.name + " approx-CED with sharing", log);
    check_implications(ref, row.shared->mapped_checkgen,
                       row.shared->directions, words,
                       c.name + " check generator (sharing run)", log);
  }
  if (row.parity) {
    check_ced_design(ref, *row.parity, words, c.name + " parity CED", log);
  }
  if (row.pdup) {
    check_ced_design(ref, row.pdup->ced, words,
                     c.name + " partial-duplication CED", log);
  }
}

Quality quality(const RowOutcome& row) {
  const apx::PipelineResult& r = row.plain;
  Quality q;
  q.erroneous = r.coverage.erroneous;
  q.detected = r.coverage.detected;
  q.coverage_pct = 100.0 * r.coverage.coverage();
  q.area_overhead_pct = r.overheads.area_overhead_pct();
  q.power_overhead_pct = r.overheads.power_overhead_pct();
  q.approx_pct = 100.0 * r.mean_approximation_pct();
  q.pos = static_cast<int>(r.synthesis.po_stats.size());
  for (const apx::PoApproxStats& s : r.synthesis.po_stats) {
    q.verified_pos += s.verified ? 1 : 0;
  }
  return q;
}

}  // namespace cedbench
