// cedbench: the CED-flow benchmark (see cedbench/README.md).
//
//   cedbench --workload <ced_cold|table2_warm> --seed <n>
//            --seconds <s> --trace <0|1> --inputs <dir>
//            [--out <result.json>] [--commit <id>] [--source-id <id>]
//
// Reads the pinned inputs (refusing to run on a hash mismatch), repeats
// the workload's passes for about --seconds, checks every emitted design
// with the benchmark's own evaluator, and prints a report whose last line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Single-threaded runs move to the least contended CPU before every row.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// passes with stepwise traced replays, then runs the mult32 scale probe,
// and reports the per-layer metrics.
// Exit status: 0 all checks passed, 1 a check failed, 2 bad arguments,
// 3 pinned inputs missing or altered.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bdd/network_bdd.hpp"
#include "baselines/parity.hpp"
#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "inputs.hpp"
#include "mapping/optimize.hpp"
#include "network/ordering.hpp"
#include "sat/encode.hpp"
#include "sim/kernels.hpp"
#include "workloads.hpp"

namespace {

using cedbench::Circuit;
using cedbench::LayerClock;
using cedbench::RowOutcome;
using cedbench::Workload;
using SteadyClock = std::chrono::steady_clock;

double since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;
  std::string out;
  std::string commit = "unknown";
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_inputs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace is 0 or 1");
      }
      a.trace = v == "1";
    } else if (flag == "--inputs") {
      a.inputs = v;
      have_inputs = true;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (!have_workload || !have_inputs) {
    throw std::invalid_argument("--workload and --inputs are required");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quantile(v, 0.5);
}

struct Metric {
  std::string name;
  std::string unit;
  std::string better;
  double value = 0.0;
};

// Peak resident memory of this process image, in MiB. VmHWM belongs to the
// address space, which execve replaces; ru_maxrss also keeps the parent's
// peak from before the exec (run.py's Python interpreter, ~18 MB, more
// than ced_cold itself uses).
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      std::sscanf(line, "VmHWM: %ld kB", &kb);
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ CPU choice

// Time of a fixed burst of eight independent xorshift streams: enough
// instruction-level parallelism to fill a core, so it runs about 1.8x
// slower while another tenant's thread shares the physical core.
volatile uint64_t probe_sink;  // keeps the probe's work from being elided

double core_probe_seconds() {
  const auto t0 = SteadyClock::now();
  uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 100000; ++i) {
    for (uint64_t& v : x) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
  }
  probe_sink = x[0] ^ x[1] ^ x[2] ^ x[3] ^ x[4] ^ x[5] ^ x[6] ^ x[7];
  return since(t0);
}

// Moves the calling thread to the CPU of the original affinity set where
// the probe runs fastest. The benchmark calls it, untimed, before every
// row: on a shared host the vCPUs' physical cores are shared with other
// tenants, which changes from second to second, and a row that lands on a
// contended core takes up to 1.8x as long (see README.md, "Steadiness").
// Only single-threaded runs move: threads inherit the affinity of the
// thread that creates them, so pinning would stack a task pool on one CPU.
void move_to_quietest_cpu() {
  if (apx::thread_count() != 1) return;
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  int best = -1;
  double best_seconds = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double t = std::min(core_probe_seconds(), core_probe_seconds());
    if (best < 0 || t < best_seconds) {
      best = cpu;
      best_seconds = t;
    }
  }
  if (best < 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  sched_setaffinity(0, sizeof one, &one);
}

// ---------------------------------------------------------------- set-up

struct Setup {
  std::vector<Circuit> circuits;
  std::vector<Circuit> scale;  ///< the scale probe's circuit (traced runs)
  std::vector<double> setup_samples;
  std::vector<double> parse_samples;
};

std::vector<Circuit> load_circuits(const Workload& w, const std::string& dir,
                                   uint64_t seed, double* parse_seconds) {
  const std::vector<cedbench::PinnedInput> manifest =
      cedbench::read_manifest(dir);
  std::vector<Circuit> out;
  *parse_seconds = 0.0;
  for (size_t i = 0; i < w.circuits.size(); ++i) {
    Circuit c;
    c.name = w.circuits[i];
    double parse = 0.0;
    c.net = cedbench::load_pinned(dir, cedbench::find_input(manifest, c.name),
                                  &parse);
    *parse_seconds += parse;
    c.seeds = cedbench::derive_seeds(seed, static_cast<int>(i));
    out.push_back(std::move(c));
  }
  return out;
}

// Reads and hash-checks the inputs and, on a warm workload, primes the
// OrderCache with one untimed pass of the plain pipeline. Repeated
// setup_repeats times from an empty cache; the median is setup_s.
Setup run_setup(const Workload& w, const Args& a) {
  // Every pinned file is checked on every run, also the ones this run
  // does not read; the workload's own inputs are checked again, content
  // hash included, inside the timed set-up.
  cedbench::check_file_hashes(a.inputs, cedbench::read_manifest(a.inputs));
  Setup s;
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    apx::OrderCache::instance().clear();
    move_to_quietest_cpu();
    const auto t0 = SteadyClock::now();
    double parse = 0.0;
    s.circuits = load_circuits(w, a.inputs, a.seed, &parse);
    if (!w.cold) {
      Workload prime = w;
      prime.table2_row = false;
      for (const Circuit& c : s.circuits) cedbench::run_row(prime, c, nullptr);
    }
    s.setup_samples.push_back(since(t0));
    s.parse_samples.push_back(parse);
  }
  if (a.trace) {
    double parse = 0.0;
    s.scale = load_circuits(cedbench::scale_probe_workload(), a.inputs, a.seed,
                            &parse);
  }
  // Check vectors and the reference evaluation are the checker's own
  // state, so they are built outside the timed set-up.
  constexpr int kCheckWords = 32;
  for (std::vector<Circuit>* group : {&s.circuits, &s.scale}) {
    for (Circuit& c : *group) {
      c.check_words = cedbench::random_pi_words(c.net.num_pis(), kCheckWords,
                                                c.seeds.check);
      c.reference =
          std::make_unique<cedbench::Evaluation>(c.net, c.check_words);
    }
  }
  return s;
}

// ------------------------------------------------------------ row runs

// Outcome bookkeeping shared by every pass: a row fails when it throws,
// when a check fails, or when its outputs differ from the first run of
// the same circuit (every pass, traced or not, must agree exactly).
class Ledger {
 public:
  explicit Ledger(size_t circuits) : expected_(circuits), quality_(circuits) {}

  // Runs one row; returns its wall time (program calls only).
  double run(const Workload& w, const Circuit& c, size_t index,
             LayerClock* clock, std::optional<RowOutcome>* keep = nullptr) {
    if (w.cold) apx::OrderCache::instance().clear();
    move_to_quietest_cpu();
    std::optional<RowOutcome> row;
    std::string error;
    const auto t0 = SteadyClock::now();
    try {
      row = cedbench::run_row(w, c, clock);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double seconds = since(t0);
    ++attempted_;
    if (!row) {
      fail(c.name + ": threw: " + error);
      return seconds;
    }
    cedbench::CheckLog log;
    cedbench::check_row(*row, c, log);
    checks_ += log.checks;
    const std::string d = cedbench::digest(*row);
    if (expected_[index].empty()) {
      expected_[index] = d;
      quality_[index] = cedbench::quality(*row);
    } else if (d != expected_[index]) {
      log.failures.push_back(c.name + (clock ? " (traced replay)" : "") +
                             ": outputs differ from the first run");
    }
    if (!log.failures.empty()) fail(log.failures.front());
    if (keep != nullptr) *keep = std::move(row);
    return seconds;
  }

  // Records one standalone probe (miter, sharing, baselines) and its
  // check failures.
  void probe(const std::vector<std::string>& failures, int checks) {
    ++attempted_;
    checks_ += checks;
    if (!failures.empty()) fail(failures.front());
  }

  // Adds another ledger's counts (its circuits' digests stay its own).
  void absorb(const Ledger& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    checks_ += other.checks_;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  int64_t checks() const { return checks_; }
  const std::vector<cedbench::Quality>& quality() const { return quality_; }

 private:
  void fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 10) {
      std::fprintf(stderr, "cedbench: FAILED %s\n", why.c_str());
    }
  }

  std::vector<std::string> expected_;
  std::vector<cedbench::Quality> quality_;
  int attempted_ = 0;
  int failed_ = 0;
  int64_t checks_ = 0;
};

// One pass over the workload's circuits; returns the per-row times.
std::vector<double> run_pass(const Workload& w,
                             const std::vector<Circuit>& circuits,
                             Ledger& ledger, LayerClock* clock = nullptr,
                             std::vector<std::optional<RowOutcome>>* keep =
                                 nullptr) {
  std::vector<double> times;
  for (size_t i = 0; i < circuits.size(); ++i) {
    times.push_back(ledger.run(w, circuits[i], i, clock,
                               keep != nullptr ? &(*keep)[i] : nullptr));
  }
  return times;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ------------------------------------------------------ end-to-end mode

std::vector<Metric> measure_end_to_end(const Workload& w, const Setup& setup,
                                       const Args& a, Ledger& ledger,
                                       std::vector<double>* latencies) {
  const auto start = SteadyClock::now();
  std::vector<double> pass_times;
  while (true) {
    const auto pass_t0 = SteadyClock::now();
    const std::vector<double> t = run_pass(w, setup.circuits, ledger);
    latencies->insert(latencies->end(), t.begin(), t.end());
    pass_times.push_back(sum(t));
    // Stop before a pass that would overrun the measuring window.
    if (since(start) + since(pass_t0) > a.seconds) break;
  }

  // Coverage is pooled (detected / erroneous over all circuits), so a
  // circuit with few erroneous runs does not swing the figure; the other
  // quality figures are means over circuits.
  int64_t erroneous = 0, detected = 0;
  double area = 0.0, power = 0.0, approx = 0.0;
  int pos = 0, verified = 0;
  for (const cedbench::Quality& q : ledger.quality()) {
    erroneous += q.erroneous;
    detected += q.detected;
    area += q.area_overhead_pct;
    power += q.power_overhead_pct;
    approx += q.approx_pct;
    pos += q.pos;
    verified += q.verified_pos;
  }
  const double n = static_cast<double>(ledger.quality().size());

  // The bounded timings use each circuit's fastest pass. On the shared
  // host the benchmark was tuned on, other tenants slow a row by up to 2x
  // for seconds to minutes at a time, and a run's median moves with them;
  // contention only ever adds time, so the fastest of a run's passes is
  // the steadiest estimate of the program's own cost. Medians are printed
  // beside them.
  const size_t per_pass = setup.circuits.size();
  std::printf("passes %zu of %zu circuits; median pass %.4f s (%.4g "
              "circuits/s)\n",
              pass_times.size(), per_pass, median(pass_times),
              static_cast<double>(per_pass) / median(pass_times));
  double best_sum = 0.0, log_best = 0.0;
  for (size_t i = 0; i < per_pass; ++i) {
    std::vector<double> mine;
    for (size_t k = i; k < latencies->size(); k += per_pass) {
      mine.push_back((*latencies)[k]);
    }
    const double best = *std::min_element(mine.begin(), mine.end());
    best_sum += best;
    log_best += std::log(best);
    const cedbench::Quality& q = ledger.quality()[i];
    std::printf("  %-8s min %8.4f s  median %8.4f s  coverage %6.2f%%  "
                "area %6.2f%%  power %6.2f%%  approx %6.2f%%  verified %d/%d\n",
                setup.circuits[i].name.c_str(), best, median(mine),
                q.coverage_pct, q.area_overhead_pct, q.power_overhead_pct,
                q.approx_pct, q.verified_pos, q.pos);
  }
  return {
      // Circuits per second if every circuit ran at its fastest pass.
      {"circuits_per_s_best", "1/s", "higher",
       static_cast<double>(per_pass) / best_sum},
      // Geometric mean of the circuits' fastest latencies, so every circuit
      // weighs the same whatever its size (circuits_per_s_best is mostly
      // the largest circuit).
      {"latency_min_gmean_s", "s", "lower",
       std::exp(log_best / static_cast<double>(per_pass))},
      {"setup_s", "s", "lower", median(setup.setup_samples)},
      {"peak_rss_mb", "MB", "lower",
       peak_rss_mb()},
      {"coverage_pct", "%", "higher",
       erroneous > 0 ? 100.0 * detected / erroneous : 0.0},
      {"area_overhead_pct", "%", "lower", area / n},
      {"power_overhead_pct", "%", "lower", power / n},
      {"approx_pct", "%", "higher", approx / n},
      {"verified_po_pct", "%", "higher",
       pos > 0 ? 100.0 * verified / pos : 0.0},
  };
}

// --------------------------------------------------------- traced mode

int64_t counter_value(const std::vector<apx::trace::CounterStat>& stats,
                      const char* name) {
  for (const auto& s : stats) {
    if (s.name == name) return s.value;
  }
  return 0;
}

// Standalone calls into single layers, made after the passes with tracing
// off. Layers a workload's rows do not run (logic sharing and the two
// baselines outside table2_warm) are measured here on the row's own
// design.
struct ProbeTimes {
  double bdd_build = 0.0;
  int bdd_overflows = 0;
  double miter = 0.0;
  int miter_unknown = 0;
  double sharing = 0.0;
  double parity = 0.0;
  double pdup = 0.0;
};

// Conflict cap per PO of the SAT miter probe; it proves every PO of the
// Table-2 circuits.
constexpr int64_t kMiterConflicts = 5000;

ProbeTimes run_probes(const Workload& w, const std::vector<Circuit>& circuits,
                      const std::vector<std::optional<RowOutcome>>& rows,
                      Ledger& ledger) {
  ProbeTimes p;
  for (size_t i = 0; i < circuits.size(); ++i) {
    const Circuit& c = circuits[i];
    if (!rows[i]) continue;  // the row threw; already counted as failed
    const apx::PipelineResult& plain = rows[i]->plain;
    cedbench::CheckLog log;

    try {
      const apx::Network optimized = apx::quick_synthesis(c.net);
      if (w.cold) apx::OrderCache::instance().clear();
      auto t0 = SteadyClock::now();
      try {
        apx::NetworkBdds bdds(optimized, w.bdd_budget);
      } catch (const apx::BddOverflow&) {
        ++p.bdd_overflows;
      }
      p.bdd_build += since(t0);

      t0 = SteadyClock::now();
      for (int o = 0; o < c.net.num_pos(); ++o) {
        const apx::CheckResult r = apx::check_po_equivalence(
            c.net, o, plain.mapped_original, o, kMiterConflicts);
        if (r == apx::CheckResult::kUnknown) ++p.miter_unknown;
        log.expect(r != apx::CheckResult::kFails,
                   c.name + ": SAT miter refutes mapped PO " +
                       std::to_string(o));
      }
      p.miter += since(t0);

      if (!w.table2_row) {
        apx::CedDesign shared = plain.ced;
        t0 = SteadyClock::now();
        apx::apply_logic_sharing(shared, apx::SharingOptions{});
        p.sharing += since(t0);
        cedbench::check_ced_design(*c.reference, shared, c.check_words,
                                   c.name + " sharing probe", log);
      }
      if (!w.table2_row) {
        apx::CoverageOptions cov;
        cov.num_fault_samples = w.campaign_samples;
        cov.seed = c.seeds.coverage;
        t0 = SteadyClock::now();
        const apx::CedDesign parity =
            apx::build_parity_ced(plain.mapped_original);
        apx::evaluate_ced_coverage(parity, cov);
        apx::measure_overheads(parity);
        p.parity += since(t0);
        cedbench::check_ced_design(*c.reference, parity, c.check_words,
                                   c.name + " parity probe", log);

        apx::PartialDuplicationOptions pd;
        pd.num_fault_samples = w.campaign_samples;
        pd.seed = c.seeds.pdup;
        t0 = SteadyClock::now();
        const apx::PartialDuplicationResult pdup =
            apx::build_partial_duplication(plain.mapped_original,
                                           plain.coverage.coverage(), pd);
        apx::evaluate_ced_coverage(pdup.ced, cov);
        apx::measure_overheads(pdup.ced);
        p.pdup += since(t0);
        cedbench::check_ced_design(*c.reference, pdup.ced, c.check_words,
                                   c.name + " partial-duplication probe", log);
      }
    } catch (const std::exception& e) {
      log.expect(false, c.name + ": probe threw: " + e.what());
    }
    ledger.probe(log.failures, log.checks);
  }
  return p;
}

// The scale probe (cedbench::scale_probe_workload): mult32 once through
// run_ced_pipeline, timed, and once through the traced replay with the
// program's counters and spans on. Both are checked like any row and must
// agree exactly.
struct ScaleProbe {
  double pipeline_s = 0.0;
  std::map<std::string, double> layers;
  std::vector<apx::trace::CounterStat> counters;
  std::vector<apx::trace::PhaseStat> phases;
  int functional_gates = 0;
};

ScaleProbe run_scale_probe(const Setup& setup, Ledger& ledger) {
  const Workload& w = cedbench::scale_probe_workload();
  const Circuit& c = setup.scale.front();
  Ledger scale_ledger(1);
  ScaleProbe p;
  p.pipeline_s = scale_ledger.run(w, c, 0, nullptr);
  LayerClock clock;
  std::optional<RowOutcome> row;
  apx::trace::reset();
  apx::trace::set_trace_enabled(true);
  scale_ledger.run(w, c, 0, &clock, &row);
  apx::trace::set_trace_enabled(false);
  p.layers = clock.seconds();
  p.counters = apx::trace::counter_summary();
  p.phases = apx::trace::phase_summary();
  if (row) p.functional_gates = row->plain.mapped_original.num_logic_nodes();
  ledger.absorb(scale_ledger);
  return p;
}

std::vector<Metric> measure_layers(const Workload& w, const Setup& setup,
                                   const Args& a, Ledger& ledger) {
  struct Round {
    double untraced = 0.0, traced = 0.0;
    std::map<std::string, double> layers;
    double campaign_s = 0.0;
    int64_t campaign_samples = 0;
    std::vector<apx::trace::CounterStat> counters;
    std::vector<apx::trace::PhaseStat> phases;
  };
  std::vector<Round> rounds;
  std::vector<std::optional<RowOutcome>> last(setup.circuits.size());
  const auto start = SteadyClock::now();
  while (true) {
    const auto round_t0 = SteadyClock::now();
    Round r;
    r.untraced = sum(run_pass(w, setup.circuits, ledger));
    LayerClock clock;
    apx::trace::reset();
    apx::trace::set_trace_enabled(true);
    r.traced = sum(run_pass(w, setup.circuits, ledger, &clock, &last));
    apx::trace::set_trace_enabled(false);
    r.layers = clock.seconds();
    r.campaign_s = clock.campaign_seconds();
    r.campaign_samples = clock.campaign_samples();
    r.counters = apx::trace::counter_summary();
    r.phases = apx::trace::phase_summary();
    rounds.push_back(std::move(r));
    if (since(start) + since(round_t0) > a.seconds) break;
  }
  const ProbeTimes probes = run_probes(w, setup.circuits, last, ledger);
  const ScaleProbe scale = run_scale_probe(setup, ledger);

  auto med = [&](auto get) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(static_cast<double>(get(r)));
    return median(v);
  };
  auto in_round = [](const Round& r, const char* name) {
    auto it = r.layers.find(name);
    return it == r.layers.end() ? 0.0 : it->second;
  };
  auto layer = [&](const char* name) {
    return med([&](const Round& r) { return in_round(r, name); });
  };
  auto count = [&](const char* name) {
    return med([&](const Round& r) { return counter_value(r.counters, name); });
  };
  int functional = 0, checkgen = 0;
  for (const auto& row : last) {
    if (!row) continue;
    functional += row->plain.mapped_original.num_logic_nodes();
    checkgen += row->plain.mapped_checkgen.num_logic_nodes();
  }
  const double hits = count("bdd.order_cache_hits");
  const double lookups = hits + count("bdd.order_cache_misses");
  const double traced = med([](const Round& r) { return r.traced; });
  const double untraced = med([](const Round& r) { return r.untraced; });
  const double sharing =
      w.table2_row ? layer("core.logic_sharing_s") : probes.sharing;
  const double parity =
      w.table2_row ? layer("baselines.parity_s") : probes.parity;
  const double pdup = w.table2_row ? layer("baselines.pdup_s") : probes.pdup;

  // Self-time shares of the traced pass, per round, then the median. The
  // benchmark's layer timers never nest (campaign time is tracked beside
  // them, not as a layer), so a group's self time is the sum of its
  // layers and whatever the row spent outside them is unattributed.
  struct Group {
    const char* name;
    std::vector<const char*> layers;
  };
  const std::vector<Group> groups = {
      {"mapping", {"mapping.quick_synthesis_s", "mapping.map_s"}},
      {"reliability", {"reliability.analyze_s"}},
      {"core", {"core.synthesize_s", "core.assemble_s", "core.coverage_s",
                "core.overheads_s", "core.logic_sharing_s"}},
      {"baselines", {"baselines.parity_s", "baselines.pdup_s"}},
  };
  auto share = [&](const Group* g) {
    return med([&](const Round& r) {
      double s = 0.0;
      for (const Group& other : groups) {
        if (g != nullptr && g != &other) continue;
        for (const char* name : other.layers) s += in_round(r, name);
      }
      return 100.0 * (g != nullptr ? s : r.traced - s) / r.traced;
    });
  };

  std::printf("traced rounds %zu: untraced pass %.4f s, traced pass %.4f s, "
              "overhead %+.4f s\n",
              rounds.size(), untraced, traced, traced - untraced);
  std::printf("program spans of the last traced pass (self time):\n");
  std::vector<apx::trace::PhaseStat> phases = rounds.back().phases;
  std::sort(phases.begin(), phases.end(),
            [](const auto& x, const auto& y) { return x.self_ms > y.self_ms; });
  for (size_t i = 0; i < phases.size() && i < 12; ++i) {
    std::printf("  %-26s %6lld calls %10.1f ms self %10.1f ms total\n",
                phases[i].name.c_str(), static_cast<long long>(phases[i].count),
                phases[i].self_ms, phases[i].total_ms);
  }
  std::printf("probes: bdd build overflows %d, miter POs unknown %d\n",
              probes.bdd_overflows, probes.miter_unknown);
  auto scale_layer = [&](const char* name) {
    auto it = scale.layers.find(name);
    return it == scale.layers.end() ? 0.0 : it->second;
  };
  auto scale_count = [&](const char* name) {
    return static_cast<double>(counter_value(scale.counters, name));
  };
  double scale_traced = 0.0, sat_fallback_ms = 0.0;
  for (const auto& [name, seconds] : scale.layers) scale_traced += seconds;
  for (const apx::trace::PhaseStat& ph : scale.phases) {
    if (ph.name == "oracle.sat_fallback") sat_fallback_ms = ph.total_ms;
  }
  std::printf("scale probe (mult32): pipeline %.4f s, traced replay %.4f s, "
              "oracle.sat_fallback %.1f ms\n",
              scale.pipeline_s, scale_traced, sat_fallback_ms);
  std::printf("self-time share of the traced pass (median of rounds):\n");
  for (const Group& g : groups) {
    std::printf("  %-14s %6.2f%%\n", g.name, share(&g));
  }
  std::printf("  %-14s %6.2f%%\n", "unattributed", share(nullptr));

  return {
      {"network.parse_s", "s", "lower", median(setup.parse_samples)},
      {"mapping.quick_synthesis_s", "s", "lower",
       layer("mapping.quick_synthesis_s")},
      {"mapping.map_s", "s", "lower", layer("mapping.map_s")},
      {"mapping.functional_gates", "count", "lower",
       static_cast<double>(functional)},
      {"mapping.checkgen_gates", "count", "lower",
       static_cast<double>(checkgen)},
      {"bdd.build_s", "s", "lower", probes.bdd_build},
      {"bdd.reorder_runs", "count", "lower", count("bdd.reorder_runs")},
      {"bdd.peak_nodes", "count", "lower", count("bdd.peak_nodes")},
      {"bdd.order_cache_hit_pct", "%", "higher",
       lookups > 0 ? 100.0 * hits / lookups : 0.0},
      {"sat.miter_s", "s", "lower", probes.miter},
      {"sat.queries", "count", "lower", count("oracle.sat_queries")},
      {"sat.decisions", "count", "lower", count("sat.decisions")},
      {"sat.conflicts", "count", "lower", count("sat.conflicts")},
      {"sat.nodes_reencoded", "count", "lower",
       count("oracle.sat_nodes_reencoded")},
      {"core.synthesize_s", "s", "lower", layer("core.synthesize_s")},
      {"core.assemble_s", "s", "lower", layer("core.assemble_s")},
      {"core.overheads_s", "s", "lower", layer("core.overheads_s")},
      {"core.coverage_s", "s", "lower", layer("core.coverage_s")},
      {"core.logic_sharing_s", "s", "lower", sharing},
      {"reliability.analyze_s", "s", "lower", layer("reliability.analyze_s")},
      {"sim.faults_per_s", "1/s", "higher",
       med([](const Round& r) {
         return r.campaign_s > 0.0 ? r.campaign_samples / r.campaign_s : 0.0;
       })},
      {"sim.fault_sims", "count", "lower", count("faultsim.fault_sims")},
      {"baselines.parity_s", "s", "lower", parity},
      {"baselines.pdup_s", "s", "lower", pdup},
      {"aig.ands_saved", "count", "higher",
       scale_count("aig.rewrite_ands_saved")},
      {"scale.pipeline_s", "s", "lower", scale.pipeline_s},
      {"scale.quick_synthesis_s", "s", "lower",
       scale_layer("mapping.quick_synthesis_s")},
      {"scale.map_s", "s", "lower", scale_layer("mapping.map_s")},
      {"scale.synthesize_s", "s", "lower", scale_layer("core.synthesize_s")},
      {"scale.sat_fallback_s", "s", "lower", sat_fallback_ms / 1000.0},
      {"scale.assemble_s", "s", "lower", scale_layer("core.assemble_s")},
      {"scale.overheads_s", "s", "lower", scale_layer("core.overheads_s")},
      {"scale.functional_gates", "count", "lower",
       static_cast<double>(scale.functional_gates)},
      {"scale.reorder_runs", "count", "lower", scale_count("bdd.reorder_runs")},
      {"scale.sat_queries", "count", "lower",
       scale_count("oracle.sat_queries")},
      {"scale.sat_conflicts", "count", "lower", scale_count("sat.conflicts")},
      {"scale.sat_nodes_reencoded", "count", "lower",
       scale_count("oracle.sat_nodes_reencoded")},
      {"trace.untraced_pass_s", "s", "lower", untraced},
      {"trace.traced_pass_s", "s", "lower", traced},
      {"trace.overhead_s", "s", "lower", traced - untraced},
      {"share.mapping_pct", "%", "lower", share(&groups[0])},
      {"share.reliability_pct", "%", "lower", share(&groups[1])},
      {"share.core_pct", "%", "lower", share(&groups[2])},
      {"share.unattributed_pct", "%", "lower", share(nullptr)},
  };
}

// ------------------------------------------------------------- output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics, bool detailed) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit);
    if (detailed) out += ", \"better\": " + json_string(m.better);
    out += "}";
  }
  return out + "}";
}

std::map<std::string, std::string> host_metadata(const Args& a) {
  const char* env = std::getenv("APX_THREADS");
  return {
      {"seed", std::to_string(a.seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"thread_policy", std::string("APX_THREADS=") + (env ? env : "unset") +
                            " thread_count=" +
                            std::to_string(apx::thread_count()) +
                            (apx::thread_count() == 1
                                 ? " pinned to the quietest CPU before each row"
                                 : "")},
      {"simd_policy", apx::simd::policy()},
      {"simd_width_bits", std::to_string(apx::simd::width_bits())},
      {"build_type", CEDBENCH_BUILD_TYPE},
      {"compiler", CEDBENCH_COMPILER},
      {"commit", a.commit},
      {"source_id", a.source_id},
  };
}

void write_result_file(const Args& a, const Ledger& ledger,
                       const std::vector<Metric>& metrics,
                       const std::vector<double>& latencies,
                       const Setup& setup) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cedbench: cannot write %s\n", a.out.c_str());
    return;
  }
  std::string meta = "{";
  for (const auto& [k, v] : host_metadata(a)) {
    meta += (meta.size() > 1 ? ", " : "") + json_string(k) + ": " +
            json_string(v);
  }
  meta += "}";
  std::string rows;
  for (size_t i = 0; i < setup.circuits.size(); ++i) {
    const cedbench::Quality& q = ledger.quality()[i];
    rows += std::string(i ? ",\n  " : "\n  ") + "{\"name\": " +
            json_string(setup.circuits[i].name) +
            ", \"coverage_pct\": " + json_number(q.coverage_pct) +
            ", \"area_overhead_pct\": " + json_number(q.area_overhead_pct) +
            ", \"power_overhead_pct\": " + json_number(q.power_overhead_pct) +
            ", \"approx_pct\": " + json_number(q.approx_pct) +
            ", \"pos\": " + std::to_string(q.pos) +
            ", \"verified_pos\": " + std::to_string(q.verified_pos) + "}";
  }
  auto array = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", " : "") + json_number(v[i]);
    }
    return s + "]";
  };
  std::fprintf(f,
               "{\"workload\": %s, \"trace\": %d, \"seconds\": %s,\n"
               " \"host\": %s,\n"
               " \"correct\": %s, \"attempted\": %d, \"failed\": %d, "
               "\"checks\": %lld,\n"
               " \"metrics\": %s,\n"
               " \"latency_samples_s\": %s,\n"
               " \"setup_samples_s\": %s,\n"
               " \"circuits\": [%s]}\n",
               json_string(a.workload).c_str(), a.trace ? 1 : 0,
               json_number(a.seconds).c_str(), meta.c_str(),
               ledger.failed() == 0 ? "true" : "false", ledger.attempted(),
               ledger.failed(), static_cast<long long>(ledger.checks()),
               metrics_json(metrics, true).c_str(), array(latencies).c_str(),
               array(setup.setup_samples).c_str(), rows.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    cedbench::find_workload(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cedbench: %s\n", e.what());
    return 2;
  }
  const Workload& w = cedbench::find_workload(args.workload);

  std::printf("# cedbench %s trace=%d", w.name.c_str(), args.trace ? 1 : 0);
  for (const auto& [k, v] : host_metadata(args)) {
    std::printf(" %s=%s", k.c_str(), v.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  Setup setup;
  try {
    setup = run_setup(w, args);
  } catch (const cedbench::InputMismatch& e) {
    std::fprintf(stderr, "cedbench: pinned inputs: %s\n", e.what());
    return 3;
  }

  Ledger ledger(setup.circuits.size());
  std::vector<double> latencies;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace
                  ? measure_layers(w, setup, args, ledger)
                  : measure_end_to_end(w, setup, args, ledger, &latencies);
  } catch (const std::exception& e) {
    // Rows catch their own exceptions; anything here is a benchmark bug.
    std::fprintf(stderr, "cedbench: %s\n", e.what());
    return 1;
  }

  const double failed_pct =
      100.0 * ledger.failed() / std::max(1, ledger.attempted());
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %-6s (%s is better)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str());
  }
  if (!args.trace) {
    // p90 is reported only with at least ten samples beyond it.
    if (latencies.size() >= 100) {
      std::printf("%-28s %14.6g %-6s (n=%zu)\n", "latency_p90_s",
                  quantile(latencies, 0.9), "s", latencies.size());
    } else {
      std::printf("%-28s %14s %-6s (n=%zu < 100)\n", "latency_p90_s", "n/a",
                  "s", latencies.size());
    }
  }
  std::printf("%-28s %14.6g %-6s (%d of %d; %lld output checks)\n",
              "failed_pct", failed_pct, "%", ledger.failed(),
              ledger.attempted(), static_cast<long long>(ledger.checks()));
  if (!args.out.empty()) {
    write_result_file(args, ledger, metrics, latencies, setup);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              ledger.failed() == 0 ? "true" : "false", ledger.attempted(),
              ledger.failed(), metrics_json(metrics, false).c_str());
  return ledger.failed() == 0 ? 0 : 1;
}
