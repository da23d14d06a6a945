#include "sim/fault_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/task_pool.hpp"
#include "core/trace.hpp"
#include "network/topology_view.hpp"

namespace apx {

namespace {

/// Bit mask of word `w` covering the vector window [start, start + len).
/// Bits outside the window are zero; a window that does not intersect the
/// word yields 0.
uint64_t window_word_mask(int32_t start, int32_t len, int w) {
  const int64_t lo = static_cast<int64_t>(w) * 64;
  const int64_t hi = lo + 64;
  const int64_t s = std::max<int64_t>(start, lo);
  const int64_t e = std::min<int64_t>(static_cast<int64_t>(start) + len, hi);
  if (s >= e) return 0;
  const int b = static_cast<int>(e - lo);
  const int a = static_cast<int>(s - lo);
  const uint64_t upto = b == 64 ? ~0ULL : (1ULL << b) - 1;
  return upto & ~((1ULL << a) - 1);
}

// Evaluates a compiled literal program [p, end) over the K words starting
// at `base`: the OR over cubes of the AND over literals, where in[v] is the
// row of SOP variable v. Mapped gates are a few literals long, so the loop
// runs without early exits: their branches would mispredict more often
// than they save work.
template <int K>
inline void eval_block(const uint32_t* p, const uint32_t* end,
                       const uint64_t* const* in, int base, uint64_t* out) {
  uint64_t acc[K] = {};
  while (p < end) {
    const uint32_t* cube_end = p + 1 + *p;
    uint64_t t[K];
    for (int k = 0; k < K; ++k) t[k] = ~0ULL;
    for (++p; p < cube_end; ++p) {
      const uint64_t* row = in[*p >> 1] + base;
      const uint64_t neg = 0 - static_cast<uint64_t>(*p & 1);
      for (int k = 0; k < K; ++k) t[k] &= row[k] ^ neg;
    }
    for (int k = 0; k < K; ++k) acc[k] |= t[k];
  }
  for (int k = 0; k < K; ++k) out[base + k] = acc[k];
}

// Sets the pending bits of fanout ranks [begin, end), stored ascending;
// returns the bitset word of the highest one (0 when there is none).
inline uint32_t schedule(uint64_t* events, const uint32_t* ranks,
                         uint32_t begin, uint32_t end) {
  for (uint32_t k = begin; k < end; ++k) {
    events[ranks[k] >> 6] |= 1ULL << (ranks[k] & 63);
  }
  return begin < end ? ranks[end - 1] >> 6 : 0;
}

// One gate over a whole row: a single fixed-width block when kWords > 0,
// else 4-word blocks and a per-word remainder over the same program.
template <int kWords>
inline void eval_gate(const uint32_t* p, const uint32_t* end,
                      const uint64_t* const* in, int words, uint64_t* out) {
  if constexpr (kWords > 0) {
    eval_block<kWords>(p, end, in, 0, out);
  } else {
    int base = 0;
    for (; base + 4 <= words; base += 4) eval_block<4>(p, end, in, base, out);
    for (; base < words; ++base) eval_block<1>(p, end, in, base, out);
  }
}

// True when rows a and b differ on a valid bit (tail masks the final word).
template <int kWords>
inline bool rows_differ(const uint64_t* a, const uint64_t* b,
                               int words, uint64_t tail) {
  if constexpr (kWords > 0) words = kWords;
  uint64_t d = (a[words - 1] ^ b[words - 1]) & tail;
  for (int k = 0; k + 1 < words; ++k) d |= a[k] ^ b[k];
  return d != 0;
}

}  // namespace

const char* fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::kSingleStuckAt: return "single_stuck_at";
    case FaultModel::kMultiStuckAt: return "multi_stuck_at";
    case FaultModel::kTransientBurst: return "transient_burst";
  }
  return "unknown";
}

void FaultSpec::add(const FaultSite& site) {
  if (num_sites >= kMaxSites) {
    throw std::logic_error("FaultSpec::add: more than kMaxSites sites");
  }
  sites[num_sites++] = site;
}

/// Per-thread scratch state: a faulty-value arena over the shared golden
/// image plus the rank bitset of the cone walk. Reused across faults and
/// batches — no allocations on the injection path.
struct FaultSimEngine::Worker {
  ValueArena values;              ///< faulty plane (one row per node)
  std::vector<uint32_t> valid;    ///< epoch at which values row is current
  std::vector<uint32_t> pinned;   ///< epoch at which node is a fault site
  uint32_t epoch = 0;
  /// Pending gates, one bit per rank; all-zero between faults.
  std::vector<uint64_t> events;
  std::vector<const uint64_t*> fanin;  ///< rows of the gate being evaluated
  int64_t gate_evals = 0;              ///< since the last publish
};

FaultSimEngine::FaultSimEngine(const Network& net) : net_(net), golden_(net) {
  const std::shared_ptr<const TopologyView> view = net.topology();
  const int n = net.num_nodes();
  observable_.assign(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (!view->fanouts(id).empty()) observable_[id] = 1;
  }
  for (const PrimaryOutput& po : net.pos()) {
    if (po.driver != kNullNode) observable_[po.driver] = 1;
  }

  // Rank = position in the order by (level, id): every fanout ranks
  // above its driver, so ascending rank is a topological order.
  std::vector<NodeId> order(n);
  for (NodeId id = 0; id < n; ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return std::pair(view->level(a), a) < std::pair(view->level(b), b);
  });
  rank_.resize(n);
  for (int r = 0; r < n; ++r) rank_[order[r]] = static_cast<uint32_t>(r);

  gates_.reserve(n + 1);
  for (NodeId id : order) {
    gates_.push_back({id, static_cast<uint32_t>(fanin_ids_.size()),
                      static_cast<uint32_t>(lits_.size()),
                      static_cast<uint32_t>(fanout_ranks_.size())});
    const Node& node = net.node(id);
    fanin_ids_.insert(fanin_ids_.end(), node.fanins.begin(),
                      node.fanins.end());
    max_fanins_ = std::max(max_fanins_, static_cast<int>(node.fanins.size()));
    if (node.kind == NodeKind::kLogic) {
      for (const Cube& c : node.sop.cubes()) {
        const size_t count_at = lits_.size();
        lits_.push_back(0);
        for (int k = 0; k < node.sop.num_vars(); ++k) {
          const LitCode code = c.get(k);
          if (code == LitCode::kFree) continue;
          lits_.push_back((static_cast<uint32_t>(k) << 1) |
                          (code != LitCode::kPos ? 1u : 0u));
        }
        lits_[count_at] = static_cast<uint32_t>(lits_.size() - count_at - 1);
      }
    }
    const auto fo_begin = fanout_ranks_.end() - fanout_ranks_.begin();
    for (NodeId o : view->fanouts(id)) fanout_ranks_.push_back(rank_[o]);
    std::sort(fanout_ranks_.begin() + fo_begin, fanout_ranks_.end());
    fanout_ranks_.erase(
        std::unique(fanout_ranks_.begin() + fo_begin, fanout_ranks_.end()),
        fanout_ranks_.end());
  }
  gates_.push_back({kNullNode, static_cast<uint32_t>(fanin_ids_.size()),
                    static_cast<uint32_t>(lits_.size()),
                    static_cast<uint32_t>(fanout_ranks_.size())});
}

bool FaultSimEngine::is_live_site(NodeId node, bool stuck_value) const {
  if (node < 0 || node >= net_.num_nodes()) return false;
  const NodeKind kind = net_.node(node).kind;
  if (kind == NodeKind::kConst0 && !stuck_value) return false;
  if (kind == NodeKind::kConst1 && stuck_value) return false;
  return observable_[node] != 0;
}

bool FaultSimEngine::validate_spec(const FaultSpec& spec,
                                   int num_vectors) const {
  if (spec.num_sites <= 0 || spec.num_sites > FaultSpec::kMaxSites) {
    throw std::logic_error(
        "FaultSimEngine: FaultSpec with no sites (or too many)");
  }
  bool live = true;
  for (int s = 0; s < spec.num_sites; ++s) {
    const FaultSite& site = spec.sites[s];
    if (site.node < 0 || site.node >= net_.num_nodes()) {
      throw std::logic_error(
          "FaultSimEngine: sampler returned an out-of-range fault site");
    }
    for (int t = 0; t < s; ++t) {
      if (spec.sites[t].node == site.node) {
        throw std::logic_error(
            "FaultSimEngine: FaultSpec names the same node twice");
      }
    }
    if (site.transient &&
        (site.burst_length <= 0 || site.burst_start < 0 ||
         site.burst_start >= num_vectors)) {
      throw std::logic_error(
          "FaultSimEngine: transient burst window outside the campaign's "
          "vector range");
    }
    live = live && is_live_site(site.node, site.stuck_value);
  }
  return live;
}

FaultSimEngine::~FaultSimEngine() = default;

void FaultSimEngine::run_golden(const PatternSet& patterns, int num_vectors) {
  const int total = patterns.num_words() * 64;
  if (num_vectors <= 0) num_vectors = total;
  if (num_vectors > total) {
    throw std::logic_error(
        "FaultSimEngine: num_vectors exceeds the pattern set");
  }
  trace::Span span("faultsim.golden");
  if (trace::enabled()) {
    static trace::Counter& batches = trace::counter("faultsim.batches");
    static trace::Counter& words = trace::counter("faultsim.pattern_words");
    batches.add(1);
    words.add(patterns.num_words());
  }
  golden_.run(patterns);
  num_words_ = patterns.num_words();
  num_vectors_ = num_vectors;
  tail_mask_ = (num_vectors % 64) != 0
                   ? (1ULL << (num_vectors % 64)) - 1
                   : ~0ULL;
}

template <int kWords>
void FaultSimEngine::walk(Worker& w, uint32_t lo, uint32_t hi,
                          bool multi_site) const {
  const int W = kWords > 0 ? kWords : num_words_;
  const uint64_t tail = tail_mask_;
  const size_t stride = kWords > 0 ? ValueArena::stride_for(kWords)
                                   : golden_.values().stride();
  // Everything the loop touches lives in locals: stores through events,
  // valid and the value rows could otherwise alias the vectors' own
  // pointers and force reloads.
  const Gate* gates = gates_.data();
  const NodeId* fanin_ids = fanin_ids_.data();
  const uint32_t* lits = lits_.data();
  const uint32_t* fanout_ranks = fanout_ranks_.data();
  const uint64_t* golden = golden_.values().row(0);
  uint64_t* values = w.values.row(0);
  const uintptr_t golden_base = reinterpret_cast<uintptr_t>(golden);
  const uintptr_t values_base = reinterpret_cast<uintptr_t>(values);
  const uint32_t epoch = w.epoch;
  uint32_t* valid = w.valid.data();
  const uint32_t* pinned = w.pinned.data();
  uint64_t* events = w.events.data();
  const uint64_t** in = w.fanin.data();
  int64_t evals = 0;
  for (uint32_t word = lo; word <= hi; ++word) {
    uint64_t pending;
    while ((pending = events[word]) != 0) {
      const uint32_t r =
          word * 64 + static_cast<uint32_t>(std::countr_zero(pending));
      events[word] = pending & (pending - 1);
      const Gate& g = gates[r];
      const Gate& next = gates[r + 1];
      const NodeId id = g.node;
      // A site inside another site's cone keeps its forced row. A single
      // site is never its own fanout, so only multi-site specs check.
      if (multi_site && pinned[id] == epoch) continue;
      // Branch-free row pick: whether a fanin was touched is data
      // dependent, so a branch here would mispredict often.
      for (uint32_t k = g.fanin_begin; k < next.fanin_begin; ++k) {
        const NodeId f = fanin_ids[k];
        const uintptr_t hit = 0 - static_cast<uintptr_t>(valid[f] == epoch);
        const uintptr_t base = (golden_base & ~hit) | (values_base & hit);
        in[k - g.fanin_begin] =
            reinterpret_cast<const uint64_t*>(base) + f * stride;
      }
      uint64_t* out = values + id * stride;
      eval_gate<kWords>(lits + g.lit_begin, lits + next.lit_begin, in, W,
                        out);
      ++evals;
      // Faulty value collapsed back to golden on every valid pattern: the
      // event dies here (padding differences cannot keep it alive).
      if (!rows_differ<kWords>(out, golden + id * stride, W, tail)) {
        continue;
      }
      valid[id] = epoch;
      hi = std::max(hi, schedule(events, fanout_ranks, g.fanout_begin,
                                 next.fanout_begin));
    }
  }
  w.gate_evals += evals;
}

// Event-driven injection of one FaultSpec into worker `w`'s faulty plane.
void FaultSimEngine::simulate_fault(Worker& w, const FaultSpec& spec) const {
  const int W = num_words_;
  if (++w.epoch == 0) {
    // uint32 epoch wrapped: old marks would alias the fresh epoch.
    std::fill(w.valid.begin(), w.valid.end(), 0u);
    std::fill(w.pinned.begin(), w.pinned.end(), 0u);
    w.epoch = 1;
  }
  const uint32_t epoch = w.epoch;

  // Pin every site before seeding: a site's row is forced below and must
  // never be re-evaluated by the cone walk, even when it lies inside
  // another site's fanout cone — a stuck site blocks propagation through
  // itself, and a transient or gated site holds golden outside its
  // forced vectors.
  for (int s = 0; s < spec.num_sites; ++s) {
    w.pinned[spec.sites[s].node] = epoch;
  }

  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (int s = 0; s < spec.num_sites; ++s) {
    const FaultSite& site = spec.sites[s];
    const uint64_t forced = site.stuck_value ? ~0ULL : 0ULL;
    uint64_t* fv = w.values.row(site.node);
    const uint64_t* gv = golden(site.node);
    if (!site.transient && site.gate == nullptr) {
      std::fill(fv, fv + W, forced);
    } else {
      for (int word = 0; word < W; ++word) {
        uint64_t m = site.transient ? window_word_mask(site.burst_start,
                                                       site.burst_length, word)
                                    : ~0ULL;
        if (site.gate != nullptr) m &= site.gate[word];
        fv[word] = (gv[word] & ~m) | (forced & m);
      }
    }
    // Site value equals golden on every valid pattern: nothing propagates
    // from this site (padding bits of the final word never excite it).
    if (!rows_differ<0>(fv, gv, W, tail_mask_)) continue;
    w.valid[site.node] = epoch;
    const uint32_t r = rank_[site.node];
    lo = std::min(lo, r >> 6);
    hi = std::max(hi, schedule(w.events.data(), fanout_ranks_.data(),
                               gates_[r].fanout_begin,
                               gates_[r + 1].fanout_begin));
  }
  if (lo == UINT32_MAX) return;  // no site excited

  if (W == 4) {
    walk<4>(w, lo, hi, spec.num_sites > 1);
  } else {
    walk<0>(w, lo, hi, spec.num_sites > 1);
  }
}

FaultView FaultSimEngine::view_of(const Worker& w, int slot) const {
  FaultView v;
  v.golden_ = golden_.values().row(0);
  v.values_ = w.values.row(0);
  v.valid_ = w.valid.data();
  v.epoch_ = w.epoch;
  v.num_words_ = num_words_;
  v.num_vectors_ = num_vectors_;
  v.stride_ = golden_.values().stride();
  v.tail_mask_ = tail_mask_;
  v.worker_slot_ = slot;
  return v;
}

FaultSimEngine::Worker& FaultSimEngine::worker(int index) {
  while (static_cast<int>(workers_.size()) <= index) {
    workers_.push_back(std::make_unique<Worker>());
  }
  Worker& w = *workers_[index];
  if (w.values.rows() != net_.num_nodes() || w.values.words() != num_words_) {
    w.values.reset(net_.num_nodes(), num_words_);
    w.valid.assign(net_.num_nodes(), 0);
    w.pinned.assign(net_.num_nodes(), 0);
    w.epoch = 0;
    w.events.assign((net_.num_nodes() + 63) / 64, 0);
    w.fanin.assign(max_fanins_, nullptr);
  }
  return w;
}

// All fault-level parallelism rides the shared task pool: the engine never
// spawns threads of its own, so nested use (e.g. a whole-pipeline task per
// benchmark row, each running campaigns inside) shares one set of workers.
void FaultSimEngine::parallel_for(
    int begin, int end, int threads,
    const std::function<void(Worker&, int, int)>& f) {
  if (end <= begin) return;
  if (trace::enabled()) {
    static trace::Counter& sims = trace::counter("faultsim.fault_sims");
    sims.add(end - begin);
  }
  threads = std::min(threads, end - begin);
  for (int t = 0; t < threads; ++t) worker(t);  // size arenas up front
  TaskPool::instance().parallel_for_slotted(
      begin, end, threads, /*grain=*/1,
      [&](int slot, int64_t i) {
        f(*workers_[slot], slot, static_cast<int>(i));
      });
}

void FaultSimEngine::publish_gate_evals() {
  int64_t total = 0;
  for (const std::unique_ptr<Worker>& w : workers_) {
    total += w->gate_evals;
    w->gate_evals = 0;
  }
  if (trace::enabled()) {
    static trace::Counter& evals = trace::counter("faultsim.gate_evals");
    evals.add(total);
  }
}

void FaultSimEngine::run_campaign(const CampaignOptions& options,
                                  const SpecSampler& sampler,
                                  const SpecVisitor& visit) {
  if (options.vectors() <= 0 || options.faults_per_batch <= 0) {
    throw std::invalid_argument(
        "FaultSimEngine::run_campaign: non-positive batch geometry");
  }
  trace::Span span("faultsim.campaign");
  const int vectors = options.vectors();
  const int words = (vectors + 63) / 64;
  const int samples = options.num_fault_samples;
  if (samples <= 0) return;
  std::vector<FaultSpec> faults(samples);
  for (int i = 0; i < samples; ++i) {
    const uint64_t sample_seed =
        derive_seed(options.seed, static_cast<uint64_t>(i));
    FaultSpec spec = sampler(sample_seed);
    bool live = validate_spec(spec, vectors);
    if (!live && options.dead_sites == DeadSitePolicy::kReject) {
      throw std::logic_error(
          "FaultSimEngine::run_campaign: sampler returned a dead fault site "
          "(sample " +
          std::to_string(i) +
          "): a same-polarity stuck-at on a constant or an unobservable "
          "node can never produce an erroneous run; fix the sampler's site "
          "list or pick a DeadSitePolicy");
    }
    if (!live && options.dead_sites == DeadSitePolicy::kResample) {
      // Deterministic redraw: depends only on the sample seed, so any
      // thread count / batch geometry sees the same replacement spec.
      for (int attempt = 1; !live && attempt <= 64; ++attempt) {
        spec = sampler(derive_seed(sample_seed ^ kResampleStream,
                                   static_cast<uint64_t>(attempt)));
        live = validate_spec(spec, vectors);
      }
      if (!live) {
        throw std::logic_error(
            "FaultSimEngine::run_campaign: 64 consecutive dead redraws "
            "(sample " +
            std::to_string(i) + "); the sampler's site list looks dead");
      }
    }
    faults[i] = spec;
  }
  const int threads = resolve_thread_option(options.num_threads);
  const int per_batch = options.faults_per_batch;
  const int num_batches = (samples + per_batch - 1) / per_batch;
  for (int b = 0; b < num_batches; ++b) {
    PatternSet patterns = PatternSet::random(
        net_.num_pis(), words,
        derive_seed(options.seed ^ kPatternStream, static_cast<uint64_t>(b)));
    run_golden(patterns, vectors);
    int begin = b * per_batch;
    int end = std::min(samples, begin + per_batch);
    parallel_for(begin, end, threads, [&](Worker& w, int slot, int i) {
      simulate_fault(w, faults[i]);
      visit(i, faults[i], view_of(w, slot));
    });
  }
  publish_gate_evals();
}

void FaultSimEngine::run_batch(const PatternSet& patterns,
                               const std::vector<FaultSpec>& faults,
                               const SpecVisitor& visit, int num_threads,
                               int num_vectors) {
  run_golden(patterns, num_vectors);
  // Structural validation only (range, duplicates, burst shape): the
  // caller owns the explicit fault list, so dead sites are allowed here.
  for (const FaultSpec& spec : faults) validate_spec(spec, num_vectors_);
  const int threads = resolve_thread_option(num_threads);
  parallel_for(0, static_cast<int>(faults.size()), threads,
               [&](Worker& w, int slot, int i) {
                 simulate_fault(w, faults[i]);
                 visit(i, faults[i], view_of(w, slot));
               });
  publish_gate_evals();
}

FaultSimEngine::SpecSampler FaultSimEngine::make_sampler(
    FaultModel model, std::vector<NodeId> sites,
    const CampaignOptions& options) {
  if (sites.empty()) {
    throw std::invalid_argument(
        "FaultSimEngine::make_sampler: empty site list");
  }
  const int vectors = options.vectors();
  switch (model) {
    case FaultModel::kSingleStuckAt:
      return [sites = std::move(sites)](uint64_t sample_seed) {
        SplitMix64 rng(sample_seed);
        const NodeId node = sites[rng.next() % sites.size()];
        StuckFault fault{node, static_cast<bool>(rng.next() & 1)};
        return FaultSpec::stuck_at(fault);
      };
    case FaultModel::kMultiStuckAt: {
      const int k = std::min(std::max(options.sites_per_fault, 1),
                             FaultSpec::kMaxSites);
      // `sites` must hold at least k distinct nodes or the rejection loop
      // below cannot terminate; the size check catches the common case.
      if (static_cast<size_t>(k) > sites.size()) {
        throw std::invalid_argument(
            "FaultSimEngine::make_sampler: fewer candidate sites than "
            "sites_per_fault");
      }
      return [sites = std::move(sites), k](uint64_t sample_seed) {
        SplitMix64 rng(sample_seed);
        FaultSpec spec;
        while (spec.num_sites < k) {
          const NodeId node = sites[rng.next() % sites.size()];
          bool duplicate = false;
          for (int s = 0; s < spec.num_sites; ++s) {
            duplicate = duplicate || spec.sites[s].node == node;
          }
          if (duplicate) continue;
          FaultSite site;
          site.node = node;
          site.stuck_value = (rng.next() & 1) != 0;
          spec.add(site);
        }
        return spec;
      };
    }
    case FaultModel::kTransientBurst: {
      const int burst = std::min(std::max(options.burst_vectors, 1), vectors);
      return [sites = std::move(sites), burst, vectors](uint64_t sample_seed) {
        SplitMix64 rng(sample_seed);
        FaultSite site;
        site.node = sites[rng.next() % sites.size()];
        site.stuck_value = (rng.next() & 1) != 0;
        site.transient = true;
        site.burst_length = burst;
        site.burst_start = static_cast<int32_t>(
            rng.next() % static_cast<uint64_t>(vectors - burst + 1));
        FaultSpec spec;
        spec.add(site);
        return spec;
      };
    }
  }
  throw std::invalid_argument("FaultSimEngine::make_sampler: unknown model");
}

}  // namespace apx
