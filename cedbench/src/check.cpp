#include "check.hpp"

#include <stdexcept>

namespace cedbench {

namespace {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Fanins-before-node order by iterative DFS from every node; throws on a
// cycle. Kept here rather than using Network::topology() so the check
// does not lean on the program's own traversal.
std::vector<apx::NodeId> evaluation_order(const apx::Network& net) {
  const int n = net.num_nodes();
  std::vector<uint8_t> state(static_cast<size_t>(n), 0);  // 0 new 1 open 2 done
  std::vector<apx::NodeId> order;
  order.reserve(static_cast<size_t>(n));
  std::vector<std::pair<apx::NodeId, size_t>> stack;
  for (apx::NodeId root = 0; root < n; ++root) {
    if (state[root] != 0) continue;
    stack.push_back({root, 0});
    state[root] = 1;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const auto& fanins = net.node(id).fanins;
      if (next < fanins.size()) {
        const apx::NodeId f = fanins[next++];
        if (state[f] == 1) throw std::logic_error("cycle in network");
        if (state[f] == 0) {
          state[f] = 1;
          stack.push_back({f, 0});
        }
        continue;
      }
      state[id] = 2;
      order.push_back(id);
      stack.pop_back();
    }
  }
  return order;
}

bool all_equal(const uint64_t* a, const uint64_t* b, int words) {
  for (int w = 0; w < words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

}  // namespace

Evaluation::Evaluation(const apx::Network& net,
                       const std::vector<std::vector<uint64_t>>& pi_words)
    : net_(net),
      words_(pi_words.empty() ? 0 : static_cast<int>(pi_words[0].size())),
      values_(static_cast<size_t>(net.num_nodes()) * words_, 0) {
  if (static_cast<int>(pi_words.size()) != net.num_pis()) {
    throw std::invalid_argument("PI word count does not match the network");
  }
  std::vector<int> pi_pos(static_cast<size_t>(net.num_nodes()), -1);
  for (int i = 0; i < net.num_pis(); ++i) pi_pos[net.pis()[i]] = i;
  std::vector<uint64_t> cube(static_cast<size_t>(words_));
  for (apx::NodeId id : evaluation_order(net)) {
    const apx::Node& node = net.node(id);
    uint64_t* out = values_.data() + static_cast<size_t>(id) * words_;
    switch (node.kind) {
      case apx::NodeKind::kConst0:
        break;
      case apx::NodeKind::kConst1:
        for (int w = 0; w < words_; ++w) out[w] = ~0ULL;
        break;
      case apx::NodeKind::kPi:
        for (int w = 0; w < words_; ++w) out[w] = pi_words[pi_pos[id]][w];
        break;
      case apx::NodeKind::kLogic:
        for (const apx::Cube& c : node.sop.cubes()) {
          for (int w = 0; w < words_; ++w) cube[w] = ~0ULL;
          for (int v = 0; v < c.num_vars(); ++v) {
            const apx::LitCode code = c.get(v);
            if (code == apx::LitCode::kFree) continue;
            if (code == apx::LitCode::kEmpty) {
              for (int w = 0; w < words_; ++w) cube[w] = 0;
              break;
            }
            const uint64_t* in = this->node(node.fanins[v]);
            const uint64_t flip = code == apx::LitCode::kNeg ? ~0ULL : 0;
            for (int w = 0; w < words_; ++w) cube[w] &= in[w] ^ flip;
          }
          for (int w = 0; w < words_; ++w) out[w] |= cube[w];
        }
        break;
    }
  }
}

const uint64_t* Evaluation::po(int index) const {
  return node(net_.po(index).driver);
}

std::vector<std::vector<uint64_t>> random_pi_words(int num_pis, int words,
                                                   uint64_t seed) {
  std::vector<std::vector<uint64_t>> out(static_cast<size_t>(num_pis));
  uint64_t state = seed;
  for (auto& row : out) {
    row.resize(static_cast<size_t>(words));
    for (uint64_t& w : row) w = splitmix64(state);
  }
  return out;
}

void check_equal_outputs(const Evaluation& reference,
                         const apx::Network& candidate,
                         const std::vector<std::vector<uint64_t>>& pi_words,
                         const std::string& label, CheckLog& log) {
  const Evaluation got(candidate, pi_words);
  log.expect(got.num_pos() == reference.num_pos(),
             label + ": PO count differs from the pinned input");
  if (got.num_pos() != reference.num_pos()) return;
  for (int o = 0; o < got.num_pos(); ++o) {
    log.expect(all_equal(reference.po(o), got.po(o), got.words()),
               label + ": functional PO " + std::to_string(o) +
                   " differs from the pinned input");
  }
}

void check_ced_design(const Evaluation& reference, const apx::CedDesign& ced,
                      const std::vector<std::vector<uint64_t>>& pi_words,
                      const std::string& label, CheckLog& log) {
  const Evaluation got(ced.design, pi_words);
  const size_t num_outputs = ced.functional_outputs.size();
  log.expect(static_cast<int>(num_outputs) == reference.num_pos(),
             label + ": design output count differs from the pinned input");
  if (static_cast<int>(num_outputs) != reference.num_pos()) return;
  for (size_t o = 0; o < num_outputs; ++o) {
    log.expect(all_equal(reference.po(static_cast<int>(o)),
                         got.node(ced.functional_outputs[o]), got.words()),
               label + ": design output " + std::to_string(o) +
                   " differs from the pinned input");
  }
  const uint64_t* r1 = got.node(ced.error_pair.rail1);
  const uint64_t* r2 = got.node(ced.error_pair.rail2);
  bool silent = true;
  for (int w = 0; w < got.words(); ++w) {
    silent = silent && (r1[w] ^ r2[w]) == ~0ULL;
  }
  log.expect(silent, label + ": error pair fires without a fault");
}

void check_implications(const Evaluation& reference,
                        const apx::Network& checkgen,
                        const std::vector<apx::ApproxDirection>& directions,
                        const std::vector<std::vector<uint64_t>>& pi_words,
                        const std::string& label, CheckLog& log) {
  const Evaluation got(checkgen, pi_words);
  const bool shaped = got.num_pos() == reference.num_pos() &&
                      static_cast<int>(directions.size()) == got.num_pos();
  log.expect(shaped, label + ": check-generator POs or directions do not "
                             "match the pinned input");
  if (!shaped) return;
  for (int o = 0; o < got.num_pos(); ++o) {
    const uint64_t* f = reference.po(o);
    const uint64_t* g = got.po(o);
    const bool one = directions[o] == apx::ApproxDirection::kOneApprox;
    bool holds = true;
    for (int w = 0; w < got.words(); ++w) {
      // kOneApprox: G => F, i.e. no G & ~F; kZeroApprox: F => G.
      const uint64_t bad = one ? (g[w] & ~f[w]) : (f[w] & ~g[w]);
      holds = holds && bad == 0;
    }
    log.expect(holds, label + ": PO " + std::to_string(o) +
                          " breaks its " + (one ? "1" : "0") +
                          "-approximation");
  }
}

}  // namespace cedbench
