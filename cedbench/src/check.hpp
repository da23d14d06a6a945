// Output checks that do not depend on the code under test: a small
// bit-parallel evaluator (not apx::Simulator) that walks each node's SOP on
// seeded random vectors, and the paper's three promises phrased on its
// values:
//   1. the mapped functional outputs equal the pinned input's outputs;
//   2. the fault-free error pair never fires (the rails always differ);
//   3. each checked PO's 0/1-approximation implication holds.
// Random vectors can miss a violation but never report a false one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ced.hpp"
#include "network/network.hpp"
#include "reliability/reliability.hpp"

namespace cedbench {

/// Node values of one network under `words` x 64 input vectors.
class Evaluation {
 public:
  /// `pi_words[i]` holds the words of PI i (all of equal length).
  Evaluation(const apx::Network& net,
             const std::vector<std::vector<uint64_t>>& pi_words);
  const uint64_t* node(apx::NodeId id) const {
    return values_.data() + static_cast<size_t>(id) * words_;
  }
  const uint64_t* po(int index) const;
  int num_pos() const { return net_.num_pos(); }
  int words() const { return words_; }

 private:
  const apx::Network& net_;
  int words_;
  std::vector<uint64_t> values_;
};

/// Accumulates check outcomes for one emitted design or circuit.
struct CheckLog {
  int checks = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

/// Seeded random PI words for `num_pis` inputs.
std::vector<std::vector<uint64_t>> random_pi_words(int num_pis, int words,
                                                   uint64_t seed);

/// Promise 1 on a standalone network: every PO of `candidate` equals the
/// same-index PO of `reference` (PIs correspond by position).
void check_equal_outputs(const Evaluation& reference,
                         const apx::Network& candidate,
                         const std::vector<std::vector<uint64_t>>& pi_words,
                         const std::string& label, CheckLog& log);

/// Promises 1 and 2 on an assembled CED design: its functional outputs
/// equal `reference`'s POs and its error pair never fires.
void check_ced_design(const Evaluation& reference, const apx::CedDesign& ced,
                      const std::vector<std::vector<uint64_t>>& pi_words,
                      const std::string& label, CheckLog& log);

/// Promise 3: PO o of `checkgen` (G) against PO o of `reference` (F):
/// kOneApprox needs G => F, kZeroApprox needs F => G.
void check_implications(const Evaluation& reference,
                        const apx::Network& checkgen,
                        const std::vector<apx::ApproxDirection>& directions,
                        const std::vector<std::vector<uint64_t>>& pi_words,
                        const std::string& label, CheckLog& log);

}  // namespace cedbench
