// Single-bit parity-prediction CED baseline (paper Sec. 4, Table 2): a
// parity predictor computes the XOR of all output functions directly from
// the primary inputs; an output parity tree plus a comparator checks it.
// Detects any error flipping an odd number of outputs; costs roughly a full
// duplicate of the circuit plus two XOR trees (the paper reports ~106% area
// and ~97% power overhead, with a longer critical path).
#pragma once

#include "core/ced.hpp"
#include "mapping/mapper.hpp"
#include "network/network.hpp"

namespace apx {

/// Builds the parity-prediction CED design around a mapped circuit.
CedDesign build_parity_ced(const Network& mapped);

/// The standalone parity-predictor network (single PO = XOR of all POs),
/// mapped onto the default library (XOR trees decompose into its gates).
/// Exposed for delay studies (paper: parity prediction lengthens the
/// critical path by ~51%).
Network build_parity_predictor(const Network& mapped);

}  // namespace apx
