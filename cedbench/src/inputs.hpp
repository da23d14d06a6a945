// Pinned benchmark inputs: BLIF files under cedbench/inputs/ plus a
// MANIFEST recording, per circuit, the file's FNV-1a-64 byte hash and the
// parsed network's network_content_hash. The benchmark reads only these
// files and refuses to run when either hash disagrees, so its inputs never
// drift with the generator or the optimizer.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "network/network.hpp"

namespace cedbench {

struct PinnedInput {
  std::string name;  ///< circuit name, also the file stem (<name>.blif)
  uint64_t file_hash = 0;     ///< FNV-1a 64 over the file's bytes
  uint64_t content_hash = 0;  ///< apx::network_content_hash after parsing
};

/// Thrown when a pinned file is missing or does not match its manifest.
struct InputMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

uint64_t fnv1a64(std::string_view bytes);

/// Reads `<dir>/MANIFEST`. Throws InputMismatch when it is missing or
/// malformed.
std::vector<PinnedInput> read_manifest(const std::string& dir);
void write_manifest(const std::string& dir,
                    const std::vector<PinnedInput>& entries);

/// Looks up `name` in the manifest; throws InputMismatch if absent.
const PinnedInput& find_input(const std::vector<PinnedInput>& manifest,
                              const std::string& name);

/// Checks the byte hash of every file the manifest lists, whether or not
/// this run reads it. Throws InputMismatch on any disagreement.
void check_file_hashes(const std::string& dir,
                       const std::vector<PinnedInput>& manifest);

/// Reads `<dir>/<entry.name>.blif`, checks its byte hash, parses it and
/// checks the content hash. `parse_seconds` receives the BLIF parse time
/// alone. Throws InputMismatch on any disagreement.
apx::Network load_pinned(const std::string& dir, const PinnedInput& entry,
                         double* parse_seconds);

}  // namespace cedbench
