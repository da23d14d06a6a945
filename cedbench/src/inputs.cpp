#include "inputs.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "network/blif.hpp"
#include "network/ordering.hpp"

namespace cedbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InputMismatch("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

uint64_t fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<PinnedInput> read_manifest(const std::string& dir) {
  const std::string path = dir + "/MANIFEST";
  std::istringstream in(read_file(path));
  std::vector<PinnedInput> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    PinnedInput e;
    std::string file_hex, content_hex;
    if (!(fields >> e.name >> file_hex >> content_hex)) {
      throw InputMismatch("malformed line in " + path + ": " + line);
    }
    e.file_hash = std::stoull(file_hex, nullptr, 16);
    e.content_hash = std::stoull(content_hex, nullptr, 16);
    out.push_back(std::move(e));
  }
  if (out.empty()) throw InputMismatch(path + " lists no inputs");
  return out;
}

void write_manifest(const std::string& dir,
                    const std::vector<PinnedInput>& entries) {
  const std::string path = dir + "/MANIFEST";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "# name  fnv1a64(file bytes)  network_content_hash(parsed)\n");
  for (const PinnedInput& e : entries) {
    std::fprintf(f, "%s %016llx %016llx\n", e.name.c_str(),
                 static_cast<unsigned long long>(e.file_hash),
                 static_cast<unsigned long long>(e.content_hash));
  }
  std::fclose(f);
}

const PinnedInput& find_input(const std::vector<PinnedInput>& manifest,
                              const std::string& name) {
  for (const PinnedInput& e : manifest) {
    if (e.name == name) return e;
  }
  throw InputMismatch("MANIFEST has no entry for " + name);
}

void check_file_hashes(const std::string& dir,
                       const std::vector<PinnedInput>& manifest) {
  for (const PinnedInput& e : manifest) {
    const std::string path = dir + "/" + e.name + ".blif";
    if (fnv1a64(read_file(path)) != e.file_hash) {
      throw InputMismatch(path + ": file hash does not match MANIFEST");
    }
  }
}

apx::Network load_pinned(const std::string& dir, const PinnedInput& entry,
                         double* parse_seconds) {
  const std::string path = dir + "/" + entry.name + ".blif";
  const std::string text = read_file(path);
  if (fnv1a64(text) != entry.file_hash) {
    throw InputMismatch(path + ": file hash does not match MANIFEST");
  }
  const auto t0 = std::chrono::steady_clock::now();
  apx::Network net = apx::read_blif_string(text);
  *parse_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (apx::network_content_hash(net) != entry.content_hash) {
    throw InputMismatch(path + ": network content hash does not match "
                        "MANIFEST");
  }
  return net;
}

}  // namespace cedbench
