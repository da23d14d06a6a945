// One-off generator of the pinned inputs: writes each circuit from
// apx::make_benchmark as BLIF and records its hashes in MANIFEST. The
// benchmark itself never runs the generator; rerunning this tool changes
// the inputs and so starts a new baseline.
//
//   cedbench_gen <inputs-dir>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "inputs.hpp"
#include "network/blif.hpp"
#include "network/ordering.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: cedbench_gen <inputs-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  const std::vector<std::string> names = {"cmb", "cordic", "term1",
                                          "x1",  "i2",     "mult32"};
  try {
    std::vector<cedbench::PinnedInput> manifest;
    for (const std::string& name : names) {
      const std::string text =
          apx::write_blif_string(apx::make_benchmark(name));
      const std::string path = dir + "/" + name + ".blif";
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) throw std::runtime_error("cannot write " + path);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      // The content hash is taken from the parsed file, exactly as the
      // benchmark will see it.
      cedbench::PinnedInput e;
      e.name = name;
      e.file_hash = cedbench::fnv1a64(text);
      e.content_hash =
          apx::network_content_hash(apx::read_blif_string(text));
      manifest.push_back(e);
      std::printf("%-7s %8zu bytes  %016llx %016llx\n", name.c_str(),
                  text.size(), static_cast<unsigned long long>(e.file_hash),
                  static_cast<unsigned long long>(e.content_hash));
    }
    cedbench::write_manifest(dir, manifest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cedbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
