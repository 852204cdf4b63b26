// perfbench_gen: writes one benchmark input graph as an `.opimg` file.
//
//   perfbench_gen --nodes=65536 --seed=7 --out=graph.opimg
//
// The file is written to `<out>.tmp` and renamed into place, so a
// killed run never leaves a truncated graph under the final name.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chung_lu.h"
#include "graph/graph_mmap.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ChungLuSpec spec;
  std::string out, value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--nodes", &value)) {
      spec.nodes =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--out", &value)) {
      out = value;
    } else {
      std::fprintf(stderr, "perfbench_gen: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (out.empty() || spec.nodes == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --nodes=N [--seed=S] --out=PATH\n");
    return 2;
  }
  const opim::Graph g = perfbench::GenerateChungLu(spec);
  const std::string tmp = out + ".tmp";
  const opim::Status saved = opim::SaveOpimg(g, tmp);
  if (!saved.ok() || std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::fprintf(stderr, "perfbench_gen: cannot write %s: %s\n", out.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "perfbench_gen: n=%u m=%llu seed=%llu -> %s\n",
               g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
               static_cast<unsigned long long>(spec.seed), out.c_str());
  return 0;
}
