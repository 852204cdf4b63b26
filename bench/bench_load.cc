// Perf baseline for graph *loading*: text edge-list parsing vs the
// memory-mapped `.opimg` container (see graph/graph_mmap.h). Emits one
// JSON object so scripts/run_perf_baseline.sh can track before/after
// numbers (BENCH_load.json).
//
// Timed configurations (min over reps, same page-cache state for all —
// this measures the CPU cost of getting a usable Graph, which is what
// the .opimg format removes):
//   text_parse_load  — LoadEdgeList on the equivalent "u v p" text file:
//                      the historical startup path every run used to pay.
//   opimg_mmap_cold  — LoadOpimg with full validation (header checks,
//                      whole-payload checksum scan, structure scan): the
//                      default first-load-of-a-file path.
//   opimg_mmap_warm  — LoadOpimg with both scans off: pure mmap + header
//                      parse, the repeat-load path for a file already
//                      validated once (O(1) in the graph size).
//   opimg_heap_load  — LoadOpimg --force-heap with full validation: what
//                      platforms without usable mmap pay.
// Derived: load_speedup = text_parse_load / opimg_mmap_cold, the
// headline "pay the parse once" ratio.
//
//   ./build/bench/bench_load [--smoke] [--n=N] [--reps=R]
//       [--label=NAME] [--out=FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_mmap.h"
#include "obs/json.h"
#include "support/stopwatch.h"

namespace opim {
namespace {

struct Config {
  uint32_t n = 200000;
  uint32_t edges_per_node = 10;
  int reps = 5;
  std::string label = "run";
  std::string out;  // empty = stdout only
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *value = arg + len;
  return true;
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.n = 20000;
      cfg.edges_per_node = 8;
      cfg.reps = 3;
    } else if (ParseFlag(argv[i], "--n=", &v)) {
      cfg.n = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--reps=", &v)) {
      cfg.reps = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--label=", &v)) {
      cfg.label = v;
    } else if (ParseFlag(argv[i], "--out=", &v)) {
      cfg.out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return cfg;
}

/// Minimum wall time in us over `reps` runs (same estimator rationale as
/// bench_generate: interference on shared hosts is one-sided).
template <typename Fn>
double TimeMinUs(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double s = watch.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best * 1e6;
}

uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<uint64_t>(size) : 0;
}

int Run(const Config& cfg) {
  std::fprintf(stderr, "bench_load: n=%u epn=%u reps=%d label=%s\n", cfg.n,
               cfg.edges_per_node, cfg.reps, cfg.label.c_str());

  Graph g = GenerateBarabasiAlbert(cfg.n, cfg.edges_per_node);
  const std::string stem =
      "/tmp/bench_load_" + std::to_string(::getpid());
  const std::string text_path = stem + ".txt";
  const std::string opimg_path = stem + ".opimg";
  if (!SaveEdgeList(g, text_path).ok() || !SaveOpimg(g, opimg_path).ok()) {
    std::fprintf(stderr, "bench_load: cannot write %s\n", stem.c_str());
    return 1;
  }

  uint64_t sink = 0;
  auto consume = [&sink](const Result<Graph>& r) {
    if (!r.ok()) {
      std::fprintf(stderr, "bench_load: load failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    sink += r.ValueOrDie().num_edges() + r.ValueOrDie().num_nodes();
  };

  std::vector<std::pair<std::string, double>> timings;
  timings.emplace_back("text_parse_load", TimeMinUs(cfg.reps, [&] {
                         consume(LoadEdgeList(text_path));
                       }));
  timings.emplace_back("opimg_mmap_cold", TimeMinUs(cfg.reps, [&] {
                         consume(LoadOpimg(opimg_path));
                       }));
  OpimgLoadOptions trusting;
  trusting.verify_checksum = false;
  trusting.validate_structure = false;
  timings.emplace_back("opimg_mmap_warm", TimeMinUs(cfg.reps, [&] {
                         consume(LoadOpimg(opimg_path, trusting));
                       }));
  OpimgLoadOptions heap;
  heap.force_heap = true;
  timings.emplace_back("opimg_heap_load", TimeMinUs(cfg.reps, [&] {
                         consume(LoadOpimg(opimg_path, heap));
                       }));
  const double text_us = timings[0].second;
  const double cold_us = timings[1].second;
  const double warm_us = timings[2].second;

  JsonWriter w;
  w.BeginObject();
  w.Key("label").Value(cfg.label);
  w.Key("config").BeginObject();
  w.Key("n").Value(static_cast<uint64_t>(cfg.n));
  w.Key("edges_per_node").Value(static_cast<uint64_t>(cfg.edges_per_node));
  w.Key("reps").Value(static_cast<int64_t>(cfg.reps));
  w.Key("text_bytes").Value(FileBytes(text_path));
  w.Key("opimg_bytes").Value(FileBytes(opimg_path));
  w.EndObject();
  w.Key("timings_us").BeginObject();
  for (const auto& [key, us] : timings) w.Key(key).Value(us);
  w.EndObject();
  w.Key("load_speedup").BeginObject();
  w.Key("opimg_mmap_cold").Value(text_us / cold_us);
  w.Key("opimg_mmap_warm").Value(text_us / warm_us);
  w.EndObject();
  w.Key("checksum").Value(sink);
  w.EndObject();

  std::fprintf(stderr,
               "bench_load: text=%.0fus opimg_cold=%.0fus (%.1fx) "
               "opimg_warm=%.0fus (%.1fx) heap=%.0fus\n",
               text_us, cold_us, text_us / cold_us, warm_us,
               text_us / warm_us, timings[3].second);

  std::printf("%s\n", w.str().c_str());
  if (!cfg.out.empty()) {
    std::FILE* f = std::fopen(cfg.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cfg.out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  }
  std::remove(text_path.c_str());
  std::remove(opimg_path.c_str());
  return 0;
}

}  // namespace
}  // namespace opim

int main(int argc, char** argv) {
  return opim::Run(opim::ParseArgs(argc, argv));
}
