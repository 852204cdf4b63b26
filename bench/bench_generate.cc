// Perf baseline for RR-set *generation*: the sampling kernel itself (a
// serial SampleInto loop, no collection) and the end-to-end
// ParallelGenerate path (sample + ingest), for both diffusion models under
// weighted-cascade weights at 1 and N threads. Emits one JSON object
// (interleaved-median kernel timings, min-of-R end-to-end timings) so
// scripts/run_perf_baseline.sh can track before/after numbers
// (BENCH_generate.json).
//
// Two end-to-end configurations:
//   *_generate_1t — cold path: per-call SamplingView build + temporary
//                   pool, the historical headline (comparable across all
//                   committed baseline labels).
//   *_generate_nt — engine path at `threads_n` threads: run-owned pool
//                   and cached SamplingView, i.e. exactly what RunOpimC
//                   pays per doubling (view and pool amortize across the
//                   run). Falls back to the 1t number when threads_n == 1.
//   *_view_build  — one view build on the engine path's pool, as RunOpimC
//                   builds it; `view_bytes` holds each view's footprint.
// Each end-to-end run also reports an ingest-phase breakdown
// (ingest_breakdown_us) assembled from telemetry histogram deltas:
// sample+fused sort/compress plus the shard postings in the workers
// (opim.rrset.shard_us), ingestion (opim.rrset.ingest_us) and the index
// append inside it (opim.rrset.index_append_us). Zeros in
// OPIM_TELEMETRY=OFF builds.
//
//   ./build/bench/bench_generate [--smoke] [--n=N] [--theta=T] [--reps=R]
//       [--threads=T] [--label=NAME] [--out=FILE]
//
// The kernel timings are the ones the ISSUE acceptance criteria compare:
// `ic_kernel_1t` / `lt_kernel_1t` are pure per-sample cost (RNG draws,
// threshold compares, walk steps) on the n=100k weighted-cascade config.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rrset/parallel_generate.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "support/random.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

struct Config {
  uint32_t n = 100000;
  uint32_t edges_per_node = 10;
  uint64_t theta = 200000;
  int reps = 5;
  unsigned threads = 0;  // 0 = hardware default
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
      cfg.n = 2000;
      cfg.edges_per_node = 5;
      cfg.theta = 5000;
      cfg.reps = 2;
    } else if (ParseFlag(argv[i], "--n=", &v)) {
      cfg.n = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--theta=", &v)) {
      cfg.theta = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--reps=", &v)) {
      cfg.reps = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--threads=", &v)) {
      cfg.threads = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
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

/// Times `fn` `reps` times and returns the MINIMUM wall time in us. Used
/// for the end-to-end engine timings: on shared/virtualized hosts the
/// interference distribution is one-sided (runs only ever get slower), so
/// the minimum is the stable estimator of the code's true cost — medians
/// of small R swing with whatever the neighbors were doing that minute.
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

/// Sum of the named histogram in a snapshot (0 when absent, e.g. in
/// OPIM_TELEMETRY=OFF builds).
double HistSum(const MetricsSnapshot& s, const char* name) {
  const HistogramSample* h = s.FindHistogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum);
}

/// Per-rep average of each generation stage between two registry
/// snapshots: sampling + fused sort/compress inside the workers, total
/// ingestion (assembly + index), and the index append alone.
struct StageBreakdown {
  double sample_sort_compress_us = 0.0;
  double ingest_us = 0.0;
  double index_us = 0.0;
};

StageBreakdown BreakdownBetween(const MetricsSnapshot& before,
                                const MetricsSnapshot& after, int reps) {
  StageBreakdown b;
  const double r = static_cast<double>(reps);
  b.sample_sort_compress_us =
      (HistSum(after, "opim.rrset.shard_us") -
       HistSum(before, "opim.rrset.shard_us")) / r;
  b.ingest_us = (HistSum(after, "opim.rrset.ingest_us") -
                 HistSum(before, "opim.rrset.ingest_us")) / r;
  b.index_us = (HistSum(after, "opim.rrset.index_append_us") -
                HistSum(before, "opim.rrset.index_append_us")) / r;
  return b;
}

/// Times `ref` and `fn` interleaved rep by rep. Returns {median ref us,
/// median fn us, median per-rep ref/fn ratio}. Interleaving keeps every
/// ratio inside one tight machine window, so the speedup survives the
/// host-speed drift that makes two separate runs on shared/virtualized
/// hardware differ by 1.5x for reasons unrelated to the code.
template <typename RefFn, typename Fn>
std::array<double, 3> TimePairedMedianUs(int reps, RefFn&& ref, Fn&& fn) {
  std::vector<double> rs, fs, ratios;
  for (int r = 0; r < reps; ++r) {
    Stopwatch wr;
    ref();
    rs.push_back(wr.ElapsedSeconds());
    Stopwatch wf;
    fn();
    fs.push_back(wf.ElapsedSeconds());
    ratios.push_back(rs.back() / fs.back());
  }
  std::sort(rs.begin(), rs.end());
  std::sort(fs.begin(), fs.end());
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = rs.size() / 2;
  return {rs[mid] * 1e6, fs[mid] * 1e6, ratios[mid]};
}

/// Faithful port of the pre-rework IC kernel: per-edge
/// `rng.Bernoulli(Graph::InProbs()[i])` double compares with a
/// visited-check-first edge loop and a separate BFS queue. Kept in the
/// benchmark so every run reports an in-process, interleaved speedup of
/// the SamplingView kernel over it.
struct ReferenceIcSampler {
  const Graph& g;
  uint32_t epoch = 0;
  std::vector<uint32_t> visited;
  std::vector<NodeId> queue;

  explicit ReferenceIcSampler(const Graph& graph)
      : g(graph), visited(graph.num_nodes(), 0) {}

  uint64_t SampleInto(Rng& rng, std::vector<NodeId>* out) {
    out->clear();
    ++epoch;
    NodeId root = rng.UniformBelow(g.num_nodes());
    visited[root] = epoch;
    out->push_back(root);
    queue.clear();
    queue.push_back(root);
    uint64_t edges_examined = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      NodeId u = queue[head];
      auto in_nbrs = g.InNeighbors(u);
      auto in_probs = g.InProbs(u);
      edges_examined += in_nbrs.size();
      for (size_t i = 0; i < in_nbrs.size(); ++i) {
        NodeId w = in_nbrs[i];
        if (visited[w] == epoch) continue;
        if (!rng.Bernoulli(in_probs[i])) continue;
        visited[w] = epoch;
        out->push_back(w);
        queue.push_back(w);
      }
    }
    return edges_examined;
  }
};

/// Faithful port of the pre-rework LT kernel: per-node AliasSampler
/// objects and a double-precision stop draw per step.
struct ReferenceLtSampler {
  const Graph& g;
  uint32_t epoch = 0;
  std::vector<uint32_t> visited;
  std::vector<AliasSampler> in_alias;

  explicit ReferenceLtSampler(const Graph& graph)
      : g(graph), visited(graph.num_nodes(), 0), in_alias(graph.num_nodes()) {
    std::vector<double> weights;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      auto probs = g.InProbs(v);
      weights.assign(probs.begin(), probs.end());
      in_alias[v].Build(weights);
    }
  }

  uint64_t SampleInto(Rng& rng, std::vector<NodeId>* out) {
    out->clear();
    ++epoch;
    NodeId u = rng.UniformBelow(g.num_nodes());
    uint64_t edges_examined = 0;
    for (;;) {
      if (visited[u] == epoch) break;
      visited[u] = epoch;
      out->push_back(u);
      edges_examined += g.InDegree(u);
      double stay = g.InWeightSum(u);
      if (stay <= 0.0 || in_alias[u].empty()) break;
      if (rng.UniformDouble() >= stay) break;
      uint32_t pick = in_alias[u].Sample(rng);
      u = g.InNeighbors(u)[pick];
    }
    return edges_examined;
  }
};

int Run(const Config& cfg) {
  const unsigned nt = ThreadPool::ResolveThreadCount(cfg.threads);
  std::fprintf(stderr,
               "bench_generate: n=%u theta=%llu reps=%d threads=%u label=%s\n",
               cfg.n, static_cast<unsigned long long>(cfg.theta), cfg.reps,
               nt, cfg.label.c_str());

  // Weighted-cascade weights: the paper's experimental setting (§8.1).
  Graph g = GenerateBarabasiAlbert(cfg.n, cfg.edges_per_node);

  JsonWriter w;
  w.BeginObject();
  w.Key("label").Value(cfg.label);
  w.Key("config").BeginObject();
  w.Key("n").Value(static_cast<uint64_t>(cfg.n));
  w.Key("edges_per_node").Value(static_cast<uint64_t>(cfg.edges_per_node));
  w.Key("theta").Value(cfg.theta);
  w.Key("reps").Value(static_cast<int64_t>(cfg.reps));
  w.Key("threads_n").Value(static_cast<uint64_t>(nt));
  w.EndObject();

  uint64_t sink = 0;
  std::vector<std::pair<std::string, double>> timings;
  std::vector<std::pair<std::string, double>> speedups;
  std::vector<std::pair<std::string, StageBreakdown>> breakdowns;
  std::vector<std::pair<std::string, uint64_t>> view_bytes;
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    const char* tag = DiffusionModelName(model);

    // Kernel: serial SampleInto loop, sampler constructed outside the
    // timed region (preprocessing is amortized across doublings in the
    // engine), no collection involved. The pre-rework reference kernel is
    // timed interleaved with it, rep by rep, and the median per-rep ratio
    // is reported as the drift-immune kernel speedup.
    // Both kernels are held by concrete type: the reference samplers are
    // non-virtual, so the measured kernel must not pay a vtable dispatch
    // the reference does not.
    const bool is_ic = model == DiffusionModel::kIndependentCascade;
    std::optional<IcRRSampler> ic_sampler;
    std::optional<LtRRSampler> lt_sampler;
    std::optional<ReferenceIcSampler> ref_ic;
    std::optional<ReferenceLtSampler> ref_lt;
    if (is_ic) {
      ic_sampler.emplace(g);
      ref_ic.emplace(g);
    } else {
      lt_sampler.emplace(g);
      ref_lt.emplace(g);
    }
    const auto [ref_us, kernel_us, kernel_speedup] = TimePairedMedianUs(
        cfg.reps,
        [&] {
          Rng rng(101);
          std::vector<NodeId> scratch;
          for (uint64_t i = 0; i < cfg.theta; ++i) {
            sink += is_ic ? ref_ic->SampleInto(rng, &scratch)
                          : ref_lt->SampleInto(rng, &scratch);
            sink += scratch.size();
          }
        },
        [&] {
          Rng rng(101);
          std::vector<NodeId> scratch;
          for (uint64_t i = 0; i < cfg.theta; ++i) {
            sink += is_ic ? ic_sampler->SampleInto(rng, &scratch)
                          : lt_sampler->SampleInto(rng, &scratch);
            sink += scratch.size();
          }
        });
    timings.emplace_back(std::string(tag) + "_kernel_1t", kernel_us);
    timings.emplace_back(std::string(tag) + "_kernel_1t_ref", ref_us);
    speedups.emplace_back(std::string(tag) + "_kernel_1t", kernel_speedup);

    // Cold end-to-end path at 1 thread: per-call SamplingView build +
    // temporary pool + sampling + ingestion + index build. The historical
    // headline, comparable across every committed baseline label.
    MetricsSnapshot snap0 = MetricsRegistry::Default().Snapshot();
    const double gen1_us = TimeMinUs(cfg.reps, [&] {
      RRCollection rr(cfg.n);
      ParallelGenerate(g, model, &rr, cfg.theta, /*seed=*/11,
                       /*num_threads=*/1);
      sink += rr.total_size();
    });
    timings.emplace_back(std::string(tag) + "_generate_1t", gen1_us);
    MetricsSnapshot snap1 = MetricsRegistry::Default().Snapshot();
    breakdowns.emplace_back(std::string(tag) + "_1t",
                            BreakdownBetween(snap0, snap1, cfg.reps));

    // Engine end-to-end path at `nt` threads: run-owned pool and cached
    // SamplingView (both built outside the timed region), matching what
    // RunOpimC pays per doubling once the run is set up. The view build
    // it amortizes is reported separately, built on the same pool as
    // RunOpimC builds it, together with the bytes the view owns.
    std::optional<ThreadPool> pool;
    if (nt > 1) pool.emplace(nt);
    ThreadPool* const pool_ptr = pool ? &*pool : nullptr;
    Stopwatch view_watch;
    const SamplingView cached_view(g, SamplingViewPartsFor(model), pool_ptr);
    const double view_us = view_watch.ElapsedSeconds() * 1e6;
    timings.emplace_back(std::string(tag) + "_view_build", view_us);
    view_bytes.emplace_back(tag, cached_view.MemoryFootprintBytes());
    double genN_us = gen1_us;
    StageBreakdown bn = breakdowns.back().second;
    if (nt > 1) {
      genN_us = TimeMinUs(cfg.reps, [&] {
        RRCollection rr(cfg.n);
        ParallelGenerate(g, model, &rr, cfg.theta, /*seed=*/11,
                         /*num_threads=*/nt, {}, pool_ptr, &cached_view);
        sink += rr.total_size();
      });
      bn = BreakdownBetween(snap1, MetricsRegistry::Default().Snapshot(),
                            cfg.reps);
    }
    timings.emplace_back(std::string(tag) + "_generate_nt", genN_us);
    breakdowns.emplace_back(std::string(tag) + "_nt", bn);

    std::fprintf(stderr,
                 "bench_generate: %s kernel_1t=%.0fus (ref=%.0fus, "
                 "speedup=%.2fx) generate_1t=%.0fus generate_%ut=%.0fus "
                 "(sample+compress=%.0fus ingest=%.0fus index=%.0fus) "
                 "view_build_%ut=%.0fus view_bytes=%llu\n",
                 tag, kernel_us, ref_us, kernel_speedup, gen1_us, nt,
                 genN_us, bn.sample_sort_compress_us, bn.ingest_us,
                 bn.index_us, nt, view_us,
                 static_cast<unsigned long long>(
                     cached_view.MemoryFootprintBytes()));
  }

  w.Key("timings_us").BeginObject();
  for (const auto& [key, us] : timings) w.Key(key).Value(us);
  w.EndObject();
  // Median of per-rep interleaved (reference kernel)/(view kernel) ratios:
  // the machine-drift-immune speedup numbers.
  w.Key("kernel_speedup_vs_ref").BeginObject();
  for (const auto& [key, ratio] : speedups) w.Key(key).Value(ratio);
  w.EndObject();
  // Per-rep stage timings of each end-to-end configuration, from
  // telemetry histogram deltas (all zeros when OPIM_TELEMETRY=OFF):
  // sample_sort_compress_us is the in-worker shard loop (sampling with
  // the fused sort + group-varint encode, then the shard postings),
  // ingest_us the ingestion (assembly + index), index_us the index
  // append inside it.
  w.Key("ingest_breakdown_us").BeginObject();
  for (const auto& [key, b] : breakdowns) {
    w.Key(key).BeginObject();
    w.Key("sample_sort_compress").Value(b.sample_sort_compress_us);
    w.Key("ingest").Value(b.ingest_us);
    w.Key("index").Value(b.index_us);
    w.EndObject();
  }
  w.EndObject();
  // Bytes each model's view owns (SamplingView::MemoryFootprintBytes).
  w.Key("view_bytes").BeginObject();
  for (const auto& [key, bytes] : view_bytes) w.Key(key).Value(bytes);
  w.EndObject();
  w.Key("throughput_sets_per_s").BeginObject();
  for (const auto& [key, us] : timings) {
    if (key.ends_with("_view_build")) continue;  // one-shot, not per-set
    w.Key(key).Value(static_cast<double>(cfg.theta) * 1e6 / us);
  }
  w.EndObject();
  w.Key("checksum").Value(sink);
  w.EndObject();

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
  return 0;
}

}  // namespace
}  // namespace opim

int main(int argc, char** argv) {
  return opim::Run(opim::ParseArgs(argc, argv));
}
