// perfbench_workload: one end-to-end benchmark workload in one process.
//
//   perfbench_workload --algo=opimc|online --graph=G.opimg --model=ic|lt
//       --k=50 [--eps=0.1] --threads=4 [--rounds=60 --batch=8000]
//       --seed=7 --seconds=10
//       [--trace=1 --trace-out=trace.json]
//
// Every timed repetition opens the graph file itself, so no cost a user
// pays between "here is a graph" and "here is (S*, α)" goes untimed.
//
// --trace=0 (end-to-end): repeats the workload closed-loop through the
// public entry points (LoadOpimg, RunOpimC, OnlineMaximizer) until
// --seconds have passed, with tracing off, and prints every raw sample.
// Repetition i samples RR stream i (see StreamSeed); an untimed warm-up
// repetition solves stream 0 first, and the timed one must reproduce its
// answer bit for bit.
//
// --trace=1 (per-layer): runs the same schedule untraced for half the
// time, then the same number of times as a replica that calls each
// layer's public functions directly (SamplingView, StagedGeneration,
// IngestStaged, SelectGreedyCelf, CoverageOf, SigmaLower/SigmaUpper) with
// a span around every call, and writes the trace as Chrome JSON. The
// replica must reproduce the public call's seeds, α and RR-set count.
//
// Both modes check every answer and end with an independent certificate
// check: σ(S*) is re-estimated on a fresh RR pool drawn from a seed the run
// never used, and the run fails when its reported σ_l exceeds that
// estimate's one-sided 1 - 1/n upper confidence limit.
//
// The last stdout line is one JSON object; perfbench/run.py turns it (and
// the trace) into the benchmark's metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bounds/bounds.h"
#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "graph/graph_mmap.h"
#include "graph/sampling_view.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "rrset/parallel_generate.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "select/selection_state.h"
#include "support/math_util.h"
#include "support/random.h"
#include "support/resource_usage.h"
#include "support/thread_pool.h"

namespace {

using opim::NodeId;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

uint64_t Micros(Clock::time_point begin, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count());
}

struct Config {
  bool online = false;
  std::string graph;
  opim::DiffusionModel model = opim::DiffusionModel::kIndependentCascade;
  uint32_t k = 50;
  double eps = 0.1;
  unsigned threads = 1;
  uint32_t rounds = 0;
  uint64_t batch = 0;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Config* c) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) return false;
    const std::string key(arg + 2, eq);
    const std::string value(eq + 1);
    if (key == "algo") {
      if (value != "opimc" && value != "online") return false;
      c->online = value == "online";
    } else if (key == "graph") {
      c->graph = value;
    } else if (key == "model") {
      if (value != "ic" && value != "lt") return false;
      c->model = value == "ic" ? opim::DiffusionModel::kIndependentCascade
                               : opim::DiffusionModel::kLinearThreshold;
    } else if (key == "k") {
      c->k = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "eps") {
      c->eps = std::strtod(value.c_str(), nullptr);
    } else if (key == "threads") {
      c->threads =
          static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "rounds") {
      c->rounds =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "batch") {
      c->batch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seed") {
      c->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      c->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      c->trace = value == "1";
    } else if (key == "trace-out") {
      c->trace_out = value;
    } else {
      return false;
    }
  }
  return !c->graph.empty() && c->k >= 1 && c->threads >= 1 &&
         (!c->online || (c->rounds >= 1 && c->batch >= 2)) &&
         (!c->trace || !c->trace_out.empty());
}

/// Operation ledger behind `attempted` / `failed`: every solve, online
/// round, replica comparison and certificate check is one operation.
class Checks {
 public:
  /// Counts one operation; it fails when any `ok` passed to Expect since
  /// the last Finish was false.
  void Expect(bool ok, const std::string& what) {
    if (!ok && current_ok_) notes_.push_back(what);
    current_ok_ = current_ok_ && ok;
  }
  void Finish() {
    ++attempted_;
    if (!current_ok_) ++failed_;
    current_ok_ = true;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool current_ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

bool DistinctSeeds(const std::vector<NodeId>& seeds, uint32_t k, uint32_t n) {
  if (seeds.size() != k) return false;
  std::vector<NodeId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         sorted.back() < n;
}

opim::Graph OpenGraph(const std::string& path) {
  opim::Result<opim::Graph> g = opim::LoadOpimg(path);
  if (!g.ok()) {
    std::fprintf(stderr, "perfbench_workload: %s\n",
                 g.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(g).ValueOrDie();
}

/// The answer a run ends with, compared across repetitions and replicas.
struct Answer {
  std::vector<NodeId> seeds;
  double alpha = 0.0;
  double sigma_lower = 0.0;
  double sigma_upper = 0.0;
  uint32_t iterations = 0;  // OPIM-C iterations, or online rounds
  uint64_t rr_sets = 0;
  bool operator==(const Answer& o) const {
    return seeds == o.seeds && alpha == o.alpha &&
           sigma_lower == o.sigma_lower && sigma_upper == o.sigma_upper &&
           rr_sets == o.rr_sets &&
           iterations == o.iterations;
  }
};

/// RR-stream seed of repetition `rep`. Repetitions use distinct streams:
/// on IC the total RR-set mass is heavy-tailed (weighted cascade is a
/// critical branching process), so one stream's timings depend on how many
/// giant sets it happened to draw; pooling streams makes a run's medians
/// steady. Stream 0 is the workload seed itself.
uint64_t StreamSeed(const Config& c, uint64_t rep) {
  return c.seed ^ (rep * 0x9e3779b97f4a7c15ULL);
}

opim::OpimCOptions SolveOptions(const Config& c, uint64_t rr_seed) {
  opim::OpimCOptions o;
  o.bound = opim::BoundKind::kImproved;
  o.seed = rr_seed;
  o.num_threads = c.threads;
  o.pipeline = true;
  return o;
}

// ---------------------------------------------------------------------
// End-to-end samples (tracing off).

struct Samples {
  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> session_s;
  std::vector<double> advance_sets_per_s;
  std::vector<double> query_s;
  std::vector<double> speculative_waste;  // OPIM-C only
  std::vector<double> peak_rss_mb;
};

/// One OPIM-C repetition: open the graph, solve, check the answer.
Answer SolveOnce(const Config& c, uint64_t rr_seed, Samples* s,
                 Checks* checks) {
  const Clock::time_point t0 = Clock::now();
  const opim::Graph g = OpenGraph(c.graph);
  const Clock::time_point t1 = Clock::now();
  const uint32_t n = g.num_nodes();
  opim::OpimCResult r = opim::RunOpimC(g, c.model, c.k, c.eps, 1.0 / n,
                                       SolveOptions(c, rr_seed));
  const Clock::time_point t2 = Clock::now();
  s->setup_s.push_back(Seconds(t0, t1));
  s->solve_s.push_back(Seconds(t1, t2));
  s->session_s.push_back(Seconds(t0, t2));
  double generate_seconds = 0.0;
  for (const opim::OpimCIteration& it : r.trace) {
    generate_seconds += it.generate_seconds;
    s->query_s.push_back(it.greedy_seconds + it.bounds_seconds);
  }
  s->advance_sets_per_s.push_back(r.num_rr_sets / generate_seconds);
  const uint64_t spec = r.speculative_sets_used + r.speculative_sets_discarded;
  s->speculative_waste.push_back(
      spec == 0 ? 0.0
                : static_cast<double>(r.speculative_sets_discarded) / spec);

  Answer a;
  a.seeds = r.seeds;
  a.alpha = r.alpha;
  a.iterations = r.iterations;
  a.rr_sets = r.num_rr_sets;
  if (!r.trace.empty()) {
    a.sigma_lower = r.trace.back().sigma_lower;
    a.sigma_upper = r.trace.back().sigma_upper;
  }
  const double target = 1.0 - 1.0 / std::exp(1.0) - c.eps;
  checks->Expect(DistinctSeeds(a.seeds, c.k, n), "solve: seeds not k distinct");
  checks->Expect(!r.trace.empty() && a.sigma_lower <= a.sigma_upper,
                 "solve: sigma_lower > sigma_upper");
  checks->Expect(r.guardrails.stop_reason == opim::StopReason::kConverged &&
                     (a.alpha >= target || r.iterations == r.i_max),
                 "solve: neither converged nor at i_max");
  return a;
}

/// One online session: open, construct, `rounds` x (advance, query).
Answer SessionOnce(const Config& c, uint64_t rr_seed, Samples* s,
                   Checks* checks) {
  const Clock::time_point t0 = Clock::now();
  const opim::Graph g = OpenGraph(c.graph);
  const uint32_t n = g.num_nodes();
  opim::OnlineMaximizer om(g, c.model, c.k, 1.0 / n, rr_seed);
  const Clock::time_point t1 = Clock::now();
  s->setup_s.push_back(Seconds(t0, t1));
  opim::OnlineSnapshot snap;
  double advance_seconds = 0.0;
  for (uint32_t round = 0; round < c.rounds; ++round) {
    const Clock::time_point ta = Clock::now();
    om.AdvanceParallel(c.batch, c.threads);
    const Clock::time_point tb = Clock::now();
    snap = om.Query(opim::BoundKind::kImproved);
    const Clock::time_point tc = Clock::now();
    advance_seconds += Seconds(ta, tb);
    s->query_s.push_back(Seconds(tb, tc));
    s->solve_s.push_back(Seconds(ta, tc));
    checks->Expect(DistinctSeeds(snap.seeds, c.k, n),
                   "query: seeds not k distinct");
    checks->Expect(snap.alpha >= 0.0 && snap.alpha <= 1.0,
                   "query: alpha outside [0, 1]");
    if (round + 1 < c.rounds) checks->Finish();
  }
  const Clock::time_point t2 = Clock::now();
  s->session_s.push_back(Seconds(t0, t2));
  s->advance_sets_per_s.push_back(
      static_cast<double>(om.num_rr_sets()) / advance_seconds);
  Answer a;
  a.seeds = snap.seeds;
  a.alpha = snap.alpha;
  a.sigma_lower = snap.sigma_lower;
  a.sigma_upper = snap.sigma_upper;
  a.iterations = c.rounds;
  a.rr_sets = om.num_rr_sets();
  return a;
}

/// Set-up alone (open + constructor), repeated so its median is steady.
void OnlineSetupOnce(const Config& c, Samples* s) {
  const Clock::time_point t0 = Clock::now();
  const opim::Graph g = OpenGraph(c.graph);
  const opim::OnlineMaximizer om(g, c.model, c.k, 1.0 / g.num_nodes(),
                                 c.seed);
  s->setup_s.push_back(Seconds(t0, Clock::now()));
}

/// Linux's resident high-water mark (VmHWM), reset by writing "5" to
/// /proc/self/clear_refs, so that each repetition's own peak is read
/// rather than the largest over all streams so far. Where the reset is
/// unavailable the reading is the process-lifetime peak. (ReadResourceUsage
/// also folds in getrusage's maximum, which the reset does not clear.)
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

uint64_t PeakRssBytes() {
  uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long v = 0;
      if (std::sscanf(line, "VmHWM: %llu", &v) == 1) kb = v;
    }
    std::fclose(f);
  }
  return kb > 0 ? kb * 1024 : opim::ReadResourceUsage().peak_rss_bytes;
}

/// Runs repetition `rep` of the workload (stream StreamSeed(rep)).
Answer RunOnce(const Config& c, uint64_t rep, Samples* s, Checks* checks) {
  const uint64_t rr_seed = StreamSeed(c, rep);
  ResetPeakRss();
  Answer a = c.online ? SessionOnce(c, rr_seed, s, checks)
                      : SolveOnce(c, rr_seed, s, checks);
  s->peak_rss_mb.push_back(static_cast<double>(PeakRssBytes()) / (1 << 20));
  return a;
}

// ---------------------------------------------------------------------
// Traced replica: the same schedule, one span per public layer call.

constexpr const char* kCat = "perfbench";

void Span(const char* name, Clock::time_point begin, Clock::time_point end,
          opim::TraceArg a0 = {}, opim::TraceArg a1 = {}) {
  opim::TraceRecorder::Default().RecordComplete(name, kCat, begin, end, a0,
                                                a1);
}

/// The calls both replicas share, each under its own span.
class TracedLayers {
 public:
  TracedLayers(const opim::Graph& g, const Config& c) : g_(g), c_(c) {}

  std::unique_ptr<opim::ThreadPool> MakePool(unsigned threads) {
    opim::TraceSpan span("support.thread_pool", kCat, {"threads", threads});
    return std::make_unique<opim::ThreadPool>(threads);
  }
  void DropPool(std::unique_ptr<opim::ThreadPool>* pool) {
    if (*pool == nullptr) return;
    opim::TraceSpan span("support.thread_pool", kCat);
    pool->reset();
  }

  std::unique_ptr<const opim::SamplingView> BuildView(opim::ThreadPool* pool) {
    const Clock::time_point b = Clock::now();
    auto view = std::make_unique<const opim::SamplingView>(
        g_, opim::SamplingViewPartsFor(c_.model), pool);
    Span("graph.view_build", b, Clock::now(),
         {"bytes", view->MemoryFootprintBytes()});
    return view;
  }

  /// Runs every shard of `stages` (on `pool`, or inline when `inline_run`)
  /// under one rrset.sample span, then ingests stage i into `dest[i]`.
  void SampleAndIngest(const std::vector<opim::StagedGeneration*>& stages,
                       const std::vector<opim::RRCollection*>& dest,
                       opim::ThreadPool* pool, bool inline_run,
                       unsigned threads, uint64_t sets) {
    const Clock::time_point b = Clock::now();
    if (inline_run) {
      for (opim::StagedGeneration* stage : stages) {
        opim::TraceSpan span("rrset.shard", kCat, {"shard", 0});
        stage->RunShard(0);
      }
    } else {
      for (opim::StagedGeneration* stage : stages) {
        for (unsigned s = 0; s < stage->shards(); ++s) {
          pool->Submit([stage, s] {
            opim::TraceSpan span("rrset.shard", kCat, {"shard", s});
            stage->RunShard(s);
          });
        }
      }
      pool->Wait();
    }
    Span("rrset.sample", b, Clock::now(), {"threads", threads},
         {"sets", sets});
    for (size_t i = 0; i < stages.size(); ++i) {
      const Clock::time_point ib = Clock::now();
      opim::IngestStaged(stages[i], dest[i], pool);
      Span("rrset.ingest", ib, Clock::now(),
           {"members", stages[i]->TotalNodes()},
           {"edges", stages[i]->TotalEdges()});
    }
  }

  /// CELF on `r1`; the initial-gain sync is timed apart through the
  /// after_initial_gains hook and carried as the span's sync_us argument.
  opim::GreedyResult Select(const opim::RRCollection& r1,
                            opim::SelectionState* state,
                            opim::ThreadPool* pool) {
    opim::CelfOptions options;
    options.pool = pool;
    options.state = state;
    Clock::time_point synced;
    options.after_initial_gains = [&synced] { synced = Clock::now(); };
    const Clock::time_point b = Clock::now();
    opim::GreedyResult greedy =
        opim::SelectGreedyCelf(r1, c_.k, /*with_trace=*/true, options);
    Span("select.celf", b, Clock::now(), {"theta", r1.num_sets()},
         {"sync_us", Micros(b, synced)});
    return greedy;
  }

  /// Judge scan on R2 and the σ bounds at per-side budget `delta_each`.
  Answer Judge(const opim::GreedyResult& greedy, const opim::RRCollection& r1,
               const opim::RRCollection& r2, double delta_each) {
    Answer a;
    Clock::time_point b = Clock::now();
    const uint64_t lambda2 = r2.CoverageOf(greedy.seeds);
    Span("bounds.judge_scan", b, Clock::now(), {"lambda2", lambda2},
         {"theta2", r2.num_sets()});
    b = Clock::now();
    const double n = g_.num_nodes();
    a.sigma_lower = opim::SigmaLower(lambda2, r2.num_sets(), n, delta_each);
    a.sigma_upper = opim::SigmaUpper(opim::BoundKind::kImproved, greedy,
                                     r1.num_sets(), n, delta_each);
    a.alpha = opim::ApproxRatio(a.sigma_lower, a.sigma_upper);
    Span("bounds.sigma", b, Clock::now());
    a.seeds = greedy.seeds;
    return a;
  }

 private:
  const opim::Graph& g_;
  const Config& c_;
};

constexpr opim::RRStoreOptions kEngineStore{.retain_set_costs = false};

/// RunOpimC's schedule with eager doublings (OPIM-C⁺, δ = 1/n): the
/// pipelined engine's speculative batches use the same seeds, so the
/// answer is identical.
Answer TracedOpimC(const opim::Graph& g, const Config& c, uint64_t rr_seed) {
  const uint32_t n = g.num_nodes();
  const double delta = 1.0 / n;
  const double theta_max = opim::OpimCThetaMax(n, c.k, c.eps, delta);
  const uint64_t theta0 = std::max<uint64_t>(
      1, opim::CeilToU64(opim::OpimCTheta0(n, c.k, c.eps, delta)));
  const uint32_t i_max = std::max<uint32_t>(
      1, opim::CeilLog2(
             opim::CeilToU64(theta_max / static_cast<double>(theta0))));
  const double delta_iter = delta / (3.0 * i_max);
  const double target = 1.0 - 1.0 / std::exp(1.0) - c.eps;
  const unsigned threads = opim::ThreadPool::ResolveThreadCount(c.threads);

  TracedLayers layers(g, c);
  std::unique_ptr<opim::ThreadPool> pool;
  if (threads > 1) pool = layers.MakePool(threads);
  const auto view = layers.BuildView(pool.get());
  opim::RRCollection r1(n, kEngineStore), r2(n, kEngineStore);
  uint64_t batch_counter = 0;
  auto generate = [&](opim::RRCollection* rr, uint64_t count) {
    uint64_t state = rr_seed ^ (0x6f70634bULL + ++batch_counter);
    const unsigned shards = opim::GenerateShardCount(count, threads);
    opim::StagedGeneration stage(*view, c.model, count,
                                 opim::SplitMix64(state), shards, nullptr,
                                 nullptr, 0, /*speculative=*/false);
    layers.SampleAndIngest({&stage}, {rr}, pool.get(), shards == 1, threads,
                           count);
  };
  generate(&r1, theta0);
  generate(&r2, theta0);

  opim::SelectionState state;
  Answer a;
  for (uint32_t i = 1; i <= i_max; ++i) {
    const Clock::time_point b = Clock::now();
    const opim::GreedyResult greedy = layers.Select(r1, &state, pool.get());
    a = layers.Judge(greedy, r1, r2, delta_iter);
    a.iterations = i;
    const uint64_t pool_bytes = r1.MemoryUsage() + r2.MemoryUsage();
    const bool exiting = a.alpha >= target || i == i_max;
    if (!exiting) {
      generate(&r1, r1.num_sets());
      generate(&r2, r2.num_sets());
    }
    Span("core.iteration", b, Clock::now(), {"iter", i},
         {"pool_bytes", pool_bytes});
    if (exiting) break;
  }
  a.rr_sets = uint64_t{r1.num_sets()} + r2.num_sets();
  layers.DropPool(&pool);
  return a;
}

/// OnlineMaximizer's session: AdvanceParallel's two staged batches on a
/// per-call pool, then Query(kImproved) at δ/2 per side.
Answer TracedOnline(const opim::Graph& g, const Config& c, uint64_t rr_seed) {
  const uint32_t n = g.num_nodes();
  const double delta = 1.0 / n;
  const unsigned threads = opim::ThreadPool::ResolveThreadCount(c.threads);
  TracedLayers layers(g, c);
  const auto view = layers.BuildView(nullptr);
  opim::Rng rng(rr_seed, 0x6f70696dULL);  // OnlineMaximizer's stream
  opim::RRCollection r1(n, kEngineStore), r2(n, kEngineStore);
  opim::SelectionState state;
  bool next_to_r1 = true;
  Answer a;
  for (uint32_t round = 1; round <= c.rounds; ++round) {
    const Clock::time_point b = Clock::now();
    const uint64_t to_r1 = (c.batch + next_to_r1) / 2;
    const uint64_t to_r2 = c.batch - to_r1;
    const uint64_t seed1 = rng.NextU64();
    const uint64_t seed2 = rng.NextU64();
    const unsigned shards1 = opim::GenerateShardCount(to_r1, threads);
    const unsigned shards2 = opim::GenerateShardCount(to_r2, threads);
    std::unique_ptr<opim::ThreadPool> pool;
    if (threads > 1 && shards1 + shards2 > 1) pool = layers.MakePool(threads);
    opim::StagedGeneration stage1(*view, c.model, to_r1, seed1, shards1,
                                  nullptr, nullptr, 0, false);
    opim::StagedGeneration stage2(*view, c.model, to_r2, seed2, shards2,
                                  nullptr, nullptr, 0, false);
    layers.SampleAndIngest({&stage1, &stage2}, {&r1, &r2}, pool.get(),
                           pool == nullptr, threads, c.batch);
    layers.DropPool(&pool);
    if (c.batch % 2 == 1) next_to_r1 = !next_to_r1;
    const opim::GreedyResult greedy = layers.Select(r1, &state, nullptr);
    a = layers.Judge(greedy, r1, r2, delta / 2.0);
    Span("core.iteration", b, Clock::now(), {"iter", round},
         {"pool_bytes", r1.MemoryUsage() + r2.MemoryUsage()});
  }
  a.iterations = c.rounds;
  a.rr_sets = uint64_t{r1.num_sets()} + r2.num_sets();
  return a;
}

Answer TracedRun(const Config& c, uint64_t rr_seed) {
  const Clock::time_point b = Clock::now();
  Clock::time_point ob = Clock::now();
  const opim::Graph g = OpenGraph(c.graph);
  Span("graph.open", ob, Clock::now(), {"nodes", g.num_nodes()},
       {"edges", g.num_edges()});
  Answer a = c.online ? TracedOnline(g, c, rr_seed)
                       : TracedOpimC(g, c, rr_seed);
  Span("core.run", b, Clock::now(), {"iterations", a.iterations},
       {"rr_sets", a.rr_sets});
  return a;
}

// ---------------------------------------------------------------------

/// Fresh RR sets behind the certificate check.
constexpr uint64_t kCheckSets = 1 << 16;

/// Independent certificate check on the run's final answer.
void CheckCertificate(const Config& c, const Answer& a, Checks* checks,
                      opim::JsonWriter* w) {
  const opim::Graph g = OpenGraph(c.graph);
  const uint32_t n = g.num_nodes();
  opim::RRCollection fresh(n, kEngineStore);
  uint64_t state = c.seed ^ 0x6365727469667931ULL;  // "certify1"
  opim::ParallelGenerate(g, c.model, &fresh, kCheckSets,
                         opim::SplitMix64(state), c.threads);
  const double lambda = static_cast<double>(fresh.CoverageOf(a.seeds));
  const double theta = static_cast<double>(fresh.num_sets());
  const double half_a = std::log(static_cast<double>(n)) / 2.0;
  const double root = std::sqrt(lambda + half_a) + std::sqrt(half_a);
  const double ucl = root * root * n / theta;
  checks->Expect(a.sigma_lower <= ucl,
                 "certificate: sigma_lower exceeds the fresh-pool upper "
                 "confidence limit");
  checks->Finish();
  w->Key("certificate").BeginObject();
  w->Key("sets").Value(kCheckSets);
  w->Key("sigma_lower").Value(a.sigma_lower);
  w->Key("estimate").Value(lambda * n / theta);
  w->Key("ucl").Value(ucl);
  w->EndObject();
}

void WriteArray(opim::JsonWriter* w, const char* key,
                const std::vector<double>& values) {
  w->Key(key).BeginArray();
  for (double v : values) w->Value(v);
  w->EndArray();
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  if (!ParseArgs(argc, argv, &c)) {
    std::fprintf(stderr,
                 "usage: perfbench_workload --algo=opimc|online --graph=PATH "
                 "--model=ic|lt --k=K [--eps=E] --threads=T [--rounds=R "
                 "--batch=B] --seed=S --seconds=SEC "
                 "[--trace=1 --trace-out=PATH]\n");
    return 2;
  }
#ifdef __GLIBC__
  // Fixed allocator thresholds. glibc's defaults adapt to the sizes freed
  // so far, so whether a repetition's buffers come from reused heap pages
  // or from fresh page-faulting mmaps depended on which RR streams the
  // earlier repetitions drew: on opimc-ic-1m that split seeds into a fast
  // and a slow mode (solve_s by ~20%, query latency by ~2x). Above 32 MiB
  // buffers are still mapped fresh per call, as by default.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const Clock::time_point start = Clock::now();
  Checks checks;
  Samples s;
  std::vector<Answer> answers;
  opim::JsonWriter w;
  w.BeginObject();

  if (!c.trace) {
    // Warm-up: one untimed repetition of stream 0 fills the page cache and
    // the heap before timing starts. Its answer is checked below against
    // the timed solve of the same stream.
    Samples warmup;
    const Answer first = RunOnce(c, 0, &warmup, &checks);
    checks.Finish();
    const Clock::time_point timed = Clock::now();
    if (c.online) {
      for (int i = 0; i < 5; ++i) OnlineSetupOnce(c, &s);
    }
    do {
      answers.push_back(RunOnce(c, answers.size(), &s, &checks));
      checks.Finish();
    } while (answers.size() < 3 || Seconds(timed, Clock::now()) < c.seconds);
    // Back-to-back solves of one stream must agree exactly.
    checks.Expect(first == answers[0],
                  "stream 0 solved again gives other seeds/alpha/sets");
    checks.Finish();
    w.Key("mode").Value("e2e");
    WriteArray(&w, "setup_s", s.setup_s);
    WriteArray(&w, "solve_s", s.solve_s);
    WriteArray(&w, "session_s", s.session_s);
    WriteArray(&w, "advance_sets_per_s", s.advance_sets_per_s);
    WriteArray(&w, "query_s", s.query_s);
    WriteArray(&w, "peak_rss_mb", s.peak_rss_mb);
  } else {
    // Untraced reference for half the time, then a traced replica of each
    // repetition, which must reproduce that repetition's answer.
    do {
      answers.push_back(RunOnce(c, answers.size(), &s, &checks));
      checks.Finish();
    } while (Seconds(start, Clock::now()) < c.seconds / 2);
    opim::TraceRecorder& rec = opim::TraceRecorder::Default();
    rec.StartSession({.events_per_thread = 1 << 13});
    for (uint64_t rep = 0; rep < answers.size(); ++rep) {
      checks.Expect(TracedRun(c, StreamSeed(c, rep)) == answers[rep],
                    "traced replica differs from the public call");
      checks.Finish();
    }
    rec.StopSession();
    const opim::Status written = rec.WriteChromeJson(c.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench_workload: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    w.Key("mode").Value("traced");
    WriteArray(&w, "untraced_wall_s", s.session_s);
    WriteArray(&w, "speculative_waste_frac", s.speculative_waste);
    w.Key("dropped_events").Value(rec.dropped_events());
  }
  w.Key("alpha").BeginArray();
  for (const Answer& a : answers) w.Value(a.alpha);
  w.EndArray();
  w.Key("iterations").BeginArray();
  for (const Answer& a : answers) w.Value(uint64_t{a.iterations});
  w.EndArray();
  w.Key("rr_sets").BeginArray();
  for (const Answer& a : answers) w.Value(a.rr_sets);
  w.EndArray();
  CheckCertificate(c, answers[0], &checks, &w);
  w.Key("attempted").Value(checks.attempted());
  w.Key("failed").Value(checks.failed());
  w.Key("failures").BeginArray();
  for (const std::string& note : checks.notes()) w.Value(note);
  w.EndArray();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
