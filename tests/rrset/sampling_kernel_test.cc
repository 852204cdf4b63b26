// Differential and statistical tests for the fast sampling kernel
// (graph/sampling_view.h + the SamplingView-based RR samplers).
//
// The kernel replaces double-precision Bernoulli draws with quantized
// 32-bit reject thresholds, adds geometric skipping over high-degree
// uniform-probability nodes, and flattens the LT alias tables into one
// arena. None of that may change the *distribution* being sampled beyond
// the documented 2^-32 per-trial quantization error, so these tests
// compare the production kernels against straightforward double-precision
// reference implementations (the pre-view algorithms, kept verbatim here):
// mean RR-set size and per-node coverage frequencies via a two-sample
// chi-square statistic, plus exactness at the p = 0 / p = 1 boundaries
// where quantization is required to be lossless.

#include "graph/sampling_view.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "rrset/rr_sampler.h"
#include "support/alias_sampler.h"
#include "support/random.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

// ---------------------------------------------------------------------------
// Double-precision reference kernels (the pre-SamplingView algorithms).
// ---------------------------------------------------------------------------

/// Reference IC RR sample: uniform root, one Bernoulli(p) double draw per
/// in-edge of every traversed node.
void ReferenceIcSample(const Graph& g, Rng& rng, std::vector<NodeId>* out) {
  out->clear();
  std::vector<char> visited(g.num_nodes(), 0);
  const NodeId root = rng.UniformBelow(g.num_nodes());
  visited[root] = 1;
  out->push_back(root);
  for (size_t head = 0; head < out->size(); ++head) {
    const NodeId u = (*out)[head];
    const auto nbrs = g.InNeighbors(u);
    const auto probs = g.InProbs(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId w = nbrs[i];
      if (visited[w]) continue;
      if (!rng.Bernoulli(probs[i])) continue;
      visited[w] = 1;
      out->push_back(w);
    }
  }
}

/// Reference LT RR sample: uniform root, double stop draw + per-node alias
/// table per walk step.
void ReferenceLtSample(const Graph& g,
                       const std::vector<AliasSampler>& in_alias, Rng& rng,
                       std::vector<NodeId>* out) {
  out->clear();
  std::vector<char> visited(g.num_nodes(), 0);
  NodeId u = rng.UniformBelow(g.num_nodes());
  for (;;) {
    if (visited[u]) break;
    visited[u] = 1;
    out->push_back(u);
    const double stay = g.InWeightSum(u);
    if (stay <= 0.0 || in_alias[u].empty()) break;
    if (rng.UniformDouble() >= stay) break;
    u = g.InNeighbors(u)[in_alias[u].Sample(rng)];
  }
}

std::vector<AliasSampler> BuildReferenceAlias(const Graph& g) {
  std::vector<AliasSampler> in_alias(g.num_nodes());
  std::vector<double> weights;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto probs = g.InProbs(v);
    weights.assign(probs.begin(), probs.end());
    in_alias[v].Build(weights);
  }
  return in_alias;
}

// ---------------------------------------------------------------------------
// Statistical helpers.
// ---------------------------------------------------------------------------

/// Two-sample chi-square statistic Σ (a_i - b_i)² / (a_i + b_i) over the
/// categories with enough mass, for equal sample counts. Returns the
/// statistic and (via out-param) the degrees of freedom actually used.
double TwoSampleChiSquare(const std::vector<uint64_t>& a,
                          const std::vector<uint64_t>& b, size_t* df) {
  double stat = 0.0;
  *df = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double ai = static_cast<double>(a[i]);
    const double bi = static_cast<double>(b[i]);
    if (ai + bi < 20.0) continue;  // skip sparse categories
    const double d = ai - bi;
    stat += d * d / (ai + bi);
    ++(*df);
  }
  return stat;
}

/// Loose upper acceptance bound for a chi-square statistic with `df`
/// degrees of freedom: mean df, variance 2·df, so df + 6·sqrt(2·df) is far
/// out in the tail (one-sided p well below 1e-6 for the df used here).
double ChiSquareBound(size_t df) {
  return static_cast<double>(df) +
         6.0 * std::sqrt(2.0 * static_cast<double>(df));
}

struct CoverageStats {
  std::vector<uint64_t> node_hits;  // per-node coverage count
  double mean_size = 0.0;
};

template <typename SampleFn>
CoverageStats Collect(uint32_t n, int samples, SampleFn&& sample) {
  CoverageStats s;
  s.node_hits.assign(n, 0);
  std::vector<NodeId> out;
  uint64_t total = 0;
  for (int i = 0; i < samples; ++i) {
    sample(&out);
    total += out.size();
    for (const NodeId v : out) ++s.node_hits[v];
  }
  s.mean_size = static_cast<double>(total) / samples;
  return s;
}

// ---------------------------------------------------------------------------
// Quantization unit tests.
// ---------------------------------------------------------------------------

TEST(QuantizeRejectThresholdTest, BoundariesAreExact) {
  EXPECT_EQ(QuantizeRejectThreshold(1.0), 0u);
  EXPECT_EQ(QuantizeRejectThreshold(1.5), 0u);
  EXPECT_EQ(QuantizeRejectThreshold(0.0), SamplingView::kAlwaysReject);
  EXPECT_EQ(QuantizeRejectThreshold(-0.5), SamplingView::kAlwaysReject);
}

TEST(QuantizeRejectThresholdTest, InteriorErrorWithinOneUlp32) {
  Rng rng(404);
  for (int i = 0; i < 10000; ++i) {
    const double p = rng.UniformDouble();
    if (p <= 0.0 || p >= 1.0) continue;
    const uint32_t rej = QuantizeRejectThreshold(p);
    // Keep probability implied by the threshold: (2^32 - rej) / 2^32.
    const double implied =
        (0x1.0p32 - static_cast<double>(rej)) * 0x1.0p-32;
    EXPECT_NEAR(implied, p, 0x1.0p-32) << "p=" << p;
  }
}

TEST(QuantizeRejectThresholdTest, HalfIsTwoToThirtyOne) {
  EXPECT_EQ(QuantizeRejectThreshold(0.5), 0x80000000u);
}

// ---------------------------------------------------------------------------
// View construction tests.
// ---------------------------------------------------------------------------

TEST(SamplingViewTest, ClassifiesNodesAndDropsDeadEdges) {
  GraphBuilder b(40);
  // Node 0: 20 uniform low-probability in-edges -> kSkip.
  for (NodeId u = 1; u <= 20; ++u) b.AddEdge(u, 0, 0.05);
  // Node 1: uniform but p too large for skipping -> kPerEdge.
  for (NodeId u = 2; u <= 21; ++u) b.AddEdge(u, 1, 0.5);
  // Node 2: certain edges -> kKeepAll.
  b.AddEdge(3, 2, 1.0);
  b.AddEdge(4, 2, 1.0);
  // Node 3: mixed probabilities -> kPerEdge.
  b.AddEdge(5, 3, 0.2);
  b.AddEdge(6, 3, 0.7);
  // Node 4: only a dead edge -> compacted away, kEmpty.
  b.AddEdge(5, 4, 0.0);
  // Node 5: no in-edges at all -> kEmpty.
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);

  EXPECT_TRUE(view.has_ic());
  EXPECT_FALSE(view.has_lt());
  EXPECT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kSkip);
  EXPECT_LT(view.IcSkipInvLog(0), 0.0);  // 1/log1p(-p) < 0 for p in (0,1)
  EXPECT_EQ(view.ic_kind(1), SamplingView::IcNodeKind::kPerEdge);
  EXPECT_EQ(view.ic_kind(2), SamplingView::IcNodeKind::kKeepAll);
  EXPECT_EQ(view.ic_kind(3), SamplingView::IcNodeKind::kPerEdge);
  EXPECT_EQ(view.ic_kind(4), SamplingView::IcNodeKind::kEmpty);
  EXPECT_EQ(view.ic_kind(5), SamplingView::IcNodeKind::kEmpty);

  EXPECT_EQ(view.IcKeptDegree(0), 20u);
  EXPECT_EQ(view.IcKeptDegree(4), 0u);    // p = 0 edge dropped
  EXPECT_EQ(view.IcFullInDegree(4), 1u);  // cost contract still charges it
  EXPECT_EQ(view.IcKeptDegree(2), 2u);
  for (uint32_t i = 0; i < view.IcKeptDegree(2); ++i) {
    EXPECT_EQ(view.IcKeptEdge(2, i).rej, 0u);
  }

  // Uniform nodes without dead edges read the graph's CSR directly and
  // own no side edges; only the mixed node needs a side list.
  for (NodeId v : {0u, 1u, 2u, 4u, 5u}) {
    EXPECT_TRUE(view.IcDirect(v)) << "node " << v;
    EXPECT_TRUE(view.IcSideEdges(v).empty()) << "node " << v;
  }
  EXPECT_FALSE(view.IcDirect(3));
  ASSERT_EQ(view.IcSideEdges(3).size(), 2u);
  EXPECT_EQ(view.IcSideEdges(3)[0].nbr, 5u);
  EXPECT_EQ(view.IcSideEdges(3)[0].rej, QuantizeRejectThreshold(0.2));
  EXPECT_EQ(view.IcSideEdges(3)[1].nbr, 6u);
  EXPECT_EQ(view.IcSideEdges(3)[1].rej, QuantizeRejectThreshold(0.7));
  // Direct nodes' kept edges are the graph's in-edges, in CSR order.
  for (uint32_t i = 0; i < view.IcKeptDegree(1); ++i) {
    EXPECT_EQ(view.IcKeptEdge(1, i).nbr, g.InNeighbors(1)[i]);
    EXPECT_EQ(view.IcKeptEdge(1, i).rej, QuantizeRejectThreshold(0.5));
  }
}

TEST(SamplingViewTest, UniformNodeWithDeadEdgeGetsSideList) {
  GraphBuilder b(40);
  // Node 0: 20 uniform skip-range edges plus one p = 0 edge. The skip
  // positions run over the kept edges only, so the node needs a
  // compacted side list even though it is uniform.
  for (NodeId u = 1; u <= 20; ++u) b.AddEdge(u, 0, 0.05);
  b.AddEdge(21, 0, 0.0);
  // Node 1: keep-all with a dead edge.
  b.AddEdge(2, 1, 1.0);
  b.AddEdge(3, 1, 0.0);
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);

  EXPECT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kSkip);
  EXPECT_FALSE(view.IcDirect(0));
  EXPECT_EQ(view.IcFullInDegree(0), 21u);
  EXPECT_EQ(view.IcKeptDegree(0), 20u);
  EXPECT_EQ(view.IcSkipInvLog(0), 1.0 / std::log1p(-0.05));
  for (const auto& e : view.IcSideEdges(0)) EXPECT_NE(e.nbr, 21u);

  EXPECT_EQ(view.ic_kind(1), SamplingView::IcNodeKind::kKeepAll);
  EXPECT_FALSE(view.IcDirect(1));
  ASSERT_EQ(view.IcSideEdges(1).size(), 1u);
  EXPECT_EQ(view.IcSideEdges(1)[0].nbr, 2u);
  EXPECT_EQ(view.IcSideEdges(1)[0].rej, 0u);
}

TEST(SamplingViewTest, WeightedCascadeFootprintHasNoEdgeTerm) {
  // On a weighted-cascade graph every node is direct, so the view owns
  // one record per node and nothing per edge: graphs with the same n and
  // four times the edges have the same footprint.
  const Graph sparse = GenerateBarabasiAlbert(20000, 3);
  const Graph dense = GenerateBarabasiAlbert(20000, 12);
  ASSERT_GT(dense.num_edges(), 3 * sparse.num_edges());
  const SamplingView a(sparse, SamplingView::Parts::kIc);
  const SamplingView b(dense, SamplingView::Parts::kIc);
  const uint64_t per_node =
      uint64_t{sparse.num_nodes()} * sizeof(SamplingView::IcNodeRecord);
  EXPECT_EQ(a.MemoryFootprintBytes(), per_node);
  EXPECT_EQ(b.MemoryFootprintBytes(), per_node);
}

TEST(SamplingViewTest, PackedInDegreeLimit) {
  // The record packs the full in-degree above kIcKindBits kind bits in 32
  // bits; the largest in-degree must round-trip, and one more is refused
  // at build time instead of silently wrapping `edges_examined`.
  EXPECT_EQ(SamplingView::kMaxIcInDegree, (uint64_t{1} << 29) - 1);
  const uint32_t packed = SamplingView::PackIcInDegreeKind(
      SamplingView::kMaxIcInDegree, SamplingView::IcNodeKind::kPerEdge,
      /*side=*/true);
  EXPECT_EQ(packed >> SamplingView::kIcKindBits,
            SamplingView::kMaxIcInDegree);
  EXPECT_EQ(packed & 3u,
            static_cast<uint32_t>(SamplingView::IcNodeKind::kPerEdge));
  EXPECT_NE(packed & SamplingView::kIcSideBit, 0u);
  EXPECT_DEATH(SamplingView::PackIcInDegreeKind(
                   SamplingView::kMaxIcInDegree + 1,
                   SamplingView::IcNodeKind::kEmpty, /*side=*/false),
               "OPIM_CHECK");
}

TEST(SamplingViewTest, SkipThresholdRespectsDegreeAndProbability) {
  GraphBuilder b(40);
  // Degree below kSkipMinDegree stays per-edge even at small p.
  for (NodeId u = 1; u <= SamplingView::kSkipMinDegree - 1; ++u) {
    b.AddEdge(u, 0, 0.05);
  }
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);
  EXPECT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kPerEdge);
}

TEST(SamplingViewTest, LtArenaMatchesReferenceStopProbabilities) {
  Graph g = GenerateBarabasiAlbert(200, 3);  // weighted cascade
  SamplingView view(g, SamplingView::Parts::kLt);
  EXPECT_TRUE(view.has_lt());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double stay = g.InWeightSum(v);
    if (g.InDegree(v) == 0 || stay <= 0.0) {
      EXPECT_EQ(view.LtStopReject(v), SamplingView::kAlwaysReject);
    } else if (stay >= 1.0) {
      // Weighted cascade saturates Σ p = 1: the stop draw must be elided
      // exactly, not approximately.
      EXPECT_EQ(view.LtStopReject(v), 0u);
    } else {
      const double implied_stop =
          static_cast<double>(view.LtStopReject(v)) * 0x1.0p-32;
      EXPECT_NEAR(implied_stop, 1.0 - stay, 0x1.0p-32);
    }
  }
}

TEST(SamplingViewTest, ParallelBuildMatchesSerialBuild) {
  Graph g = GenerateBarabasiAlbert(30000, 5);
  ThreadPool pool(4);
  SamplingView serial(g, SamplingView::Parts::kBoth);
  SamplingView parallel(g, SamplingView::Parts::kBoth, &pool);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(serial.ic_kind(v), parallel.ic_kind(v)) << "node " << v;
    ASSERT_EQ(serial.IcFullInDegree(v), parallel.IcFullInDegree(v));
    ASSERT_EQ(serial.IcDirect(v), parallel.IcDirect(v)) << "node " << v;
    ASSERT_EQ(serial.IcKeptDegree(v), parallel.IcKeptDegree(v));
    if (serial.ic_kind(v) == SamplingView::IcNodeKind::kSkip) {
      ASSERT_EQ(serial.IcSkipInvLog(v), parallel.IcSkipInvLog(v));
    }
    for (uint32_t i = 0; i < serial.IcKeptDegree(v); ++i) {
      const SamplingView::IcEdge se = serial.IcKeptEdge(v, i);
      const SamplingView::IcEdge pe = parallel.IcKeptEdge(v, i);
      ASSERT_EQ(se.nbr, pe.nbr);
      ASSERT_EQ(se.rej, pe.rej);
    }
    ASSERT_EQ(serial.LtStopReject(v), parallel.LtStopReject(v));
    ASSERT_EQ(serial.LtOffset(v), parallel.LtOffset(v));
    for (uint64_t bkt = serial.LtOffset(v); bkt < serial.LtOffset(v + 1);
         ++bkt) {
      const auto& sb = serial.LtBucketAt(bkt);
      const auto& pb = parallel.LtBucketAt(bkt);
      ASSERT_EQ(sb.rej, pb.rej);
      ASSERT_EQ(sb.keep, pb.keep);
      ASSERT_EQ(sb.alias, pb.alias);
    }
  }
}

TEST(SamplingViewTest, ParallelSideListsMatchSerialBuild) {
  // Side nodes in every chunk: the parallel build places each chunk's
  // side edges and skip constants from per-chunk tallies, which must land
  // exactly where the serial build puts them.
  constexpr NodeId kN = 30000;
  GraphBuilder b(kN);
  Rng rng(2718);
  for (NodeId v = 0; v < kN; ++v) {
    const uint32_t d = v % 40;
    for (uint32_t i = 0; i < d; ++i) {
      const NodeId u = rng.UniformBelow(kN);
      switch (v % 4) {
        case 0: b.AddEdge(u, v, 0.05); break;                    // direct
        case 1: b.AddEdge(u, v, i == 0 ? 0.0 : 0.05); break;     // dead edge
        case 2: b.AddEdge(u, v, 0.01 * (1 + i % 3)); break;      // mixed
        default: b.AddEdge(u, v, i % 5 == 0 ? 0.0 : 1.0); break;
      }
    }
  }
  Graph g = b.Build();
  ThreadPool pool(4);
  SamplingView serial(g, SamplingView::Parts::kIc);
  SamplingView parallel(g, SamplingView::Parts::kIc, &pool);
  EXPECT_EQ(serial.MemoryFootprintBytes(), parallel.MemoryFootprintBytes());
  uint64_t side_nodes = 0;
  for (NodeId v = 0; v < kN; ++v) {
    ASSERT_EQ(serial.ic_kind(v), parallel.ic_kind(v)) << "node " << v;
    ASSERT_EQ(serial.IcDirect(v), parallel.IcDirect(v)) << "node " << v;
    ASSERT_EQ(serial.IcFullInDegree(v), parallel.IcFullInDegree(v));
    ASSERT_EQ(serial.IcKeptDegree(v), parallel.IcKeptDegree(v));
    if (serial.ic_kind(v) == SamplingView::IcNodeKind::kSkip) {
      ASSERT_EQ(serial.IcSkipInvLog(v), parallel.IcSkipInvLog(v));
    }
    const auto se = serial.IcSideEdges(v);
    const auto pe = parallel.IcSideEdges(v);
    ASSERT_EQ(se.size(), pe.size()) << "node " << v;
    side_nodes += !serial.IcDirect(v);
    for (size_t i = 0; i < se.size(); ++i) {
      ASSERT_EQ(se[i].nbr, pe[i].nbr);
      ASSERT_EQ(se[i].rej, pe[i].rej);
      ASSERT_NE(se[i].rej, SamplingView::kAlwaysReject);  // no dead edges
    }
  }
  EXPECT_GT(side_nodes, kN / 3);
}

// ---------------------------------------------------------------------------
// Shared-view samplers must reproduce the owning samplers exactly.
// ---------------------------------------------------------------------------

TEST(SharedViewTest, BorrowedViewMatchesOwnedSamplerBitExactly) {
  Graph g = GenerateBarabasiAlbert(500, 4);
  SamplingView view(g);
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    auto owned = MakeRRSampler(g, model);
    auto borrowed = MakeRRSampler(view, model);
    Rng rng_a(77), rng_b(77);
    std::vector<NodeId> a, b;
    for (int i = 0; i < 500; ++i) {
      const uint64_t ca = owned->SampleInto(rng_a, &a);
      const uint64_t cb = borrowed->SampleInto(rng_b, &b);
      ASSERT_EQ(a, b);
      ASSERT_EQ(ca, cb);
    }
  }
}

TEST(SharedViewTest, SharedRootTableMatchesOwnedWeights) {
  Graph g = GenerateBarabasiAlbert(300, 3);
  std::vector<double> weights(g.num_nodes());
  Rng wrng(5);
  for (double& w : weights) w = wrng.UniformDouble();
  SamplingView view(g);
  AliasSampler root_table(weights);
  auto owned = MakeRRSampler(g, DiffusionModel::kIndependentCascade, weights);
  auto shared =
      MakeRRSampler(view, DiffusionModel::kIndependentCascade, &root_table);
  Rng rng_a(13), rng_b(13);
  std::vector<NodeId> a, b;
  for (int i = 0; i < 500; ++i) {
    const uint64_t ca = owned->SampleInto(rng_a, &a);
    const uint64_t cb = shared->SampleInto(rng_b, &b);
    ASSERT_EQ(a, b);
    ASSERT_EQ(ca, cb);
  }
}

// ---------------------------------------------------------------------------
// Differential distribution tests vs the double-precision reference.
// ---------------------------------------------------------------------------

constexpr int kDiffSamples = 60000;

TEST(KernelDifferentialTest, IcMatchesDoublePrecisionReference) {
  // Weighted-cascade BA graph: mixed node kinds (hubs classify as kSkip,
  // low-degree nodes as kPerEdge), the paper's experimental weighting.
  Graph g = GenerateBarabasiAlbert(400, 4);
  IcRRSampler sampler(g);
  Rng rng_new(2024);
  const CoverageStats fast =
      Collect(g.num_nodes(), kDiffSamples,
              [&](std::vector<NodeId>* out) { sampler.SampleInto(rng_new, out); });
  Rng rng_ref(4048);
  const CoverageStats ref =
      Collect(g.num_nodes(), kDiffSamples,
              [&](std::vector<NodeId>* out) { ReferenceIcSample(g, rng_ref, out); });

  EXPECT_NEAR(fast.mean_size, ref.mean_size, 0.05 * ref.mean_size);
  size_t df = 0;
  const double stat = TwoSampleChiSquare(fast.node_hits, ref.node_hits, &df);
  ASSERT_GT(df, 100u);  // the test must actually cover most nodes
  EXPECT_LT(stat, ChiSquareBound(df)) << "df=" << df;
}

TEST(KernelDifferentialTest, LtMatchesDoublePrecisionReference) {
  Graph g = GenerateBarabasiAlbert(400, 4);
  const std::vector<AliasSampler> ref_alias = BuildReferenceAlias(g);
  LtRRSampler sampler(g);
  Rng rng_new(9090);
  const CoverageStats fast =
      Collect(g.num_nodes(), kDiffSamples,
              [&](std::vector<NodeId>* out) { sampler.SampleInto(rng_new, out); });
  Rng rng_ref(1818);
  const CoverageStats ref = Collect(
      g.num_nodes(), kDiffSamples, [&](std::vector<NodeId>* out) {
        ReferenceLtSample(g, ref_alias, rng_ref, out);
      });

  EXPECT_NEAR(fast.mean_size, ref.mean_size, 0.05 * ref.mean_size);
  size_t df = 0;
  const double stat = TwoSampleChiSquare(fast.node_hits, ref.node_hits, &df);
  ASSERT_GT(df, 100u);
  EXPECT_LT(stat, ChiSquareBound(df)) << "df=" << df;
}

TEST(KernelDifferentialTest, GeometricSkipMatchesNaiveScanPerPosition) {
  // A single high-degree uniform-p node: the view must classify it kSkip,
  // and the skipping kernel's per-position edge inclusion frequencies must
  // match a naive Bernoulli scan (the positions are iid, so any positional
  // bias in the skip arithmetic shows up here).
  constexpr uint32_t kDeg = 64;
  constexpr double kP = 0.05;
  GraphBuilder b(kDeg + 1);
  for (NodeId u = 1; u <= kDeg; ++u) b.AddEdge(u, 0, kP);
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);
  ASSERT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kSkip);

  constexpr int kTrials = 120000;
  IcRRSampler sampler(view);
  Rng rng(31337);
  std::vector<uint64_t> skip_hits(g.num_nodes(), 0);
  std::vector<NodeId> out;
  int rooted_at_hub = 0;
  for (int i = 0; i < kTrials; ++i) {
    sampler.SampleInto(rng, &out);
    if (out[0] != 0) continue;  // only RR sets rooted at the hub traverse
    ++rooted_at_hub;
    for (const NodeId v : out) {
      if (v != 0) ++skip_hits[v];
    }
  }
  ASSERT_GT(rooted_at_hub, 1000);

  Rng ref_rng(73313);
  std::vector<uint64_t> ref_hits(g.num_nodes(), 0);
  for (int i = 0; i < rooted_at_hub; ++i) {
    for (NodeId u = 1; u <= kDeg; ++u) {
      if (ref_rng.Bernoulli(kP)) ++ref_hits[u];
    }
  }

  size_t df = 0;
  const double stat = TwoSampleChiSquare(skip_hits, ref_hits, &df);
  ASSERT_EQ(df, kDeg);
  EXPECT_LT(stat, ChiSquareBound(df)) << "df=" << df;

  // Aggregate inclusion frequency must match p closely too.
  uint64_t total = 0;
  for (const uint64_t h : skip_hits) total += h;
  const double freq =
      static_cast<double>(total) / (static_cast<double>(rooted_at_hub) * kDeg);
  EXPECT_NEAR(freq, kP, 0.005);
}

TEST(KernelDifferentialTest, GeometricSkipDistributionHasRightMoments) {
  // Geometric(p) on {0, 1, ...}: mean (1-p)/p and P(X = 0) = p.
  constexpr double kP = 0.05;
  const double inv = 1.0 / std::log1p(-kP);
  Rng rng(5150);
  constexpr int kTrials = 200000;
  double sum = 0.0;
  int zeros = 0;
  for (int i = 0; i < kTrials; ++i) {
    const uint64_t s = rng.GeometricSkip(inv);
    sum += static_cast<double>(s);
    zeros += s == 0;
  }
  const double mean = sum / kTrials;
  EXPECT_NEAR(mean, (1.0 - kP) / kP, 0.25);
  EXPECT_NEAR(static_cast<double>(zeros) / kTrials, kP, 0.003);
}

}  // namespace
}  // namespace opim
