// Byte-identity pins for the RR-set streams of the production samplers.
//
// Each test draws the first kSets RR sets of a fixed (graph, seed) pair and
// folds every set into one 64-bit FNV-1a digest: its size, its members in
// visit order, and its `edges_examined` cost. A change to the sampling
// view's layout or to the kernels' traversal must leave these digests
// untouched; any change to RNG consumption, neighbor order, node
// classification or the cost contract moves them. The graphs cover every
// IC weight scheme plus a hand-built graph with one node of each
// classification edge case, and one LT walk.
//
// When a digest fires on purpose (a deliberate stream change), re-pin it
// from the failing output and record the re-pin in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/sampling_view.h"
#include "rrset/rr_sampler.h"
#include "support/random.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

constexpr int kSets = 20000;
constexpr uint64_t kSeed = 2024;

struct StreamDigest {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  uint64_t members = 0;
  uint64_t edges_examined = 0;

  void Fold(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
    }
  }

  void Add(const std::vector<NodeId>& set, uint64_t cost) {
    Fold(set.size());
    for (const NodeId v : set) Fold(v);
    Fold(cost);
    members += set.size();
    edges_examined += cost;
  }
};

StreamDigest DigestOf(RRSampler& sampler) {
  Rng rng(kSeed);
  StreamDigest d;
  std::vector<NodeId> out;
  for (int i = 0; i < kSets; ++i) {
    const uint64_t cost = sampler.SampleInto(rng, &out);
    d.Add(out, cost);
  }
  return d;
}

/// Digests the IC stream twice — through a privately built view and
/// through a view built on a pool — and checks both against the pins.
void ExpectIcDigest(const Graph& g, uint64_t hash, uint64_t members,
                    uint64_t edges_examined) {
  IcRRSampler owned(g);
  const StreamDigest a = DigestOf(owned);
  EXPECT_EQ(a.hash, hash);
  EXPECT_EQ(a.members, members);
  EXPECT_EQ(a.edges_examined, edges_examined);

  ThreadPool pool(3);
  const SamplingView view(g, SamplingView::Parts::kIc, &pool);
  IcRRSampler shared(view);
  const StreamDigest b = DigestOf(shared);
  EXPECT_EQ(b.hash, hash);
  EXPECT_EQ(b.members, members);
  EXPECT_EQ(b.edges_examined, edges_examined);
}

/// 20k-node undirected preferential-attachment graph: a power-law degree
/// tail gives hubs above the skip degree next to many low-degree nodes,
/// and the node count spans several of the view builder's parallel
/// chunks.
Graph HubGraph(WeightScheme scheme, double constant_p) {
  GenOptions opt;
  opt.seed = 77;
  opt.scheme = scheme;
  opt.constant_p = constant_p;
  return GenerateBarabasiAlbert(20000, 3, /*undirected=*/true, opt);
}

TEST(RRStreamDigestTest, IcWeightedCascade) {
  ExpectIcDigest(HubGraph(WeightScheme::kWeightedCascade, 0.1),
                 1404050982979057862ULL, 125459u, 33518738u);
}

TEST(RRStreamDigestTest, IcConstant) {
  ExpectIcDigest(HubGraph(WeightScheme::kConstant, 0.04),
                 721147045351656262ULL, 408839u, 10375818u);
}

TEST(RRStreamDigestTest, IcTrivalency) {
  ExpectIcDigest(HubGraph(WeightScheme::kTrivalency, 0.1),
                 887516957562608308ULL, 290537u, 7758870u);
}

TEST(RRStreamDigestTest, IcUniformRandom) {
  ExpectIcDigest(HubGraph(WeightScheme::kUniformRandom, 0.08),
                 11430974111964619908ULL, 409873u, 10366836u);
}

/// One node per classification edge case, wired into a small strongly
/// connected core so that reverse BFS runs reach all of them often.
Graph EdgeCaseGraph() {
  constexpr NodeId kN = 64;
  GraphBuilder b(kN);
  // Node 0: p = 1 on every in-edge (keep-all).
  b.AddEdge(1, 0, 1.0);
  b.AddEdge(2, 0, 1.0);
  // Node 1: uniform skip hub (20 edges at p = 0.05) that also has a dead
  // p = 0 edge.
  for (NodeId u = 10; u < 30; ++u) b.AddEdge(u, 1, 0.05);
  b.AddEdge(30, 1, 0.0);
  // Node 2: uniform above kSkipMaxProb (20 edges at p = 0.5).
  for (NodeId u = 30; u < 50; ++u) b.AddEdge(u, 2, 0.5);
  // Node 3: mixed probabilities.
  b.AddEdge(4, 3, 0.2);
  b.AddEdge(5, 3, 0.7);
  b.AddEdge(0, 3, 0.2);
  // Node 4: its only in-edge is dead.
  b.AddEdge(6, 4, 0.0);
  // Node 5: keep-all with a dead edge beside the certain one.
  b.AddEdge(7, 5, 1.0);
  b.AddEdge(8, 5, 0.0);
  // Node 6: uniform skip hub without dead edges (32 edges at p = 0.1).
  for (NodeId u = 20; u < 52; ++u) b.AddEdge(u, 6, 0.1);
  // Node 7: a certain edge next to an uncertain one.
  b.AddEdge(3, 7, 1.0);
  b.AddEdge(9, 7, 0.3);
  // Node 8: uniform per-edge node with a dead edge.
  b.AddEdge(11, 8, 0.3);
  b.AddEdge(12, 8, 0.3);
  b.AddEdge(13, 8, 0.0);
  // Node 9: no in-edges at all.
  // Nodes 10..63: two uniform in-edges each, feeding back into 0..9.
  for (NodeId v = 10; v < kN; ++v) {
    b.AddEdge((v + 1) % kN, v, 0.4);
    b.AddEdge((v * 5 + 3) % kN, v, 0.4);
  }
  return b.Build();
}

TEST(RRStreamDigestTest, IcEdgeCaseGraph) {
  ExpectIcDigest(EdgeCaseGraph(), 10000661513849349480ULL, 129402u, 387719u);
}

TEST(RRStreamDigestTest, LtWeightedCascade) {
  const Graph g = HubGraph(WeightScheme::kWeightedCascade, 0.1);
  LtRRSampler sampler(g);
  const StreamDigest d = DigestOf(sampler);
  EXPECT_EQ(d.hash, 3953081474438395610ULL);
  EXPECT_EQ(d.members, 132425u);
  EXPECT_EQ(d.edges_examined, 42085185u);
}

}  // namespace
}  // namespace opim
