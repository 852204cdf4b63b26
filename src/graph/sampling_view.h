// Sampling-oriented view of the reverse graph.
//
// The RR-set samplers spend nearly all their time deciding, edge by edge,
// whether a reverse-CSR in-edge is live. Graph stores probabilities as
// doubles, so the natural kernel is `rng.UniformDouble() < p` — a 64-bit
// draw, an int→double conversion, and a double compare per edge.
// SamplingView precomputes, once per graph, everything that lets the
// kernels consume the RNG stream 32 bits at a time:
//
//   * IC: reject thresholds quantized to uint32_t — an edge is rejected
//     iff `rng.NextU32() < rej`, with per-edge error <= 2^-32 and p >= 1
//     kept *exactly* (rej == 0). Edges with p <= 0 are never traversed
//     (exactly never live; traversal cost still charges the full
//     in-degree, which the view carries per node). Each node is
//     classified: uniform-probability nodes — true by construction for
//     kWeightedCascade and kConstant weights — with enough in-edges
//     additionally precompute 1/log1p(-p), so the kernel can jump
//     Geometric(p) edges ahead (Rng::GeometricSkip) instead of flipping a
//     coin per in-neighbor: expected RNG draws drop from deg to p·deg + 1.
//   * LT: one flattened Walker/Vose alias arena — single bucket array
//     indexed by the reverse-CSR offsets — instead of n independently
//     allocated per-node tables, plus a quantized per-node stop threshold
//     (the walk continues with probability Σ_w p(w, v)).
//
// The IC part borrows the graph's reverse CSR instead of copying it. A
// *direct* node — every in-edge carries one probability p > 0, as on
// weighted-cascade and constant-weight graphs — needs a single threshold
// (or a single 1/log1p(-p)), so its 16-byte record stores that number next
// to the node's offset into Graph's in-neighbor array, and the kernel
// reads the neighbors from there. Only *side* nodes — mixed probabilities,
// or a uniform node with dropped p <= 0 edges — get a compacted
// {neighbor, reject} list of their kept edges in a side array. On WC and
// constant graphs the view is therefore O(n): building it is one read-only
// classification pass over the probabilities, and it writes nothing
// m-sized.
//
// The storage layout is chosen for the memory-latency profile of real RR
// sampling: at typical scales a sample touches a handful of *random*
// nodes, so cache lines per member — not arithmetic — bound throughput.
// Per-node state is one record per node (offset + full in-degree + kind +
// threshold or skip constant for IC; edge offset + stop threshold for LT),
// so a member costs one record load plus one sequential run of its
// neighbors. The LT buckets are fully resolved {reject, keep, alias}
// triples, so the LT walk never touches the Graph arrays at all.
//
// A view is immutable after construction and shared read-only across
// worker threads; ParallelGenerate builds one per call (or accepts a
// caller-cached one) instead of letting every shard re-derive per-node
// state. Construction parallelizes over nodes on an optional ThreadPool
// and is deterministic for any worker count. The view borrows the Graph,
// which must outlive it.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace opim {

class ThreadPool;

/// Quantizes a keep-probability into the 32-bit reject threshold used by
/// the sampling kernels: a trial is *rejected* iff `rng.NextU32() < rej`,
/// so `rej = round((1 - p)·2^32)`. The kept probability is within 2^-32
/// of p, and p >= 1 maps to rej == 0: certain edges are kept exactly.
/// p <= 0 maps to SamplingView::kAlwaysReject; callers that must reject
/// *exactly* (not merely with probability 1 - 2^-32) test for the
/// sentinel explicitly.
inline uint32_t QuantizeRejectThreshold(double keep_prob) {
  if (keep_prob >= 1.0) return 0;
  if (keep_prob <= 0.0) return std::numeric_limits<uint32_t>::max();
  const double r = std::nearbyint((1.0 - keep_prob) * 0x1.0p32);
  if (r >= 4294967295.0) return std::numeric_limits<uint32_t>::max();
  return static_cast<uint32_t>(r);
}

/// Read-only, shareable sampling state derived from a Graph. Build once,
/// hand `const SamplingView&` to every sampler/worker.
class SamplingView {
 public:
  /// Which kernels' state to precompute.
  enum class Parts : uint8_t { kIc = 1, kLt = 2, kBoth = 3 };

  /// Reject threshold meaning "certain rejection" (up to 2^-32); also the
  /// sentinel for degenerate LT nodes (no in-edges, or zero stay mass)
  /// where the kernel must stop unconditionally.
  static constexpr uint32_t kAlwaysReject =
      std::numeric_limits<uint32_t>::max();

  /// How the IC kernel traverses a node's (positive-probability) in-edges.
  enum class IcNodeKind : uint8_t {
    kEmpty,    ///< no in-edge with p > 0: nothing to traverse
    kKeepAll,  ///< uniform p >= 1: every in-edge is live, no RNG at all
    kSkip,     ///< uniform p, degree >= kSkipMinDegree: geometric skipping
    kPerEdge,  ///< one quantized threshold compare per in-edge
  };

  /// Low bits of IcNodeRecord::indeg_kind: the IcNodeKind (2 bits) and
  /// kIcSideBit; the full in-degree sits above them.
  static constexpr uint32_t kIcKindBits = 3;
  static constexpr uint32_t kIcKindMask = (1u << kIcKindBits) - 1;
  static constexpr uint32_t kIcSideBit = 4;

  /// Largest in-degree the packed record can carry; the build checks
  /// every node against it, so `edges_examined` can never wrap.
  static constexpr uint64_t kMaxIcInDegree =
      (uint64_t{1} << (32 - kIcKindBits)) - 1;

  /// Packs `indeg << kIcKindBits | side | kind`. Checks `indeg` against
  /// kMaxIcInDegree.
  static uint32_t PackIcInDegreeKind(uint64_t indeg, IcNodeKind kind,
                                     bool side) {
    OPIM_CHECK_LE(indeg, kMaxIcInDegree);
    return static_cast<uint32_t>(indeg << kIcKindBits) |
           (side ? kIcSideBit : 0u) | static_cast<uint32_t>(kind);
  }

  /// One compacted side-list edge: kept in-neighbor plus its quantized
  /// reject threshold, adjacent so a single cache line serves both.
  struct IcEdge {
    NodeId nbr;
    uint32_t rej;
  };

  /// Packed per-node IC record, four to a cache line.
  ///   * `offset`: first kept in-edge — an index into the graph's
  ///     in-neighbor array for direct nodes, into the side list for side
  ///     nodes.
  ///   * `indeg_kind`: the *full* in-degree (the cost contract), the
  ///     IcNodeKind and kIcSideBit; see PackIcInDegreeKind.
  ///   * `param`, by node class:
  ///       - direct kSkip: the bits of the double 1/log1p(-p);
  ///       - direct kPerEdge / kKeepAll: the one reject threshold;
  ///       - side: the kept-edge count (low 32 bits) and, for kSkip, the
  ///         index of 1/log1p(-p) in the side skip array (high 32 bits);
  ///       - kEmpty: 0.
  ///     A direct node keeps every in-edge, so its kept count is its
  ///     in-degree.
  struct IcNodeRecord {
    uint32_t offset;
    uint32_t indeg_kind;
    uint64_t param;
  };

  /// One resolved LT alias bucket: the draw *deviates to `alias`* iff
  /// `rng.NextU32() < rej` (0 = full bucket, keeps `keep` with no draw);
  /// both outcomes are stored as node ids, so a walk step never reads the
  /// Graph adjacency arrays.
  struct LtBucket {
    uint32_t rej;
    NodeId keep;
    NodeId alias;
  };

  /// Packed per-node LT record: offset of the node's first bucket (the
  /// arena is aligned with the full reverse CSR, so in-degree is the
  /// offset delta) plus the quantized stop threshold.
  struct LtNodeMeta {
    uint32_t offset;
    uint32_t stop_rej;
  };

  /// Uniform nodes switch from per-edge compares to geometric skipping at
  /// this in-degree (and only for p <= kSkipMaxProb): a Geometric(p) draw
  /// costs several threshold compares, so skipping pays off once the
  /// expected p·deg + 1 draws undercut deg compares with room to spare.
  static constexpr uint64_t kSkipMinDegree = 16;
  static constexpr double kSkipMaxProb = 0.125;

  /// Builds the requested parts. `pool` (optional) parallelizes
  /// construction; the result is identical for any worker count. The LT
  /// part requires per-node in-weights summing to <= 1 (checked).
  explicit SamplingView(const Graph& g, Parts parts = Parts::kBoth,
                        ThreadPool* pool = nullptr);

  OPIM_DISALLOW_COPY(SamplingView);

  const Graph& graph() const { return *graph_; }
  bool has_ic() const { return ic_nodes_ != nullptr; }
  bool has_lt() const { return !lt_meta_.empty(); }

  /// Bytes the view itself owns: the IC records, side list and side skip
  /// constants plus the LT arena. The graph's in-CSR that direct IC nodes
  /// read is the graph's storage and is not counted. Counted against
  /// RunControl memory budgets together with RRCollection::MemoryUsage().
  uint64_t MemoryFootprintBytes() const {
    return (has_ic() ? uint64_t{graph_->num_nodes()} : 0) *
               sizeof(IcNodeRecord) +
           ic_side_.capacity() * sizeof(IcEdge) +
           ic_side_skip_inv_.capacity() * sizeof(double) +
           lt_meta_.capacity() * sizeof(LtNodeMeta) +
           lt_buckets_.capacity() * sizeof(LtBucket);
  }

  // --- IC part -----------------------------------------------------------

  IcNodeKind ic_kind(NodeId v) const {
    return static_cast<IcNodeKind>(ic_nodes_[v].indeg_kind & 3u);
  }

  /// True when the kernel reads v's neighbors straight from the graph's
  /// in-CSR (v has no side list).
  bool IcDirect(NodeId v) const {
    return (ic_nodes_[v].indeg_kind & kIcSideBit) == 0;
  }

  /// Full in-degree of v (including dropped p <= 0 edges): the traversal
  /// cost the sampler charges per member.
  uint32_t IcFullInDegree(NodeId v) const {
    return ic_nodes_[v].indeg_kind >> kIcKindBits;
  }

  /// Number of kept (p > 0) in-edges of v.
  uint32_t IcKeptDegree(NodeId v) const {
    if (ic_kind(v) == IcNodeKind::kEmpty) return 0;
    return IcDirect(v) ? IcFullInDegree(v)
                       : static_cast<uint32_t>(ic_nodes_[v].param);
  }

  /// The i-th kept in-edge of v in reverse-CSR order (i < IcKeptDegree)
  /// with its reject threshold. For direct kSkip nodes, which the kernel
  /// traverses by geometric gaps instead, the threshold is derived from
  /// the graph's probability.
  IcEdge IcKeptEdge(NodeId v, uint32_t i) const;

  /// The compacted {neighbor, reject} list of a side node; empty for
  /// direct nodes.
  std::span<const IcEdge> IcSideEdges(NodeId v) const {
    if (IcDirect(v)) return {};
    return {ic_side_.data() + ic_nodes_[v].offset, IcKeptDegree(v)};
  }

  /// 1/log1p(-p) for kSkip nodes (meaningless otherwise).
  double IcSkipInvLog(NodeId v) const {
    const IcNodeRecord& r = ic_nodes_[v];
    return IcDirect(v) ? std::bit_cast<double>(r.param)
                       : ic_side_skip_inv_[r.param >> 32];
  }

  /// Raw array access for the sampling kernel: per-node records (n), the
  /// graph's in-neighbor array (m), the side list and the side skip
  /// constants.
  const IcNodeRecord* IcNodeData() const { return ic_nodes_.get(); }
  const NodeId* IcCsrNeighbors() const { return ic_csr_nbrs_; }
  const IcEdge* IcSideData() const { return ic_side_.data(); }
  const double* IcSideSkipInvData() const { return ic_side_skip_inv_.data(); }

  // --- LT part -----------------------------------------------------------

  /// Quantized stop threshold: the walk at v stops iff
  /// `rng.NextU32() < LtStopReject(v)`; kAlwaysReject means stop
  /// unconditionally (no in-edges or no stay mass). Exactly 0 for
  /// LT-saturated nodes (Σ p = 1, e.g. weighted cascade): no draw needed.
  uint32_t LtStopReject(NodeId v) const { return lt_meta_[v].stop_rej; }

  /// First alias bucket of v; bucket j corresponds to in-edge j of v.
  uint64_t LtOffset(NodeId v) const { return lt_meta_[v].offset; }

  /// Bucket contents; see LtBucket.
  const LtBucket& LtBucketAt(uint64_t bucket) const {
    return lt_buckets_[bucket];
  }

  /// Raw array access for the sampling kernels (size n + 1 / m).
  const LtNodeMeta* LtMetaData() const { return lt_meta_.data(); }
  const LtBucket* LtBucketData() const { return lt_buckets_.data(); }

 private:
  void BuildIc(ThreadPool* pool);
  void BuildLt(ThreadPool* pool);

  const Graph* graph_;

  // IC: one record per node, the borrowed in-neighbor array, and the
  // side list of kept edges for nodes that cannot read the CSR directly.
  // The records are left uninitialized until the parallel classification
  // pass writes each one, so no serial n-sized zero fill precedes it.
  std::unique_ptr<IcNodeRecord[]> ic_nodes_;
  const NodeId* ic_csr_nbrs_ = nullptr;
  std::vector<IcEdge> ic_side_;
  std::vector<double> ic_side_skip_inv_;  // one per side kSkip node

  // LT: flattened alias arena aligned with the full reverse CSR.
  std::vector<LtNodeMeta> lt_meta_;   // n + 1 (last: end offset)
  std::vector<LtBucket> lt_buckets_;  // m
};

}  // namespace opim
