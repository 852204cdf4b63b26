#include "graph/sampling_view.h"

#include <algorithm>
#include <functional>

#include "support/thread_pool.h"

namespace opim {

namespace {

/// Nodes per construction chunk.
constexpr uint32_t kChunk = 4096;

uint64_t NumChunks(uint32_t n) { return (uint64_t{n} + kChunk - 1) / kChunk; }

/// Runs `fn(chunk, lo, hi)` over the kChunk-node chunks covering [0, n),
/// across the pool when one is supplied and the graph is big enough to
/// pay for the dispatch. Chunks are disjoint, so parallel construction
/// writes each output slot exactly once and the result is identical for
/// any worker count.
void ForEachNodeChunk(
    uint32_t n, ThreadPool* pool,
    const std::function<void(uint64_t, NodeId, NodeId)>& fn) {
  const uint64_t chunks = NumChunks(n);
  auto run = [&](uint64_t c) {
    const NodeId lo = static_cast<NodeId>(c * kChunk);
    const NodeId hi =
        static_cast<NodeId>(std::min<uint64_t>(n, c * kChunk + kChunk));
    fn(c, lo, hi);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks < 2) {
    for (uint64_t c = 0; c < chunks; ++c) run(c);
    return;
  }
  pool->ParallelFor(chunks, run);
}

using IcNodeKind = SamplingView::IcNodeKind;

/// What the classification pass learns about one node's in-edges.
struct IcClass {
  IcNodeKind kind = IcNodeKind::kEmpty;
  bool side = false;   // needs a compacted side list
  uint32_t kept = 0;   // p > 0 edges
  double first = 0.0;  // the first kept probability
};

IcClass ClassifyIc(std::span<const double> probs) {
  IcClass c;
  bool uniform = true;
  for (const double p : probs) {
    if (p <= 0.0) continue;  // exactly never live: dropped
    if (c.kept == 0) {
      c.first = p;
    } else {
      uniform &= p == c.first;
    }
    ++c.kept;
  }
  if (c.kept == 0) return c;  // kEmpty never reads its edges
  if (uniform && c.first >= 1.0) {
    c.kind = IcNodeKind::kKeepAll;
  } else if (uniform && c.kept >= SamplingView::kSkipMinDegree &&
             c.first <= SamplingView::kSkipMaxProb) {
    c.kind = IcNodeKind::kSkip;
  } else {
    c.kind = IcNodeKind::kPerEdge;
  }
  // A node reads the graph's CSR directly only if one threshold serves
  // every in-edge; dropped edges or mixed probabilities need a side list.
  c.side = !uniform || c.kept != probs.size();
  return c;
}

}  // namespace

SamplingView::SamplingView(const Graph& g, Parts parts, ThreadPool* pool)
    : graph_(&g) {
  OPIM_CHECK_GT(g.num_nodes(), 0u);
  // Records keep edge offsets in 32 bits (the in-degree limit is checked
  // per node when it is packed).
  OPIM_CHECK_LE(g.num_edges(), 0xffffffffULL);
  const auto bits = static_cast<uint8_t>(parts);
  if (bits & static_cast<uint8_t>(Parts::kIc)) BuildIc(pool);
  if (bits & static_cast<uint8_t>(Parts::kLt)) BuildLt(pool);
}

SamplingView::IcEdge SamplingView::IcKeptEdge(NodeId v, uint32_t i) const {
  OPIM_CHECK_LT(i, IcKeptDegree(v));
  const IcNodeRecord& r = ic_nodes_[v];
  if (!IcDirect(v)) return ic_side_[r.offset + i];
  const NodeId nbr = ic_csr_nbrs_[r.offset + i];
  if (ic_kind(v) == IcNodeKind::kSkip) {
    return {nbr, QuantizeRejectThreshold(graph_->InProbs(v)[i])};
  }
  return {nbr, static_cast<uint32_t>(r.param)};
}

void SamplingView::BuildIc(ThreadPool* pool) {
  const Graph& g = *graph_;
  const uint32_t n = g.num_nodes();
  const GraphStorageView csr = g.storage_view();
  ic_csr_nbrs_ = csr.in_neighbors.data();
  ic_nodes_ = std::make_unique_for_overwrite<IcNodeRecord[]>(n);

  // Pass 1, read-only over the graph: classify every node and write its
  // record. Direct nodes are complete after this pass. Side nodes record
  // their kept count; each chunk tallies its side edges and side kSkip
  // nodes so that pass 2 can place them without a serial O(n) scan.
  struct SideTally {
    uint64_t edges = 0;
    uint64_t skips = 0;
  };
  std::vector<SideTally> tally(NumChunks(n));
  ForEachNodeChunk(n, pool, [&](uint64_t chunk, NodeId lo, NodeId hi) {
    SideTally t;
    for (NodeId v = lo; v < hi; ++v) {
      const auto probs = g.InProbs(v);
      const IcClass c = ClassifyIc(probs);
      IcNodeRecord& r = ic_nodes_[v];
      r.offset = static_cast<uint32_t>(csr.in_offsets[v]);
      r.indeg_kind = PackIcInDegreeKind(probs.size(), c.kind, c.side);
      if (c.side) {
        r.param = c.kept;  // offset and skip index follow in pass 2
        t.edges += c.kept;
        t.skips += c.kind == IcNodeKind::kSkip;
      } else if (c.kind == IcNodeKind::kSkip) {
        r.param = std::bit_cast<uint64_t>(1.0 / std::log1p(-c.first));
      } else if (c.kind == IcNodeKind::kEmpty) {
        r.param = 0;
      } else {
        r.param = QuantizeRejectThreshold(c.first);
      }
    }
    tally[chunk] = t;
  });

  // Chunk bases of the side list and the side skip array, in node order.
  std::vector<SideTally> base(tally.size());
  SideTally total;
  for (size_t c = 0; c < tally.size(); ++c) {
    base[c] = total;
    total.edges += tally[c].edges;
    total.skips += tally[c].skips;
  }
  if (total.edges == 0) return;  // every node is direct or empty
  ic_side_.resize(total.edges);
  ic_side_skip_inv_.resize(total.skips);

  // Pass 2, only over chunks that hold side nodes: copy each side node's
  // kept edges into its slice of the side list.
  ForEachNodeChunk(n, pool, [&](uint64_t chunk, NodeId lo, NodeId hi) {
    if (tally[chunk].edges == 0) return;
    uint64_t w = base[chunk].edges;
    uint64_t skip = base[chunk].skips;
    for (NodeId v = lo; v < hi; ++v) {
      IcNodeRecord& r = ic_nodes_[v];
      if ((r.indeg_kind & kIcSideBit) == 0) continue;
      const auto probs = g.InProbs(v);
      const auto nbrs = g.InNeighbors(v);
      r.offset = static_cast<uint32_t>(w);
      double first = -1.0;
      for (size_t i = 0; i < probs.size(); ++i) {
        if (probs[i] <= 0.0) continue;
        if (first < 0.0) first = probs[i];
        ic_side_[w++] = IcEdge{nbrs[i], QuantizeRejectThreshold(probs[i])};
      }
      if (ic_kind(v) == IcNodeKind::kSkip) {
        ic_side_skip_inv_[skip] = 1.0 / std::log1p(-first);
        r.param |= skip << 32;
        ++skip;
      }
    }
  });
}

void SamplingView::BuildLt(ThreadPool* pool) {
  const Graph& g = *graph_;
  OPIM_CHECK_MSG(g.MaxInWeightSum() <= 1.0 + 1e-9,
                 "LT requires per-node incoming weights to sum to <= 1");
  const uint32_t n = g.num_nodes();
  lt_meta_.assign(n + 1, LtNodeMeta{0, kAlwaysReject});
  for (uint32_t v = 0; v < n; ++v) {
    lt_meta_[v + 1].offset =
        lt_meta_[v].offset + static_cast<uint32_t>(g.InDegree(v));
  }
  lt_buckets_.assign(lt_meta_[n].offset, LtBucket{kAlwaysReject, 0, 0});

  // One Vose alias build per node, written straight into the shared arena
  // slice [offset(v), offset(v+1)) — with both bucket outcomes stored as
  // *resolved node ids*, so a walk step never needs the Graph adjacency.
  // Scratch lives per range: workers never contend and nodes never alias
  // each other's buckets.
  ForEachNodeChunk(n, pool, [&](uint64_t, NodeId lo, NodeId hi) {
    std::vector<double> scaled;
    std::vector<uint32_t> small, large;
    for (NodeId v = lo; v < hi; ++v) {
      const auto probs = g.InProbs(v);
      const auto nbrs = g.InNeighbors(v);
      const size_t d = probs.size();
      if (d == 0) continue;  // stop threshold stays kAlwaysReject
      const double stay = g.InWeightSum(v);
      if (stay <= 0.0) continue;  // zero mass: the walk always stops at v
      lt_meta_[v].stop_rej = QuantizeRejectThreshold(stay);

      scaled.assign(probs.begin(), probs.end());
      for (double& s : scaled) s *= static_cast<double>(d) / stay;
      small.clear();
      large.clear();
      for (size_t i = 0; i < d; ++i) {
        (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
      }
      const uint64_t off = lt_meta_[v].offset;
      while (!small.empty() && !large.empty()) {
        const uint32_t s = small.back();
        small.pop_back();
        const uint32_t l = large.back();
        large.pop_back();
        lt_buckets_[off + s] =
            LtBucket{QuantizeRejectThreshold(scaled[s]), nbrs[s], nbrs[l]};
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
      }
      // Remaining buckets are (numerically) exactly full: they keep their
      // own neighbor with certainty, which the kernel reads off rej == 0
      // without spending a draw.
      for (const uint32_t l : large) {
        lt_buckets_[off + l] = LtBucket{0, nbrs[l], nbrs[l]};
      }
      for (const uint32_t s : small) {
        lt_buckets_[off + s] = LtBucket{0, nbrs[s], nbrs[s]};
      }
    }
  });
}

}  // namespace opim
