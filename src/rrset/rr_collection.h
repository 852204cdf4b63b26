// Compressed pooled storage for random reverse-reachable (RR) sets with a
// hybrid inverted node -> RR-set index (paper §3.1).
//
// An RR set is a set of nodes; a collection R of them supports the two
// operations every RIS algorithm needs:
//   * coverage Λ(S): how many RR sets in R intersect a seed set S, and
//   * greedy max-coverage (via the inverted index; see select/).
//
// Storage. Members are kept sorted and group-varint delta-encoded
// (rrset/varint_codec.h) into one append-only byte pool. Each set owns a
// 4-byte slot: empty and singleton sets — the overwhelming majority on
// sparse IC/LT pools — are tagged inline in the slot itself (no pool
// bytes, no decode), larger sets store their byte offset relative to a
// per-4096-set chunk base. Per-set traversal costs are optional
// (RRStoreOptions::retain_set_costs); engine pools that never ask for
// SetCost drop the 8 bytes/set. MemoryUsage() is therefore the
// *compressed* footprint, and it is the quantity RunControl's memory
// budget and the peak_rr_bytes telemetry are checked against.
//
// Inverted index. Each node's posting list (the ascending ids of the RR
// sets containing it) is a chain of blocks in one append-only arena. A
// block is a link word (arena offset of the next block) followed by its
// ids; the k-th block of a chain holds kMinPostingBlock << k ids, capped
// at kMaxPostingBlock, so a hub's postings are a few long contiguous runs
// and a node seen once costs one small block. Per node the collection
// keeps the chain's first and last block and the posting count, which is
// also MemberCounts()[v]. New sets always carry ids above every stored
// one, so an ingest only appends to the chains of the nodes it touches —
// no relocation, no sort, no n-sized pass — and posting order is
// ascending by construction. Readers walk a node's chain as runs of ids
// (ForEachCoveringRun).
//
// Index-validity contract: sets [0, indexed_sets_) are in the index.
// AddCompressedShards appends the shards' postings before returning, so
// the engine paths (ParallelGenerate / StagedGeneration) leave the index
// current. AddSet and RestoreFromSnapshotParts only store the sets; the
// first index read afterwards (or EnsureIndex) decodes the pending sets
// and folds them through the same append.
//
// Reader contract. Decoding members (ForEachMember, SetSize, DecodeSet,
// ChunkRun) mutates nothing, so any number of threads may decode
// concurrently. Only two const reads write: the pending-set fold above
// (so the first index read after AddSet or a restore must not race other
// readers) and CoverageOf, which reuses a scratch bitset (so CoverageOf
// and EstimateSpread are single-threaded).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "rrset/cover_bitset.h"
#include "rrset/varint_codec.h"
#include "support/macros.h"

namespace opim {

class ThreadPool;

/// Slot encoding shared by RRCollection and the shard-side compressors:
/// a set's 4-byte slot either carries the inline tag (empty/singleton
/// sets; low 31 bits hold the member id, or kEmpty's payload) or a pool
/// byte offset / encoded length.
namespace rrslot {
inline constexpr uint32_t kInlineTag = 0x80000000u;
inline constexpr uint32_t kEmpty = 0xFFFFFFFFu;
}  // namespace rrslot

/// One producer shard of sampled RR sets, in append order: `pool` is the
/// concatenation of the sets' nodes and `sets` holds each set's (size,
/// traversal cost). This is exactly the per-worker buffer shape of
/// ParallelGenerate; ingestion sorts and compresses the members shard by
/// shard (in parallel when given a pool).
struct RRBatch {
  std::vector<NodeId> pool;
  std::vector<std::pair<uint32_t, uint64_t>> sets;  // (size, edges examined)
};

/// One shard-local posting: the shard's set number `local` contains
/// `node`.
struct ShardPosting {
  NodeId node;
  RRId local;
};

/// One producer shard already in wire format: the concatenation of the
/// sets' group-varint encodings (no tail slack), one record per set (an
/// inline slot value for empty/singleton sets — tag bit set — or the
/// set's encoded byte length, paired with its traversal cost), and the
/// shard-local postings keyed by touched node: one (node, local set
/// index) pair per member, sorted by node, then by local index. Built
/// inside generation workers by ShardEncoder, so ingestion appends byte
/// streams wholesale and walks each touched node's run of postings once
/// (global id = shard base + local index); nothing in a shard is sized
/// by the graph.
struct CompressedRRShard {
  std::vector<uint8_t> bytes;
  struct SetRec {
    uint32_t rec;    // inline slot (tag bit set) or encoded byte length
    uint64_t cost;   // edges examined sampling this set
  };
  std::vector<SetRec> sets;
  std::vector<ShardPosting> postings;  // sorted by (node, local) once final
  uint64_t total_members = 0;
  bool finalized = false;

  /// Heap footprint (capacity-based) — what RunControl staging-buffer
  /// metering charges for a speculatively sampled shard.
  uint64_t StagingBytes() const {
    return bytes.capacity() * sizeof(uint8_t) +
           sets.capacity() * sizeof(SetRec) +
           postings.capacity() * sizeof(ShardPosting);
  }
};

/// Streaming per-shard compressor: generation workers feed it one sampled
/// set at a time (sorted + encoded immediately, while the members are
/// cache-hot) and Finish() builds the shard-local postings on the same
/// worker, yielding a CompressedRRShard ready for
/// RRCollection::AddCompressedShards. The raw member pool of the RRBatch
/// path is never materialized.
///
/// Exception safety: Add() appends the encoding before the set record, so
/// an allocation failure mid-append can orphan trailing bytes but never a
/// record whose bytes are missing; Finalize and ingestion walk the
/// records and ignore orphan bytes, keeping a partially filled encoder
/// ingestable (the worker-failure degradation path relies on this).
class ShardEncoder {
 public:
  ShardEncoder() = default;

  /// Sorts `*members` in place (distinct nodes by sampler contract) and
  /// appends its encoding. `cost` is the traversal cost (γ accounting).
  void Add(std::vector<NodeId>* members, uint64_t cost);

  /// Same for members already strictly ascending (validated in debug
  /// builds) — the AddBatch path sorts spans of its pool in place first.
  void AddSorted(std::span<const NodeId> members, uint64_t cost);

  /// Sets encoded so far (readable mid-stream, e.g. for poll metering).
  uint64_t num_sets() const { return shard_.sets.size(); }

  /// Current heap footprint of the staged shard.
  uint64_t StagingBytes() const { return shard_.StagingBytes(); }

  /// Builds the shard-local postings (the decoded (node, local id) pairs
  /// sorted by node: a radix sort, or a counting sort when the shard has
  /// at least `num_nodes` members; O(members) memory either way) and
  /// returns the finished shard. The encoder is left empty and
  /// reusable. `num_nodes` is the graph's node-id bound (debug-checked).
  CompressedRRShard Finish(uint32_t num_nodes);

  /// Finalizes `shard` in place (used when a worker threw before its own
  /// Finish ran: records stay consistent, so postings can be rebuilt by
  /// any thread afterwards). No-op when already finalized.
  static void Finalize(CompressedRRShard* shard, uint32_t num_nodes);

 private:
  CompressedRRShard shard_;
};

/// Storage knobs fixed at construction.
struct RRStoreOptions {
  /// Keep the per-set traversal cost (8 bytes/set) so SetCost() answers.
  /// Engine pools that only need aggregate γ turn this off.
  bool retain_set_costs = true;
};

/// Append-only collection of RR sets over a graph with n nodes.
class RRCollection {
 public:
  /// Creates an empty collection for node ids in [0, num_nodes).
  /// `num_nodes` must be < 2^31 (one slot bit tags inline sets).
  explicit RRCollection(uint32_t num_nodes, RRStoreOptions options = {});

  RRCollection(RRCollection&&) noexcept = default;
  RRCollection& operator=(RRCollection&&) noexcept = default;
  OPIM_DISALLOW_COPY(RRCollection);

  /// Appends one RR set (list of distinct nodes, any order; stored
  /// sorted). `edges_examined` is the traversal cost the sampler paid
  /// (the paper's γ accounting, §3.2). Returns the new set's id. Indexing
  /// the set is deferred to the next index read (see the contract above);
  /// bulk producers should use AddBatch.
  RRId AddSet(std::span<const NodeId> nodes, uint64_t edges_examined);

  /// Appends every set of every shard, in shard order, sorting and
  /// compressing each shard's members (parallelized over shards when
  /// `pool` is provided), then indexes them. The index is valid on
  /// return. Per-node range validation is debug-only on this path
  /// (OPIM_DCHECK). Implemented as encode-to-CompressedRRShard +
  /// AddCompressedShards, so the result is byte-identical to the
  /// streaming producer path.
  void AddBatch(std::vector<RRBatch> shards, ThreadPool* pool = nullptr);

  /// Appends pre-compressed shards (ShardEncoder output), in shard order:
  /// byte streams are appended wholesale, and each shard's postings are
  /// appended to the chains of the nodes they touch — O(new members),
  /// existing sets and untouched nodes are never visited. Non-finalized
  /// shards (worker threw before Finish) are finalized here first; sets
  /// still pending from AddSet are folded in before the new ones. The
  /// index is valid on return.
  void AddCompressedShards(std::vector<CompressedRRShard> shards);

  /// Number of RR sets θ.
  uint32_t num_sets() const { return num_sets_; }

  /// Number of nodes n of the underlying graph.
  uint32_t num_nodes() const { return num_nodes_; }

  /// Member count of RR set `id`.
  uint32_t SetSize(RRId id) const {
    OPIM_DCHECK_LT(id, num_sets_);
    const uint32_t slot = slot_[id];
    if (slot & kSlotInlineTag) return slot == kEmptySlot ? 0 : 1;
    return DecodedRRMemberCount(SetBytes(id, slot));
  }

  /// Calls `fn(NodeId)` for each member of RR set `id`, ascending.
  template <typename Fn>
  void ForEachMember(RRId id, Fn&& fn) const {
    OPIM_DCHECK_LT(id, num_sets_);
    const uint32_t slot = slot_[id];
    if (slot & kSlotInlineTag) {
      if (slot != kEmptySlot) fn(static_cast<NodeId>(slot & ~kSlotInlineTag));
      return;
    }
    DecodeRRMembersForEach(SetBytes(id, slot), fn);
  }

  /// Members of RR set `id`, decoded into a fresh vector (ascending).
  std::vector<NodeId> DecodeSet(RRId id) const;

  /// Number of RR sets containing `v` — Λ({v}). Folds pending sets into
  /// the index first (see the contract above).
  uint32_t CoveringCount(NodeId v) const {
    OPIM_DCHECK_LT(v, num_nodes_);
    EnsureIndex();
    return static_cast<uint32_t>(post_count_[v]);
  }

  /// Calls `fn(std::span<const RRId>)` for each run of `v`'s postings —
  /// one per chain block — in ascending id order. The runs concatenate to
  /// the ascending ids of the RR sets containing `v` (no call when none
  /// does).
  template <typename Fn>
  void ForEachCoveringRun(NodeId v, Fn&& fn) const {
    OPIM_DCHECK_LT(v, num_nodes_);
    EnsureIndex();
    uint64_t left = post_count_[v];
    uint32_t block = post_chain_[v].first;
    for (uint32_t cap = kMinPostingBlock; left > 0;) {
      const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(cap, left));
      const RRId* ids = post_arena_.data() + block + 1;
      fn(std::span<const RRId>(ids, len));
      left -= len;
      block = post_arena_[block];
      cap = std::min(cap * 2, kMaxPostingBlock);
    }
  }

  /// Calls `fn(RRId)` for each RR set containing `v`, ascending.
  template <typename Fn>
  void ForEachCovering(NodeId v, Fn&& fn) const {
    ForEachCoveringRun(v, [&](std::span<const RRId> run) {
      for (RRId id : run) fn(id);
    });
  }

  /// Ids of the RR sets containing `v`, decoded into a fresh vector.
  std::vector<RRId> DecodeCovering(NodeId v) const;

  /// Per-node membership counts: MemberCounts()[v] == CoveringCount(v)
  /// for every node — the posting lengths the index keeps per node, so
  /// they cost nothing beyond the index itself. This is what makes
  /// warm-started selection's initial-gain pass an O(n) copy instead of
  /// an O(Σ|R|) recount. Folds pending sets first; the span is
  /// invalidated by any mutation.
  std::span<const uint64_t> MemberCounts() const {
    EnsureIndex();
    return post_count_;
  }

  /// Nodes with MemberCounts()[v] > 0, each exactly once, maintained for
  /// free by the index append (a node is appended when its chain is
  /// created; counts never decrease).
  /// Warm-started selection iterates this instead of all n nodes when
  /// building its CELF heap and gain histogram — at small θ the touched
  /// nodes are a small fraction of n, and the selection output cannot
  /// depend on the iteration order (the CELF comparator is a strict
  /// total order over (gain, node)), so the order here is first-touch,
  /// not sorted. Folds pending sets first; the span is invalidated by
  /// any mutation.
  std::span<const NodeId> MemberNonzero() const {
    EnsureIndex();
    return member_nonzero_;
  }

  /// Total nodes across all sets, Σ_R |R|. The query-time complexity of the
  /// OPIM bounds is linear in this (paper Table 1).
  uint64_t total_size() const { return total_members_; }

  /// Cumulative traversal cost γ across all sampled sets.
  uint64_t total_edges_examined() const { return total_edges_examined_; }

  /// Heap footprint of this collection in bytes (capacity-based, so it
  /// reflects what the allocator actually holds): the compressed member
  /// pool, slots + chunk records, optional per-set costs, the inverted
  /// index (arena, per-node chains and counts), and the coverage scratch
  /// bitset. This is the quantity RunControl's memory budget is checked
  /// against.
  uint64_t MemoryUsage() const {
    uint64_t pool = 0;
    for (const PoolChunk& c : chunks_) {
      pool += c.bytes.capacity() * sizeof(uint8_t);
    }
    return pool + chunks_.capacity() * sizeof(PoolChunk) +
           slot_.capacity() * sizeof(uint32_t) +
           set_cost_.capacity() * sizeof(uint64_t) +
           post_arena_.capacity() * sizeof(RRId) +
           post_chain_.capacity() * sizeof(PostingChain) +
           post_count_.capacity() * sizeof(uint64_t) +
           member_nonzero_.capacity() * sizeof(NodeId) +
           cover_scratch_.MemoryUsage();
  }

  /// Bytes of the compressed member pool (inline-tagged sets cost zero).
  uint64_t CompressedMemberBytes() const { return pool_bytes_; }

  /// What the member lists would occupy raw, Σ_R |R| * sizeof(NodeId) —
  /// the PR-4-era storage; CompressedMemberBytes()/RawMemberBytes() is
  /// the pool compression ratio reported in telemetry.
  uint64_t RawMemberBytes() const { return total_members_ * sizeof(NodeId); }

  /// Whether SetCost() is answerable (RRStoreOptions::retain_set_costs).
  bool retains_set_costs() const { return retain_costs_; }

  /// Traversal cost ("width" in TIM's terminology: total in-degree of the
  /// set's members) of one RR set. Requires retain_set_costs.
  uint64_t SetCost(RRId id) const {
    OPIM_DCHECK_LT(id, num_sets_);
    OPIM_CHECK_MSG(retain_costs_,
                   "SetCost requires RRStoreOptions::retain_set_costs");
    return set_cost_[id];
  }

  /// Coverage Λ(S): number of RR sets intersecting S, counted by marking
  /// a scratch bitset with each seed's postings. O(θ/64 + Σ_{v∈S} work).
  /// Duplicate nodes in `seeds` are handled (each RR set counted once).
  uint64_t CoverageOf(std::span<const NodeId> seeds) const;

  /// |V|/θ · Λ(S): the unbiased RIS estimate of σ(S) (Lemma 3.1). Returns 0
  /// for an empty collection.
  double EstimateSpread(std::span<const NodeId> seeds) const;

  // --- Snapshot support (rrset/snapshot.h) ------------------------------
  //
  // The snapshot container serializes exactly the canonical storage —
  // per-chunk byte runs, slot words, optional cost column, and the
  // member/γ totals. The inverted index is NOT serialized: it is a
  // deterministic function of the pool, so a restored collection starts
  // with every set pending and the first read — or an explicit
  // EnsureIndex — folds them in.

  /// Number of pool chunks (ceil(num_sets / 4096); 0 when empty).
  uint32_t num_pool_chunks() const {
    return static_cast<uint32_t>(chunks_.size());
  }

  /// Encoded byte run of chunk `chunk` (no decode slack). Empty when
  /// every set in the chunk is stored inline.
  std::span<const uint8_t> ChunkRun(uint32_t chunk) const;

  /// Per-set slot words (inline tag or chunk-relative byte offset).
  std::span<const uint32_t> slots() const { return slot_; }

  /// Per-set cost column; empty unless retains_set_costs().
  std::span<const uint64_t> set_costs() const { return set_cost_; }

  /// Folds the sets that AddSet or a snapshot restore left pending into
  /// the inverted index now; no-op when the index is current.
  void EnsureIndex() const {
    if (indexed_sets_ != num_sets_) FoldPendingSets();
  }

  /// Reassembles a collection from snapshot parts. `chunk_runs` are the
  /// slack-free per-chunk byte runs (ChunkRun output); `slots`, `costs`,
  /// and the totals mirror the accessors above. The caller (the snapshot
  /// loader) has already validated structure — offsets, encodings, and
  /// member totals — so violations here are programmer errors
  /// (OPIM_CHECK). The restored collection is byte-identical to the
  /// saved one: further appends and index reads behave as if
  /// the sets had been added directly.
  static RRCollection RestoreFromSnapshotParts(
      uint32_t num_nodes, RRStoreOptions options,
      std::vector<std::vector<uint8_t>> chunk_runs,
      std::vector<uint32_t> slots, std::vector<uint64_t> costs,
      uint64_t total_members, uint64_t total_edges_examined);

 private:
  /// Slot tag for sets stored inline (empty or singleton); see rrslot.
  static constexpr uint32_t kSlotInlineTag = rrslot::kInlineTag;
  static constexpr uint32_t kEmptySlot = rrslot::kEmpty;
  /// Sets per pool chunk; a slot offset is relative to its chunk's byte
  /// run so 31 bits suffice no matter how large the pool grows.
  static constexpr uint32_t kChunkShift = 12;

  /// One pool chunk: the group-varint byte run of its non-inline sets,
  /// followed by kVarintDecodeSlackBytes zero bytes.
  struct PoolChunk {
    std::vector<uint8_t> bytes;
    uint64_t encoded_bytes = 0;  // run length sans decode slack
  };

  const uint8_t* SetBytes(RRId id, uint32_t slot) const {
    return chunks_[id >> kChunkShift].bytes.data() + slot;
  }

  /// Sorts (and de-dups) `*nodes` in place, then appends the slot /
  /// encoded bytes for one set. Shared by AddSet and batch assembly.
  void AppendEncodedSet(std::vector<NodeId>* nodes);

  /// Ids in the first block of a posting chain; each later block doubles
  /// up to kMaxPostingBlock.
  static constexpr uint32_t kMinPostingBlock = 4;
  static constexpr uint32_t kMaxPostingBlock = 4096;

  /// A node's posting chain: arena offsets of its first and last block
  /// (meaningful only while its count is nonzero).
  struct PostingChain {
    uint32_t first = 0;
    uint32_t last = 0;
  };

  /// Appends shard-local postings (sorted by node, then local index) to
  /// the chains as global ids `base + local`. Every id must exceed the
  /// ids already indexed.
  void AppendPostings(std::span<const ShardPosting> postings,
                      RRId base) const;

  /// Decodes sets [indexed_sets_, num_sets_) and appends their postings.
  void FoldPendingSets() const;

  /// Appends `len` bytes from `src` to the open (last) chunk's run,
  /// maintaining the per-chunk decode slack and `pool_bytes_`.
  void AppendRunToOpenChunk(const uint8_t* src, uint64_t len);

  uint32_t num_nodes_ = 0;
  uint32_t num_sets_ = 0;
  bool retain_costs_ = true;
  std::vector<PoolChunk> chunks_;    // chunked compressed pool
  uint64_t pool_bytes_ = 0;          // Σ encoded_bytes
  std::vector<uint32_t> slot_;       // per set: inline tag or chunk offset
  std::vector<uint64_t> set_cost_;   // per-set cost iff retain_costs_
  std::vector<NodeId> addset_scratch_;  // AddSet sort buffer (reused)
  uint64_t total_members_ = 0;
  uint64_t total_edges_examined_ = 0;
  // Append-only inverted index (see file comment). Mutable: the first
  // read after AddSet or a restore folds the pending sets in.
  mutable std::vector<RRId> post_arena_;  // blocks: [next offset][ids...]
  mutable std::vector<PostingChain> post_chain_;  // per node
  mutable std::vector<uint64_t> post_count_;      // per node: postings
  // Nodes whose count left zero, in first-touch order (see MemberNonzero).
  mutable std::vector<NodeId> member_nonzero_;
  mutable uint32_t indexed_sets_ = 0;  // sets [0, indexed_sets_) indexed
  // Scratch for CoverageOf (covered-set bitset, reset per call).
  mutable CoverBitset cover_scratch_;
};

}  // namespace opim
