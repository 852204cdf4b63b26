#include "rrset/rr_collection.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

namespace opim {

namespace {

/// Sorts `*postings` by node, keeping each node's postings in their
/// current (ascending local-id) order: an LSD radix sort over 11-bit node
/// digits, as many passes as the largest node id needs. O(members) with
/// one same-sized scratch buffer — no array sized by the graph.
void SortPostingsByNode(std::vector<ShardPosting>* postings) {
  constexpr uint32_t kDigitBits = 11;
  constexpr uint32_t kBuckets = 1u << kDigitBits;
  NodeId max_node = 0;
  for (const ShardPosting& p : *postings) max_node = std::max(max_node, p.node);
  std::vector<ShardPosting> scratch(postings->size());
  std::vector<uint32_t> start(kBuckets);
  for (uint32_t shift = 0; shift < 32 && (max_node >> shift) != 0;
       shift += kDigitBits) {
    std::fill(start.begin(), start.end(), 0);
    for (const ShardPosting& p : *postings) {
      ++start[(p.node >> shift) & (kBuckets - 1)];
    }
    uint32_t acc = 0;
    for (uint32_t& c : start) acc += std::exchange(c, acc);
    for (const ShardPosting& p : *postings) {
      scratch[start[(p.node >> shift) & (kBuckets - 1)]++] = p;
    }
    postings->swap(scratch);
  }
}

}  // namespace

void ShardEncoder::Add(std::vector<NodeId>* members, uint64_t cost) {
  std::sort(members->begin(), members->end());
  AddSorted(*members, cost);
}

void ShardEncoder::AddSorted(std::span<const NodeId> members, uint64_t cost) {
#if OPIM_DEBUG_CHECKS
  for (size_t i = 1; i < members.size(); ++i) {
    OPIM_DCHECK_LT(members[i - 1], members[i]);  // distinct by contract
  }
#endif
  uint32_t rec;
  if (members.empty()) {
    rec = rrslot::kEmpty;
  } else if (members.size() == 1) {
    rec = rrslot::kInlineTag | members[0];
  } else {
    // Bytes precede the record: a failed record push can only orphan
    // trailing bytes, which Finalize strips (see header).
    const size_t len = EncodeRRMembers(members, &shard_.bytes);
    OPIM_CHECK_LT(len, rrslot::kInlineTag);
    rec = static_cast<uint32_t>(len);
  }
  shard_.sets.push_back({rec, cost});
}

CompressedRRShard ShardEncoder::Finish(uint32_t num_nodes) {
  Finalize(&shard_, num_nodes);
  CompressedRRShard out = std::move(shard_);
  shard_ = {};
  return out;
}

void ShardEncoder::Finalize(CompressedRRShard* shard, uint32_t num_nodes) {
  if (shard->finalized) return;
  // Drop orphan trailing bytes (a worker that threw mid-Add may have
  // appended an encoding without its record), then add temporary decode
  // slack: the passes below read via the fast decoder.
  uint64_t used = 0;
  for (const CompressedRRShard::SetRec& s : shard->sets) {
    if (!(s.rec & rrslot::kInlineTag)) used += s.rec;
  }
  shard->bytes.resize(used);
  shard->bytes.resize(used + kVarintDecodeSlackBytes, 0);

  const uint32_t sets = static_cast<uint32_t>(shard->sets.size());
  auto for_each_member = [&](auto&& fn) {
    const uint8_t* p = shard->bytes.data();
    for (uint32_t local = 0; local < sets; ++local) {
      const uint32_t rec = shard->sets[local].rec;
      if (rec & rrslot::kInlineTag) {
        if (rec != rrslot::kEmpty) {
          fn(static_cast<RRId>(local),
             static_cast<NodeId>(rec & ~rrslot::kInlineTag));
        }
      } else {
        DecodeRRMembersForEach(
            p, [&](NodeId v) { fn(static_cast<RRId>(local), v); });
        p += rec;
      }
    }
  };
  // Member count from each encoding's header, so the postings are
  // allocated once.
  uint64_t members = 0;
  const uint8_t* p = shard->bytes.data();
  for (const CompressedRRShard::SetRec& s : shard->sets) {
    if (s.rec & rrslot::kInlineTag) {
      members += s.rec != rrslot::kEmpty;
    } else {
      members += DecodedRRMemberCount(p);
      p += s.rec;
    }
  }
  shard->postings.clear();
  if (num_nodes <= members) {
    // A shard with at least n members sorts by node with one counting
    // pass: its n-entry histogram is no larger than the postings.
    std::vector<uint32_t> start(size_t{num_nodes} + 1, 0);
    for_each_member([&](RRId, NodeId v) {
      OPIM_DCHECK_LT(v, num_nodes);
      ++start[v + 1];
    });
    for (uint32_t v = 0; v < num_nodes; ++v) start[v + 1] += start[v];
    shard->postings.resize(members);
    for_each_member([&](RRId local, NodeId v) {
      shard->postings[start[v]++] = {v, local};
    });
  } else {
    // One (node, local) pair per member in ascending local order, then
    // a stable sort by node.
    shard->postings.reserve(members);
    for_each_member([&](RRId local, NodeId v) {
      OPIM_DCHECK_LT(v, num_nodes);
      shard->postings.push_back({v, local});
    });
    SortPostingsByNode(&shard->postings);
  }
  shard->total_members = members;
  shard->bytes.resize(used);  // strip the temporary slack again
  shard->finalized = true;
}

RRCollection::RRCollection(uint32_t num_nodes, RRStoreOptions options)
    : num_nodes_(num_nodes),
      retain_costs_(options.retain_set_costs),
      post_chain_(num_nodes),
      post_count_(num_nodes, 0) {
  // One slot bit tags inline sets, so ids must fit in 31 bits.
  OPIM_CHECK_LT(num_nodes, kSlotInlineTag);
}

void RRCollection::AppendRunToOpenChunk(const uint8_t* src, uint64_t len) {
  PoolChunk& c = chunks_.back();
  c.bytes.resize(c.encoded_bytes);  // strip the decode slack
  c.bytes.insert(c.bytes.end(), src, src + len);
  c.encoded_bytes += len;
  c.bytes.resize(c.encoded_bytes + kVarintDecodeSlackBytes, 0);
  pool_bytes_ += len;
}

void RRCollection::AppendEncodedSet(std::vector<NodeId>* nodes) {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
  const RRId id = num_sets_;
  if ((id & ((1u << kChunkShift) - 1)) == 0) chunks_.emplace_back();
  PoolChunk& c = chunks_.back();
  if (nodes->empty()) {
    slot_.push_back(kEmptySlot);
  } else if (nodes->size() == 1) {
    slot_.push_back(kSlotInlineTag | (*nodes)[0]);
  } else {
    OPIM_CHECK_LT(c.encoded_bytes, kSlotInlineTag);
    slot_.push_back(static_cast<uint32_t>(c.encoded_bytes));
    c.bytes.resize(c.encoded_bytes);  // strip the decode slack
    const uint64_t len = EncodeRRMembers(*nodes, &c.bytes);
    c.encoded_bytes += len;
    c.bytes.resize(c.encoded_bytes + kVarintDecodeSlackBytes, 0);
    pool_bytes_ += len;
  }
  ++num_sets_;
  total_members_ += nodes->size();
}

RRId RRCollection::AddSet(std::span<const NodeId> nodes,
                          uint64_t edges_examined) {
  const RRId id = num_sets_;
  for (NodeId v : nodes) {
    OPIM_CHECK_LT(v, num_nodes_);
  }
  addset_scratch_.assign(nodes.begin(), nodes.end());
  AppendEncodedSet(&addset_scratch_);
  if (retain_costs_) set_cost_.push_back(edges_examined);
  total_edges_examined_ += edges_examined;
  return id;
}

void RRCollection::AddBatch(std::vector<RRBatch> shards, ThreadPool* pool) {
  uint64_t add_sets = 0;
  for (const RRBatch& shard : shards) {
    add_sets += shard.sets.size();
#if OPIM_DEBUG_CHECKS
    for (NodeId v : shard.pool) OPIM_DCHECK_LT(v, num_nodes_);
    uint64_t shard_nodes = 0;
    for (const auto& [size, cost] : shard.sets) shard_nodes += size;
    OPIM_DCHECK_EQ(shard_nodes, shard.pool.size());
#endif
  }
  if (add_sets == 0) return;

  // Per-shard sort + compress + local postings, in parallel; ingestion
  // proper is the shard-order merge in AddCompressedShards.
  std::vector<CompressedRRShard> enc(shards.size());
  auto encode_shard = [&](uint64_t s) {
    OPIM_TM_SCOPED_TIMER("opim.rrset.shard_encode_us");
    RRBatch& shard = shards[s];
    ShardEncoder encoder;
    NodeId* cursor = shard.pool.data();
    for (const auto& [size, cost] : shard.sets) {
      std::span<NodeId> members(cursor, size);
      cursor += size;
      std::sort(members.begin(), members.end());
      encoder.AddSorted(members, cost);
    }
    enc[s] = encoder.Finish(num_nodes_);
  };
  if (pool != nullptr && pool->num_threads() > 1 && shards.size() > 1) {
    pool->ParallelFor(shards.size(), encode_shard);
  } else {
    for (uint64_t s = 0; s < shards.size(); ++s) encode_shard(s);
  }
  AddCompressedShards(std::move(enc));
}

void RRCollection::AddCompressedShards(std::vector<CompressedRRShard> shards) {
  OPIM_TR_SPAN1("ingest", "rrset", "shards", shards.size());
  OPIM_TM_SCOPED_TIMER("opim.rrset.ingest_us");
  uint64_t add_sets = 0;
  for (CompressedRRShard& shard : shards) {
    ShardEncoder::Finalize(&shard, num_nodes_);  // no-op on Finish output
    add_sets += shard.sets.size();
  }
  if (add_sets == 0) return;
  // Ids are appended to the chains in ascending order, so sets still
  // pending from AddSet go in before the new ones.
  EnsureIndex();

  // Serial assembly: each shard's byte stream is appended in contiguous
  // runs split only at chunk boundaries (sets are consecutive within a
  // shard), slots/costs follow the record walk in shard-major,
  // sample-minor append order.
  std::vector<RRId> shard_bases;
  shard_bases.reserve(shards.size());
  slot_.reserve(slot_.size() + add_sets);
  if (retain_costs_) set_cost_.reserve(set_cost_.size() + add_sets);
  for (const CompressedRRShard& shard : shards) {
    shard_bases.push_back(num_sets_);
    const uint8_t* src = shard.bytes.data();
    uint64_t src_pos = 0;  // bytes of this shard already flushed
    uint64_t run_len = 0;  // bytes pending for the open chunk
    for (const auto& [rec, cost] : shard.sets) {
      const RRId id = num_sets_;
      if ((id & ((1u << kChunkShift) - 1)) == 0) {
        if (run_len > 0) {
          AppendRunToOpenChunk(src + src_pos, run_len);
          src_pos += run_len;
          run_len = 0;
        }
        chunks_.emplace_back();
      }
      if (rec & kSlotInlineTag) {
        slot_.push_back(rec);
      } else {
        const uint64_t rel = chunks_.back().encoded_bytes + run_len;
        OPIM_CHECK_LT(rel, kSlotInlineTag);
        slot_.push_back(static_cast<uint32_t>(rel));
        run_len += rec;
      }
      ++num_sets_;
      if (retain_costs_) set_cost_.push_back(cost);
      total_edges_examined_ += cost;
    }
    if (run_len > 0) {
      AppendRunToOpenChunk(src + src_pos, run_len);
      src_pos += run_len;
    }
    OPIM_CHECK_EQ(src_pos, shard.bytes.size());
    total_members_ += shard.total_members;
  }
  OPIM_TM_GAUGE_SET("opim.rrset.compressed_bytes", pool_bytes_);

  OPIM_TR_SPAN1("index_append", "rrset", "sets", add_sets);
  OPIM_TM_SCOPED_TIMER("opim.rrset.index_append_us");
  for (size_t s = 0; s < shards.size(); ++s) {
    AppendPostings(shards[s].postings, shard_bases[s]);
  }
  indexed_sets_ = num_sets_;
}

void RRCollection::AppendPostings(std::span<const ShardPosting> postings,
                                  RRId base) const {
  // Arena offsets are 32-bit; 2^32 words is a 16 GiB index, far past any
  // budgeted run.
  auto new_block = [this](uint32_t cap) {
    const uint64_t block = post_arena_.size();
    OPIM_CHECK_LE(block + 1 + cap, 0xFFFFFFFFull);
    post_arena_.resize(block + 1 + cap);
    return static_cast<uint32_t>(block);
  };
  uint64_t runs = 0;
  for (size_t i = 0; i < postings.size();) {
    const NodeId v = postings[i].node;
    OPIM_DCHECK_LT(v, num_nodes_);
    size_t end = i + 1;
    while (end < postings.size() && postings[end].node == v) ++end;
    ++runs;

    // Locate the tail block and its fill from the count alone: blocks
    // hold kMinPostingBlock, 2·kMinPostingBlock, … ids, then
    // kMaxPostingBlock each.
    PostingChain& chain = post_chain_[v];
    uint64_t& count = post_count_[v];
    uint32_t cap = kMinPostingBlock;
    uint64_t fill = 0;
    if (count == 0) {
      member_nonzero_.push_back(v);
      chain.first = chain.last = new_block(cap);
    } else {
      uint64_t before = 0;
      while (cap < kMaxPostingBlock && before + cap < count) {
        before += cap;
        cap *= 2;
      }
      fill = (count - before - 1) % cap + 1;
    }
    count += end - i;
    for (; i < end; ++i) {
      if (fill == cap) {
        cap = std::min(cap * 2, kMaxPostingBlock);
        const uint32_t block = new_block(cap);
        post_arena_[chain.last] = block;
        chain.last = block;
        fill = 0;
      }
      post_arena_[chain.last + 1 + fill++] = base + postings[i].local;
    }
  }
  OPIM_TM_COUNTER_ADD("opim.rrset.index_nodes_touched", runs);
}

void RRCollection::FoldPendingSets() const {
  OPIM_TR_SPAN1("index_append", "rrset", "sets", num_sets_ - indexed_sets_);
  OPIM_TM_SCOPED_TIMER("opim.rrset.index_append_us");
  // Fold in windows so the transient pairs stay small even when a
  // restore left the whole pool pending.
  constexpr uint32_t kWindowSets = 1u << 16;
  std::vector<ShardPosting> postings;
  while (indexed_sets_ < num_sets_) {
    const RRId base = indexed_sets_;
    const RRId end = base + std::min(num_sets_ - base, kWindowSets);
    postings.clear();
    for (RRId id = base; id < end; ++id) {
      ForEachMember(id, [&](NodeId v) { postings.push_back({v, id - base}); });
    }
    SortPostingsByNode(&postings);
    AppendPostings(postings, base);
    indexed_sets_ = end;
  }
}

std::vector<NodeId> RRCollection::DecodeSet(RRId id) const {
  std::vector<NodeId> out;
  out.reserve(SetSize(id));
  ForEachMember(id, [&](NodeId v) { out.push_back(v); });
  return out;
}

std::vector<RRId> RRCollection::DecodeCovering(NodeId v) const {
  std::vector<RRId> out;
  ForEachCovering(v, [&](RRId id) { out.push_back(id); });
  return out;
}

uint64_t RRCollection::CoverageOf(std::span<const NodeId> seeds) const {
  EnsureIndex();
  // Mark every posting, then count the bitset once: a plain OR per id
  // has no data-dependent branch, which matters for the hub seeds whose
  // postings are a large fraction of the pool.
  cover_scratch_.Reset(num_sets_);
  for (NodeId v : seeds) {
    ForEachCovering(v, [&](RRId id) { cover_scratch_.Set(id); });
  }
  return cover_scratch_.Count();
}

double RRCollection::EstimateSpread(std::span<const NodeId> seeds) const {
  if (num_sets() == 0) return 0.0;
  return static_cast<double>(CoverageOf(seeds)) * num_nodes() / num_sets();
}

std::span<const uint8_t> RRCollection::ChunkRun(uint32_t chunk) const {
  OPIM_CHECK_LT(chunk, chunks_.size());
  const PoolChunk& c = chunks_[chunk];
  if (c.encoded_bytes == 0) return {};
  return {c.bytes.data(), c.encoded_bytes};
}

RRCollection RRCollection::RestoreFromSnapshotParts(
    uint32_t num_nodes, RRStoreOptions options,
    std::vector<std::vector<uint8_t>> chunk_runs, std::vector<uint32_t> slots,
    std::vector<uint64_t> costs, uint64_t total_members,
    uint64_t total_edges_examined) {
  RRCollection rr(num_nodes, options);
  const size_t sets = slots.size();
  const size_t expected_chunks =
      sets == 0 ? 0 : (sets + ((1u << kChunkShift) - 1)) >> kChunkShift;
  OPIM_CHECK_EQ(chunk_runs.size(), expected_chunks);
  OPIM_CHECK(options.retain_set_costs ? costs.size() == sets : costs.empty());

  rr.chunks_.reserve(chunk_runs.size());
  for (std::vector<uint8_t>& run : chunk_runs) {
    PoolChunk c;
    c.encoded_bytes = run.size();
    rr.pool_bytes_ += run.size();
    if (!run.empty()) {
      run.resize(run.size() + kVarintDecodeSlackBytes, 0);
      c.bytes = std::move(run);
    }
    rr.chunks_.push_back(std::move(c));
  }
  rr.num_sets_ = static_cast<uint32_t>(sets);
  rr.slot_ = std::move(slots);
  rr.set_cost_ = std::move(costs);
  rr.total_members_ = total_members;
  rr.total_edges_examined_ = total_edges_examined;
  // The index is a deterministic function of the pool: every set starts
  // pending and the first read (or EnsureIndex) folds them in, instead of
  // shipping the index through the snapshot.
  return rr;
}

}  // namespace opim
