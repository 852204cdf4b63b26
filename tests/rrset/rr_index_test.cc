// The append-only inverted index of RRCollection, checked against an
// oracle that decodes every stored set.
//
// RRIndexDifferentialTest drives random interleavings of the four ways
// sets reach a collection — AddSet, AddCompressedShards (1–8 shards,
// empty ones, and a non-finalized shard with orphan bytes, as a worker
// that threw leaves it), and RestoreFromSnapshotParts — and after each
// step demands that every node's postings, CoveringCount, MemberCounts
// and MemberNonzero equal what the decoded sets imply. It runs with
// shards of up to 200 and up to 1500 sets; the large shards cross
// 4096-set pool chunk boundaries, so restores rebuild multi-chunk pools.
//
// RRIndexChainTest walks one long chain through every block size, and
// RRIndexDeltaTest pins the cost model: ingesting a few sets into a
// collection over n = 2^20 nodes stages nothing sized by n and touches
// only the chains of the sets' members.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "rrset/rr_collection.h"
#include "support/random.h"

namespace opim {
namespace {

/// A random set of distinct nodes in [0, n): mostly small, sometimes
/// empty or a singleton (inline slots), occasionally large.
std::vector<NodeId> RandomSet(Rng& rng, uint32_t n) {
  const uint32_t roll = rng.UniformBelow(20);
  const uint32_t size = roll == 0   ? 0
                        : roll < 4  ? 1
                        : roll == 19 ? 20 + rng.UniformBelow(40)
                                     : 2 + rng.UniformBelow(6);
  std::vector<NodeId> s;
  for (uint32_t i = 0; i < size; ++i) s.push_back(rng.UniformBelow(n));
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

/// Every index read of `rr` must match the postings implied by decoding
/// each stored set; the decoded sets must match `truth`.
void ExpectIndexMatchesDecodedSets(
    const RRCollection& rr, const std::vector<std::vector<NodeId>>& truth) {
  ASSERT_EQ(rr.num_sets(), truth.size());
  const uint32_t n = rr.num_nodes();
  std::vector<std::vector<RRId>> oracle(n);
  uint64_t members = 0;
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    const std::vector<NodeId> set = rr.DecodeSet(id);
    ASSERT_EQ(set, truth[id]) << "set " << id;
    for (NodeId v : set) oracle[v].push_back(id);
    members += set.size();
  }
  ASSERT_EQ(rr.total_size(), members);

  const std::span<const uint64_t> counts = rr.MemberCounts();
  ASSERT_EQ(counts.size(), n);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(rr.DecodeCovering(v), oracle[v]) << "node " << v;
    ASSERT_EQ(rr.CoveringCount(v), oracle[v].size()) << "node " << v;
    ASSERT_EQ(counts[v], oracle[v].size()) << "node " << v;
  }
  const std::span<const NodeId> nonzero = rr.MemberNonzero();
  std::set<NodeId> seen;
  for (NodeId v : nonzero) {
    ASSERT_LT(v, n);
    ASSERT_TRUE(seen.insert(v).second) << "duplicate node " << v;
    ASSERT_FALSE(oracle[v].empty()) << "node " << v << " has no postings";
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!oracle[v].empty()) {
      ASSERT_EQ(seen.count(v), 1u) << "node " << v << " missing";
    }
  }
}

/// Encodes `sets` into one finalized shard, as a generation worker does.
CompressedRRShard EncodeShard(const std::vector<std::vector<NodeId>>& sets,
                              uint32_t n) {
  ShardEncoder encoder;
  for (const std::vector<NodeId>& s : sets) {
    std::vector<NodeId> members = s;
    std::reverse(members.begin(), members.end());  // Add sorts
    encoder.Add(&members, members.size());
  }
  return encoder.Finish(n);
}

/// The state a worker that threw mid-Add leaves behind: consistent
/// records, no postings yet, and an orphan encoding with no record.
void Unfinalize(CompressedRRShard* shard) {
  shard->postings = {};
  shard->total_members = 0;
  shard->finalized = false;
  const std::vector<NodeId> orphan = {1, 2, 3};
  EncodeRRMembers(orphan, &shard->bytes);
}

/// Rebuilds `rr` from its own snapshot parts (what LoadSnapshot does
/// after validating a file); the restored collection starts with every
/// set pending in the index.
RRCollection RestoreCopy(const RRCollection& rr, RRStoreOptions options) {
  std::vector<std::vector<uint8_t>> runs;
  for (uint32_t c = 0; c < rr.num_pool_chunks(); ++c) {
    const std::span<const uint8_t> run = rr.ChunkRun(c);
    runs.emplace_back(run.begin(), run.end());
  }
  const std::span<const uint32_t> slots = rr.slots();
  const std::span<const uint64_t> costs = rr.set_costs();
  return RRCollection::RestoreFromSnapshotParts(
      rr.num_nodes(), options, std::move(runs),
      std::vector<uint32_t>(slots.begin(), slots.end()),
      std::vector<uint64_t>(costs.begin(), costs.end()), rr.total_size(),
      rr.total_edges_examined());
}

/// Parameter: the exclusive bound on sets per random shard.
class RRIndexDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RRIndexDifferentialTest, RandomInterleavingsMatchDecodedSets) {
  const uint32_t max_shard_sets = GetParam();
  uint32_t max_chunks = 0;
  for (uint64_t trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    Rng rng(0x1d3c5 + trial, max_shard_sets > 200 ? 1 : 0);
    const uint32_t n = 50 + rng.UniformBelow(400);
    const RRStoreOptions options{.retain_set_costs = trial % 2 == 0};
    RRCollection rr(n, options);
    std::vector<std::vector<NodeId>> truth;

    for (int step = 0; step < 40; ++step) {
      const uint32_t op = rng.UniformBelow(10);
      if (op < 3) {
        // A run of single-set appends, left pending in the index.
        const uint32_t count = 1 + rng.UniformBelow(30);
        for (uint32_t i = 0; i < count; ++i) {
          truth.push_back(RandomSet(rng, n));
          std::vector<NodeId> shuffled = truth.back();
          std::reverse(shuffled.begin(), shuffled.end());
          rr.AddSet(shuffled, shuffled.size());
        }
      } else if (op < 8) {
        const uint32_t num_shards = 1 + rng.UniformBelow(8);
        std::vector<CompressedRRShard> shards;
        for (uint32_t s = 0; s < num_shards; ++s) {
          const uint32_t sets = rng.UniformBelow(4) == 0
                                    ? 0
                                    : rng.UniformBelow(max_shard_sets);
          std::vector<std::vector<NodeId>> shard_sets;
          for (uint32_t i = 0; i < sets; ++i) {
            shard_sets.push_back(RandomSet(rng, n));
          }
          truth.insert(truth.end(), shard_sets.begin(), shard_sets.end());
          shards.push_back(EncodeShard(shard_sets, n));
        }
        if (rng.UniformBelow(3) == 0) {
          Unfinalize(&shards[rng.UniformBelow(num_shards)]);
        }
        rr.AddCompressedShards(std::move(shards));
      } else if (op == 8) {
        rr = RestoreCopy(rr, options);
      }
      // Reading folds pending sets, so only check after some steps: the
      // others leave AddSet appends pending into the next ingest.
      if (rng.UniformBelow(2) == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesDecodedSets(rr, truth))
            << "step " << step << " op " << op;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectIndexMatchesDecodedSets(rr, truth));
    max_chunks = std::max(max_chunks, rr.num_pool_chunks());
  }
  // The pools really crossed chunk boundaries.
  EXPECT_GT(max_chunks, 1u);
}

INSTANTIATE_TEST_SUITE_P(MaxShardSets, RRIndexDifferentialTest,
                         ::testing::Values(200u, 1500u),
                         ::testing::PrintToStringParamName());

TEST(RRIndexChainTest, LongChainsKeepAscendingRuns) {
  // A node in every set walks its chain through every block size class;
  // the runs must concatenate to the ascending ids.
  RRCollection rr(3);
  std::vector<std::vector<NodeId>> truth;
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<std::vector<NodeId>> sets(1000 + batch * 37,
                                          std::vector<NodeId>{0, 2});
    truth.insert(truth.end(), sets.begin(), sets.end());
    std::vector<CompressedRRShard> shards;
    shards.push_back(EncodeShard(sets, 3));
    rr.AddCompressedShards(std::move(shards));
  }
  ExpectIndexMatchesDecodedSets(rr, truth);
  uint64_t runs = 0;
  RRId next = 0;
  rr.ForEachCoveringRun(0, [&](std::span<const RRId> run) {
    ++runs;
    for (RRId id : run) EXPECT_EQ(id, next++);
  });
  EXPECT_EQ(next, rr.num_sets());
  EXPECT_GT(runs, 1u);
  EXPECT_LT(runs, 20u);  // long chains are a few long runs
}

TEST(RRIndexDeltaTest, SmallIngestIsProportionalToItsMembers) {
  constexpr uint32_t kNodes = 1u << 20;
  RRCollection rr(kNodes, RRStoreOptions{.retain_set_costs = false});
  Rng rng(2024);
  auto random_sets = [&](uint32_t count, uint64_t* members) {
    std::vector<std::vector<NodeId>> sets;
    for (uint32_t i = 0; i < count; ++i) {
      std::vector<NodeId> s;
      for (uint32_t j = 0, size = 1 + rng.UniformBelow(40); j < size; ++j) {
        s.push_back(rng.UniformBelow(kNodes));
      }
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      *members += s.size();
      sets.push_back(std::move(s));
    }
    return sets;
  };

  // A prior pool, so the measured ingest appends to existing chains.
  uint64_t prior_members = 0;
  std::vector<CompressedRRShard> prior;
  prior.push_back(EncodeShard(random_sets(5000, &prior_members), kNodes));
  rr.AddCompressedShards(std::move(prior));

  uint64_t members = 0;
  const std::vector<std::vector<NodeId>> sets = random_sets(10, &members);
  CompressedRRShard shard = EncodeShard(sets, kNodes);
  // Nothing staged is sized by n: an (n+1)-entry offsets array alone
  // would be 4 MiB here.
  EXPECT_LE(shard.StagingBytes(), 32 * (members + sets.size()) + 64);
  EXPECT_EQ(shard.postings.size(), members);

#if OPIM_TELEMETRY_ENABLED
  Counter* touched = MetricsRegistry::Default().FindOrCreateCounter(
      "opim.rrset.index_nodes_touched");
  const uint64_t before = touched->Value();
#endif
  std::vector<CompressedRRShard> shards;
  shards.push_back(std::move(shard));
  rr.AddCompressedShards(std::move(shards));
#if OPIM_TELEMETRY_ENABLED
  std::set<NodeId> distinct;
  for (const std::vector<NodeId>& s : sets) distinct.insert(s.begin(), s.end());
  const uint64_t delta = touched->Value() - before;
  EXPECT_LE(delta, members);
  EXPECT_EQ(delta, distinct.size());  // one shard: one run per node
#endif
  EXPECT_EQ(rr.num_sets(), 5010u);
  EXPECT_EQ(rr.total_size(), prior_members + members);
  for (size_t i = 0; i < sets.size(); ++i) {
    const RRId id = static_cast<RRId>(5000 + i);
    for (NodeId v : sets[i]) {
      const std::vector<RRId> ids = rr.DecodeCovering(v);
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), id))
          << "node " << v;
    }
  }
}

}  // namespace
}  // namespace opim
