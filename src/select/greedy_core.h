// Shared internals of the two greedy selectors (select/greedy.h).
//
// SelectGreedy (the differential oracle) and SelectGreedyCelf must agree
// on every output bit — seeds, tie-breaks, trace arrays — so the pieces
// that define those bits live here, in exactly one translation unit:
// the candidate ordering (BetterCandidate / CelfEntry), the initial
// marginal-gain pass (cold and warm-started), the top-k marginal
// machinery of the Eq. (10) trace, and the covered-bitset marking walk.
// The differential tests in tests/select/ then exercise one
// implementation of the invariants instead of two copies that could
// drift apart.
//
// Everything here is an implementation detail of select/: the header is
// included by greedy.cc and the selection tests, not installed API.

#pragma once

#include <cstdint>
#include <vector>

#include "rrset/cover_bitset.h"
#include "rrset/rr_collection.h"
#include "select/greedy.h"

namespace opim {

/// The one candidate-ordering rule both selectors share: a candidate
/// (gain, node) beats the incumbent (best_gain, best_node) iff its gain
/// is strictly larger, or equal with a smaller node id. Smallest id wins
/// ties so CELF's pop order matches SelectGreedy's ascending argmax scan
/// exactly.
inline bool BetterCandidate(uint64_t gain, NodeId node, uint64_t best_gain,
                            NodeId best_node) {
  if (gain != best_gain) return gain > best_gain;
  return node < best_node;
}

/// Lazy-forward queue entry: a (possibly stale) upper bound on a node's
/// marginal gain. The heap comparator is BetterCandidate, so the queue
/// pops candidates in exactly the oracle's argmax order.
struct CelfEntry {
  uint64_t gain;
  NodeId node;
  uint32_t round;  // selection round the gain was computed in
  bool operator<(const CelfEntry& other) const {
    return BetterCandidate(other.gain, other.node, gain, node);
  }
};

/// Fills `gains[v] = CoveringCount(v)` for every node, over node ranges
/// on `options.pool` when the posting mass warrants it; per-node results
/// are independent, so the output is identical for any worker count.
/// Runs `options.after_initial_gains` (if set) once the pass — the only
/// pool use in CELF — is done.
void InitialGains(const RRCollection& collection, const CelfOptions& options,
                  std::vector<uint64_t>* gains);

/// Initial-gain acquisition with the incremental fast path: when
/// `options.state` is set, syncs the persistent SelectionState against
/// `collection` (an O(n) copy of the collection's incrementally
/// maintained membership counts instead of an O(Σ|R|) recount) and falls
/// back to the cold InitialGains pass — invalidating the state — if the
/// sync throws. Either way the resulting gains are bit-identical and
/// `options.after_initial_gains` fires exactly once, at the same
/// schedule point, so the pipelined engine's speculative RR streams are
/// unaffected by which path ran.
void AcquireInitialGains(const RRCollection& collection,
                         const CelfOptions& options,
                         std::vector<uint64_t>* gains);

/// Sum of the k largest values of `scratch` (consumed: partially sorted).
/// Zeros never contribute, so callers pass only nonzero entries.
uint64_t TopKSumOf(std::vector<uint64_t>* scratch, uint32_t k);

/// Sum of the k largest values in `counts`: copies only the nonzero
/// entries into `scratch` (partial copy — the pre-rework version copied
/// the whole n-sized vector per pick) and partial-sorts those.
uint64_t TopKSum(const std::vector<uint64_t>& counts, uint32_t k,
                 std::vector<uint64_t>* scratch);

/// Appends the smallest-id nodes not yet selected until `seeds` has k
/// entries (used when coverage saturates before k picks).
void FillWithUnselected(uint32_t n, uint32_t k,
                        const std::vector<char>& selected,
                        std::vector<NodeId>* seeds);

/// Marks every RR set containing `v` covered and calls `fn(RRId)` once
/// for each set that was not already covered, in ascending id order.
template <typename Fn>
void MarkCoveredBy(const RRCollection& collection, NodeId v,
                   CoverBitset* covered, Fn&& fn) {
  collection.ForEachCoveringRun(v, [&](std::span<const RRId> run) {
    ForEachNewlyCoveredIds(run, covered->words(), fn);
  });
}

}  // namespace opim
