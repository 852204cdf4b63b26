#include "select/greedy.h"

#include <algorithm>
#include <queue>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/cover_bitset.h"
#include "select/greedy_core.h"
#include "select/seed_trace.h"
#include "select/selection_state.h"
#include "support/thread_pool.h"

namespace opim {

GreedyResult SelectGreedy(const RRCollection& collection, uint32_t k,
                          bool with_trace) {
  OPIM_TR_SPAN2("greedy", "select", "theta", collection.num_sets(), "k", k);
  OPIM_TM_SCOPED_TIMER("opim.select.greedy_us");
  OPIM_TM_COUNTER_ADD("opim.select.greedy_runs", 1);
  const uint32_t n = collection.num_nodes();
  const uint32_t theta = collection.num_sets();
  k = std::min(k, n);

  GreedyResult result;
  result.seeds.reserve(k);

  // Λ(v | S_i*) for the current prefix; the initial pass is the shared
  // cold one (serial: no options), so oracle and CELF start from the
  // same numbers by construction.
  std::vector<uint64_t> counts;
  InitialGains(collection, CelfOptions{}, &counts);
  CoverBitset covered;
  covered.Reset(theta);
  std::vector<char> selected(n, 0);
  std::vector<uint64_t> scratch;

  if (with_trace) {
    result.coverage_at.reserve(k + 1);
    result.topk_marginal_at.reserve(k + 1);
  }

  uint64_t coverage = 0;
  uint64_t cover_updates = 0;  // decrements applied to `counts`
  for (uint32_t i = 0; i < k; ++i) {
    if (with_trace) {
      result.coverage_at.push_back(coverage);
      result.topk_marginal_at.push_back(TopKSum(counts, k, &scratch));
    }

    // Argmax of marginal coverage under the shared ordering rule; the
    // counts[v] > 0 guard keeps zero-gain nodes out (they are appended
    // by FillWithUnselected below, not selected).
    NodeId best = kInvalidNode;
    uint64_t best_count = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!selected[v] && counts[v] > 0 &&
          BetterCandidate(counts[v], v, best_count, best)) {
        best = v;
        best_count = counts[v];
      }
    }
    if (best == kInvalidNode) break;  // all RR sets covered

    selected[best] = 1;
    result.seeds.push_back(best);
    coverage += best_count;
    // Mark newly covered sets; every co-member loses one unit of marginal.
    MarkCoveredBy(collection, best, &covered, [&](RRId id) {
      collection.ForEachMember(id, [&](NodeId w) {
        ++cover_updates;
        --counts[w];
      });
    });
    OPIM_DCHECK_EQ(counts[best], 0u);
  }

  if (with_trace) {
    // Record the state after the final pick too (prefix i = |seeds|); pad
    // to k + 1 entries if selection stopped early (coverage saturated:
    // marginals are all zero from here on).
    result.coverage_at.push_back(coverage);
    result.topk_marginal_at.push_back(TopKSum(counts, k, &scratch));
    while (result.coverage_at.size() < static_cast<size_t>(k) + 1) {
      result.coverage_at.push_back(coverage);
      result.topk_marginal_at.push_back(0);
    }
  }

  OPIM_TM_COUNTER_ADD("opim.select.cover_updates", cover_updates);
  FillWithUnselected(n, k, selected, &result.seeds);
  result.coverage = coverage;
  return result;
}

GreedyResult SelectGreedyCelf(const RRCollection& collection, uint32_t k,
                              bool with_trace, const CelfOptions& options) {
  OPIM_TR_SPAN2("celf", "select", "theta", collection.num_sets(), "k", k);
  OPIM_TM_SCOPED_TIMER("opim.select.celf_us");
  OPIM_TM_COUNTER_ADD("opim.select.celf_runs", 1);
  const uint32_t n = collection.num_nodes();
  const uint32_t theta = collection.num_sets();
  k = std::min(k, n);

  GreedyResult result;
  result.seeds.reserve(k);
  // The covered bitset comes from the persistent state when one is
  // given: its word arena survives across doublings (extended, cleared)
  // instead of being reallocated per selection. Same bits either way.
  CoverBitset local_covered;
  CoverBitset* covered_bits;
  if (options.state != nullptr) {
    covered_bits = options.state->PrepareCovered(theta);
  } else {
    local_covered.Reset(theta);
    covered_bits = &local_covered;
  }
  CoverBitset& covered = *covered_bits;
  std::vector<char> selected(n, 0);

  uint64_t coverage = 0;
  uint32_t round = 0;
  uint64_t pops = 0;
  uint64_t rescans = 0;
  uint64_t words_scanned = 0;  // bitset words the counting kernels touched

  // Initial marginal gains Λ({v}) for every node — warm-synced from the
  // persistent state when options.state is set, else the cold pass
  // (parallel over node ranges when options.pool is set). Identical
  // values either way; everything after is serial and bit-identical.
  std::vector<uint64_t> gains;
  AcquireInitialGains(collection, options, &gains);

  // After a successful warm sync the collection's nonzero-membership
  // node list is current, and only those nodes can hold a positive gain:
  // the heap / histogram builds below iterate it instead of all n nodes.
  // At the doubling loop's early iterations the pool touches a small
  // fraction of n, so this removes the remaining O(n) passes from the
  // warm path. Output is unaffected by the iteration order or by the
  // absent zero-gain entries: the CELF comparator is a strict total
  // order, and a zero-gain entry can never be selected (it either
  // re-enqueues at zero and breaks the pop loop, or the queue simply
  // drains — the seeds are identical either way, which the warm-vs-cold
  // differential tests pin).
  std::span<const NodeId> nonzero;
  const bool use_nonzero =
      options.state != nullptr && options.state->WarmFor(collection);
  if (use_nonzero) nonzero = collection.MemberNonzero();

  if (!with_trace) {
    // Classic CELF: no marginal bookkeeping at all — a stale entry's gain
    // is recomputed on demand by testing the node's postings against the
    // covered bitset.
    // O(n) heap build (make_heap via the container ctor) instead of n
    // pushes; pop order — and therefore the seed set — only depends on
    // the comparator, not the heap's internal layout.
    std::vector<CelfEntry> entries;
    if (use_nonzero) {
      entries.reserve(nonzero.size());
      for (NodeId v : nonzero) entries.push_back({gains[v], v, 0});
    } else {
      entries.reserve(n);
      for (NodeId v = 0; v < n; ++v) entries.push_back({gains[v], v, 0});
    }
    std::priority_queue<CelfEntry> queue(std::less<CelfEntry>{},
                                         std::move(entries));
    auto fresh_gain = [&](NodeId v) {
      uint64_t gain = 0;
      collection.ForEachCoveringRun(v, [&](std::span<const RRId> run) {
        words_scanned += run.size();
        gain += CountUncoveredIds(run, covered.words());
      });
      return gain;
    };
    while (result.seeds.size() < k && !queue.empty()) {
      CelfEntry top = queue.top();
      queue.pop();
      ++pops;
      if (selected[top.node]) continue;
      if (top.round != round) {
        // Stale: recompute (submodularity guarantees it only shrinks).
        top.gain = fresh_gain(top.node);
        top.round = round;
        queue.push(top);
        ++rescans;
        continue;
      }
      if (top.gain == 0) break;  // coverage saturated
      selected[top.node] = 1;
      result.seeds.push_back(top.node);
      coverage += top.gain;
      // Nothing to report per fresh set here, so mark without testing:
      // a plain OR per posting has no data-dependent branch.
      collection.ForEachCovering(top.node, [&](RRId id) { covered.Set(id); });
      ++round;
    }
    OPIM_TM_COUNTER_ADD("opim.select.celf_pops", pops);
    OPIM_TM_COUNTER_ADD("opim.select.celf_rescans", rescans);
    OPIM_TM_COUNTER_ADD("opim.select.words_scanned", words_scanned);
    FillWithUnselected(n, k, selected, &result.seeds);
    result.coverage = coverage;
    return result;
  }

  // Trace mode (what OPIM⁺'s Eq. (10) bound consumes): maintain the exact
  // marginals Λ(v | S_i*) like SelectGreedy — a stale queue entry then
  // refreshes with an O(1) lookup — plus a bucket histogram over the
  // marginal values. Every update is a decrement, so it moves one node
  // down one bucket in O(1), and each prefix's top-k marginal sum is a
  // walk down the histogram from the current maximum: the only sum the
  // bound needs is Σ value·|bucket| over the k largest entries, so no
  // per-pick O(n) scan, copy, or nth_element happens at all. When a
  // SeedTrace is attached, the same walk also writes the prefix's full
  // top-j sums (j = 1..k) into its matrix row — the per-prefix Eq. (10)
  // summands any later k' <= k query needs — at O(k) extra per prefix.
  SeedTrace* strace = options.seed_trace;
  if (strace != nullptr) strace->Begin(k);
  std::vector<uint64_t> counts = std::move(gains);
  uint64_t max_count = 0;
  std::vector<CelfEntry> entries;  // heapified in one O(n) make_heap below
  if (use_nonzero) {
    entries.reserve(nonzero.size());
    for (NodeId v : nonzero) {
      const uint64_t g = counts[v];  // >= 1: membership never decreases
      entries.push_back({g, v, 0});
      max_count = std::max(max_count, g);
    }
  } else {
    entries.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      const uint64_t g = counts[v];
      if (g > 0) entries.push_back({g, v, 0});
      max_count = std::max(max_count, g);
    }
  }
  std::priority_queue<CelfEntry> queue(std::less<CelfEntry>{},
                                       std::move(entries));
  std::vector<uint32_t> hist(max_count + 1, 0);  // hist[c] = #nodes, c > 0
  if (use_nonzero) {
    for (NodeId v : nonzero) ++hist[counts[v]];
  } else {
    for (NodeId v = 0; v < n; ++v) {
      if (counts[v] > 0) ++hist[counts[v]];
    }
  }
  uint64_t cover_updates = 0;

  auto record_prefix = [&] {
    const uint32_t prefix = static_cast<uint32_t>(result.coverage_at.size());
    result.coverage_at.push_back(coverage);
    if (strace != nullptr) strace->RecordCoverage(prefix, coverage);
    // The maximum only decreases (all updates are decrements), so the
    // cursor moves monotonically: O(initial max) total over the whole run.
    while (max_count > 0 && hist[max_count] == 0) --max_count;
    uint64_t* row = strace != nullptr ? strace->PrefixRow(prefix) : nullptr;
    uint64_t sum = 0;
    uint64_t taken = 0;
    for (uint64_t value = max_count; value > 0 && taken < k; --value) {
      const uint64_t take = std::min<uint64_t>(hist[value], k - taken);
      if (row != nullptr) {
        for (uint64_t t = 1; t <= take; ++t) row[taken + t] = sum + value * t;
      }
      sum += value * take;
      taken += take;
    }
    if (row != nullptr) {
      // Fewer than j nonzero marginals means the top-j sum is the total.
      for (uint64_t j = taken + 1; j <= k; ++j) row[j] = sum;
    }
    result.topk_marginal_at.push_back(sum);
  };

  result.coverage_at.reserve(k + 1);
  result.topk_marginal_at.reserve(k + 1);
  for (uint32_t i = 0; i < k; ++i) {
    record_prefix();

    NodeId best = kInvalidNode;
    uint64_t best_gain = 0;
    while (!queue.empty()) {
      CelfEntry top = queue.top();
      queue.pop();
      ++pops;
      if (selected[top.node]) continue;
      if (top.round != round) {
        top.gain = counts[top.node];
        top.round = round;
        ++rescans;
        if (top.gain > 0) queue.push(top);
        continue;
      }
      best = top.node;
      best_gain = top.gain;
      break;
    }
    if (best == kInvalidNode) break;  // all RR sets covered

    selected[best] = 1;
    result.seeds.push_back(best);
    coverage += best_gain;
    MarkCoveredBy(collection, best, &covered, [&](RRId id) {
      collection.ForEachMember(id, [&](NodeId w) {
        // w belongs to a set that was uncovered, so counts[w] >= 1 here.
        ++cover_updates;
        const uint64_t c = counts[w]--;
        --hist[c];
        if (c > 1) ++hist[c - 1];
      });
    });
    OPIM_DCHECK_EQ(counts[best], 0u);
    ++round;
  }
  record_prefix();
  while (result.coverage_at.size() < static_cast<size_t>(k) + 1) {
    if (strace != nullptr) {
      strace->RecordCoverage(static_cast<uint32_t>(result.coverage_at.size()),
                             coverage);
    }
    result.coverage_at.push_back(coverage);
    result.topk_marginal_at.push_back(0);
  }

  OPIM_TM_COUNTER_ADD("opim.select.celf_pops", pops);
  OPIM_TM_COUNTER_ADD("opim.select.celf_rescans", rescans);
  OPIM_TM_COUNTER_ADD("opim.select.cover_updates", cover_updates);
  OPIM_TM_COUNTER_ADD("opim.select.words_scanned", words_scanned);
  FillWithUnselected(n, k, selected, &result.seeds);
  result.coverage = coverage;
  if (strace != nullptr) strace->RecordSeeds(result.seeds);
  return result;
}

}  // namespace opim
