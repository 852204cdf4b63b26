// Covered-RR-set state as a flat 64-bit-word bitset, plus the counting
// kernels CELF's marginal recount hot path runs over it.
//
// A node's postings are runs of ascending RR ids (see rr_collection.h).
// The kernels below answer "how many of these RR sets are still
// uncovered" and "mark these covered, reporting the fresh ones" against
// the bitset.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/macros.h"

namespace opim {

/// Index of an RR set within a collection (canonical alias; identical to
/// the one rr_collection.h declares).
using RRId = uint32_t;

/// Bitset over RR-set ids; bit i set means RR set i is covered.
class CoverBitset {
 public:
  /// Sizes for `num_bits` ids and clears every bit.
  void Reset(uint64_t num_bits) {
    words_.assign((num_bits + 63) / 64, 0);
    num_bits_ = num_bits;
  }

  /// Grows to `num_bits` ids, preserving every existing bit; the new tail
  /// bits are clear. `num_bits` must not shrink the bitset — append-only
  /// RR pools only ever grow, and the incremental selection state relies
  /// on the old prefix staying intact across doublings.
  void Extend(uint64_t num_bits) {
    OPIM_DCHECK_LE(num_bits_, num_bits);
    words_.resize((num_bits + 63) / 64, 0);
    num_bits_ = num_bits;
  }

  /// Clears every bit without releasing the word arena.
  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  uint64_t Count() const {
    uint64_t count = 0;
    for (uint64_t w : words_) count += std::popcount(w);
    return count;
  }

  bool Test(uint64_t i) const {
    OPIM_DCHECK_LT(i, num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void Set(uint64_t i) {
    OPIM_DCHECK_LT(i, num_bits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }
  uint64_t num_words() const { return words_.size(); }
  uint64_t num_bits() const { return num_bits_; }

  uint64_t MemoryUsage() const {
    return words_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> words_;
  uint64_t num_bits_ = 0;
};

/// Number of `ids` whose bit is clear in `words` (raw postings).
inline uint64_t CountUncoveredIds(std::span<const RRId> ids,
                                  const uint64_t* words) {
  uint64_t uncovered = 0;
  for (RRId id : ids) {
    uncovered += ((words[id >> 6] >> (id & 63)) & 1u) ^ 1u;
  }
  return uncovered;
}

/// Marks every id covered and calls `fn(RRId)` for each id that was not
/// already covered, in ascending order.
template <typename Fn>
inline void ForEachNewlyCoveredIds(std::span<const RRId> ids, uint64_t* words,
                                   Fn&& fn) {
  for (RRId id : ids) {
    uint64_t& w = words[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((w & bit) == 0) {
      w |= bit;
      fn(id);
    }
  }
}

}  // namespace opim
