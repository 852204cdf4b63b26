// AVX2 coverage-counting kernel. This translation unit is the only one
// compiled with -mavx2 -mpopcnt (see src/rrset/CMakeLists.txt); it is
// added to the build only when OPIM_SIMD is ON and the target is x86-64,
// and callers reach it strictly through the runtime dispatch in
// cover_bitset.cc, so the rest of the binary stays baseline-ISA clean.
//
// The kernel must be bit-identical to its scalar counterpart —
// tests/rrset/cover_bitset_test.cc pins that on randomized inputs.

#include <immintrin.h>

#include <cstdint>
#include <span>

namespace opim {

using RRId = uint32_t;

uint64_t CountUncoveredIdsAvx2(std::span<const RRId> ids,
                               const uint64_t* words) {
  const size_t n = ids.size();
  const RRId* p = ids.data();
  size_t i = 0;
  uint64_t covered = 0;
  __m256i acc = _mm256_setzero_si256();
  const __m128i low6 = _mm_set1_epi32(63);
  const __m256i one = _mm256_set1_epi64x(1);
  for (; i + 4 <= n; i += 4) {
    const __m128i id4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    // Gather the four bitset words the ids land in, shift each word so
    // the id's bit is at position 0, and accumulate the covered bits.
    const __m128i widx = _mm_srli_epi32(id4, 6);
    const __m256i w = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(words), widx, 8);
    const __m256i bitpos = _mm256_cvtepu32_epi64(_mm_and_si128(id4, low6));
    acc = _mm256_add_epi64(acc,
                           _mm256_and_si256(_mm256_srlv_epi64(w, bitpos), one));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  covered = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  uint64_t uncovered = (i - covered);
  for (; i < n; ++i) {
    uncovered += ((words[p[i] >> 6] >> (p[i] & 63)) & 1u) ^ 1u;
  }
  return uncovered;
}

}  // namespace opim
