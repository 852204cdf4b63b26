#include "rrset/cover_bitset.h"

#include <atomic>

namespace opim {

namespace {

uint64_t CountUncoveredIdsScalar(std::span<const RRId> ids,
                                 const uint64_t* words) {
  uint64_t uncovered = 0;
  for (RRId id : ids) {
    uncovered += ((words[id >> 6] >> (id & 63)) & 1u) ^ 1u;
  }
  return uncovered;
}

// kAuto by default; SetCoverageSimdMode is a test/tooling hook, so a
// relaxed atomic is all the synchronization this needs.
std::atomic<SimdMode> g_simd_mode{SimdMode::kAuto};

bool Avx2Supported() {
#if OPIM_SIMD_AVX2
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

}  // namespace

#if OPIM_SIMD_AVX2
// Defined in cover_kernels_avx2.cc (compiled with -mavx2 -mpopcnt).
uint64_t CountUncoveredIdsAvx2(std::span<const RRId> ids,
                               const uint64_t* words);
#endif

void SetCoverageSimdMode(SimdMode mode) {
  g_simd_mode.store(mode, std::memory_order_relaxed);
}

bool CoverageSimdAvailable() { return Avx2Supported(); }

SimdMode EffectiveCoverageSimd() {
  const SimdMode mode = g_simd_mode.load(std::memory_order_relaxed);
  if (mode == SimdMode::kScalar) return SimdMode::kScalar;
  if (!Avx2Supported()) return SimdMode::kScalar;  // kAvx2 degrades too
  return SimdMode::kAvx2;
}

const char* ActiveCoverageKernelName() {
  return EffectiveCoverageSimd() == SimdMode::kAvx2 ? "avx2" : "scalar";
}

uint64_t CountUncoveredIds(std::span<const RRId> ids, const uint64_t* words) {
#if OPIM_SIMD_AVX2
  if (EffectiveCoverageSimd() == SimdMode::kAvx2) {
    return CountUncoveredIdsAvx2(ids, words);
  }
#endif
  return CountUncoveredIdsScalar(ids, words);
}

}  // namespace opim
