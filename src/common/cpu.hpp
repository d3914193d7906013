// Run-time CPU feature checks shared by every SIMD tier.
//
// The quantizer (core/quantize_avx2.cpp), the lossless stages
// (bits/lossless_avx2.cpp) and the CRC-32 (common/checksum.hpp) each keep a
// scalar reference and a SIMD tier that produces the same bytes; these checks
// pick the tier for the whole process.
#pragma once

namespace repro::common {

/// True when this CPU and OS run AVX2; resolved once per process.
inline bool has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// True when this CPU runs PCLMULQDQ and SSE4.1 (the CRC-32 folding tier);
/// resolved once per process.
inline bool has_pclmul() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0 && __builtin_cpu_supports("sse4.1") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace repro::common
