// Run-time CPU feature check shared by every SIMD tier.
//
// The quantizer (core/quantize_avx2.cpp) and the lossless stages
// (bits/lossless_avx2.cpp) each keep a scalar reference and an AVX2 tier that
// writes the same bytes; this one check picks the tier for the whole process.
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

}  // namespace repro::common
