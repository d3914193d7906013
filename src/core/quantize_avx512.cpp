// The Avx512 rung of the quantizer lane kernels: eight double lanes per
// group, lane masks in k registers. This file defines the lane vocabulary
// over __m512d/__m512i; the kernel bodies, and how they keep every word equal
// to the scalar encode()/decode() word, are in quantize_lanes.hpp, shared
// with the Avx2 rung. AVX-512 DQ converts between 64-bit integers and
// doubles directly and F compares unsigned words, so to_i64, to_f64 and
// lt_u64 are one instruction each; the values they see are integers below
// 2^51 in magnitude, where every conversion is exact. Conversions, shifts,
// min/max and rounding use their zero-masking forms under an all-ones mask:
// GCC 12's unmasked forms pass an undefined source that -Wmaybe-uninitialized
// reports.
#include "core/quantizers.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <type_traits>

#define PFPL_LANE_FN \
  __attribute__((target("avx512f,avx512vl,avx512dq,avx512bw"), always_inline)) inline
// 64-byte aligned, as in quantize_avx2.cpp.
#define PFPL_LANE_KERNEL \
  __attribute__((target("avx512f,avx512vl,avx512dq,avx512bw"), aligned(64)))

namespace repro::pfpl {
namespace {

namespace tier = avx512;

using D = __m512d;
using I = __m512i;
using M = __mmask8;
constexpr int kW = 8;
constexpr M kAll = 0xFF;

PFPL_LANE_FN D splat(double x) { return _mm512_set1_pd(x); }
PFPL_LANE_FN I splat64(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
PFPL_LANE_FN I as_int(D x) { return _mm512_castpd_si512(x); }
PFPL_LANE_FN D as_dbl(I x) { return _mm512_castsi512_pd(x); }
PFPL_LANE_FN D select(M mask, D a, D b) { return _mm512_mask_blend_pd(mask, b, a); }
PFPL_LANE_FN I select(M mask, I a, I b) { return _mm512_mask_blend_epi64(mask, b, a); }
PFPL_LANE_FN M both(M a, M b) { return static_cast<M>(a & b); }
PFPL_LANE_FN M either(M a, M b) { return static_cast<M>(a | b); }
PFPL_LANE_FN M a_not_b(M a, M b) { return static_cast<M>(a & ~b); }
PFPL_LANE_FN unsigned lane_bits(M m) { return m; }
PFPL_LANE_FN D absval(D x) { return _mm512_andnot_pd(splat(-0.0), x); }
PFPL_LANE_FN D min_pd(D a, D b) { return _mm512_maskz_min_pd(kAll, a, b); }
PFPL_LANE_FN D max_pd(D a, D b) { return _mm512_maskz_max_pd(kAll, a, b); }
PFPL_LANE_FN M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
PFPL_LANE_FN M le(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
PFPL_LANE_FN M gt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
PFPL_LANE_FN M ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
PFPL_LANE_FN M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
PFPL_LANE_FN M is_nan(D x) { return _mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q); }
PFPL_LANE_FN M eq64(I a, I b) { return _mm512_cmpeq_epi64_mask(a, b); }
PFPL_LANE_FN M lt_u64(I a, I b) { return _mm512_cmplt_epu64_mask(a, b); }
PFPL_LANE_FN I add64(I a, I b) { return _mm512_add_epi64(a, b); }
PFPL_LANE_FN I shl(I x, unsigned n) { return _mm512_maskz_slli_epi64(kAll, x, n); }
PFPL_LANE_FN I shr(I x, unsigned n) { return _mm512_maskz_srli_epi64(kAll, x, n); }

/// fpmath::round_nearest_even, bit for bit (see the Avx2 rung's round_ne:
/// vrndscalepd with scale 0 rounds as roundpd does).
PFPL_LANE_FN D round_ne(D x) {
  return _mm512_maskz_roundscale_pd(kAll, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC) + 0.0;
}

/// Integral double with |x| < 2^51 to its i64 value, exactly.
PFPL_LANE_FN I to_i64(D x) { return _mm512_maskz_cvtpd_epi64(kAll, x); }

/// i64 with |n| < 2^51 to double, exactly.
PFPL_LANE_FN D to_f64(I n) { return _mm512_maskz_cvtepi64_pd(kAll, n); }

// Loads and stores. IEEE words travel zero-extended in 64-bit lanes.

/// Eight values as double lanes (f32 widened exactly) plus their words.
PFPL_LANE_FN D load_values(const float* p, I& bits) {
  const __m256 f = _mm256_loadu_ps(p);
  bits = _mm512_maskz_cvtepu32_epi64(kAll, _mm256_castps_si256(f));
  return _mm512_maskz_cvtps_pd(kAll, f);
}
PFPL_LANE_FN D load_values(const double* p, I& bits) {
  const D v = _mm512_loadu_pd(p);
  bits = as_int(v);
  return v;
}

PFPL_LANE_FN I load_words(const u32* p) {
  const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return _mm512_maskz_cvtepu32_epi64(kAll, w);
}
PFPL_LANE_FN I load_words(const u64* p) { return _mm512_loadu_si512(p); }

/// Store eight words (or value bit patterns) of T's width.
template <typename T>
PFPL_LANE_FN void store_words(void* p, I w) {
  if constexpr (std::is_same_v<T, float>)
    _mm256_storeu_si256(static_cast<__m256i*>(p), _mm512_maskz_cvtepi64_epi32(kAll, w));
  else
    _mm512_storeu_si512(p, w);
}

/// static_cast<float>(x) for T = float, eight lanes.
PFPL_LANE_FN __m256 to_f32(D x) { return _mm512_maskz_cvtpd_ps(kAll, x); }

/// static_cast<T>(x), widened back to double.
template <typename T>
PFPL_LANE_FN D to_value(D x) {
  if constexpr (std::is_same_v<T, float>)
    return _mm512_maskz_cvtps_pd(kAll, to_f32(x));
  else
    return x;
}

/// The IEEE word of static_cast<T>(x).
template <typename T>
PFPL_LANE_FN I value_bits(D x) {
  if constexpr (std::is_same_v<T, float>)
    return _mm512_maskz_cvtepu32_epi64(kAll, _mm256_castps_si256(to_f32(x)));
  else
    return as_int(x);
}

}  // namespace
}  // namespace repro::pfpl

#else

namespace repro::pfpl {
namespace {
namespace tier = avx512;
}
}  // namespace repro::pfpl

#endif

#include "core/quantize_lanes.hpp"
