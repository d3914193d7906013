// The Avx2 rung of the quantizer lane kernels: four double lanes per group,
// lane masks in vector registers. This file defines the lane vocabulary over
// __m256d/__m256i; the kernel bodies, and how they keep every word equal to
// the scalar encode()/decode() word, are in quantize_lanes.hpp, shared with
// the Avx512 rung.
#include "core/quantizers.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <type_traits>

#define PFPL_LANE_FN __attribute__((target("avx2"), always_inline)) inline
// Kernels start on a 64-byte boundary, so their loops sit the same way in
// every binary and their speed does not move with unrelated code linked
// before them.
#define PFPL_LANE_KERNEL __attribute__((target("avx2"), aligned(64)))

namespace repro::pfpl {
namespace {

namespace tier = avx2;

using D = __m256d;
using I = __m256i;
using M = __m256d;  // all-ones or all-zeros lanes
constexpr int kW = 4;

constexpr double kMagic = 0x1.8p52;  // 1.5 * 2^52

PFPL_LANE_FN D splat(double x) { return _mm256_set1_pd(x); }
PFPL_LANE_FN I splat64(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
PFPL_LANE_FN I as_int(D x) { return _mm256_castpd_si256(x); }
PFPL_LANE_FN D as_dbl(I x) { return _mm256_castsi256_pd(x); }
PFPL_LANE_FN D select(M mask, D a, D b) { return _mm256_blendv_pd(b, a, mask); }
PFPL_LANE_FN I select(M mask, I a, I b) { return _mm256_blendv_epi8(b, a, as_int(mask)); }
PFPL_LANE_FN M both(M a, M b) { return _mm256_and_pd(a, b); }
PFPL_LANE_FN M either(M a, M b) { return _mm256_or_pd(a, b); }
PFPL_LANE_FN M a_not_b(M a, M b) { return _mm256_andnot_pd(b, a); }
PFPL_LANE_FN unsigned lane_bits(M m) { return static_cast<unsigned>(_mm256_movemask_pd(m)); }
PFPL_LANE_FN D absval(D x) { return _mm256_andnot_pd(splat(-0.0), x); }
PFPL_LANE_FN D min_pd(D a, D b) { return _mm256_min_pd(a, b); }
PFPL_LANE_FN D max_pd(D a, D b) { return _mm256_max_pd(a, b); }
PFPL_LANE_FN M lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
PFPL_LANE_FN M le(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
PFPL_LANE_FN M gt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
PFPL_LANE_FN M ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
PFPL_LANE_FN M eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
PFPL_LANE_FN M is_nan(D x) { return _mm256_cmp_pd(x, x, _CMP_UNORD_Q); }
PFPL_LANE_FN M eq64(I a, I b) { return as_dbl(_mm256_cmpeq_epi64(a, b)); }
PFPL_LANE_FN I add64(I a, I b) { return _mm256_add_epi64(a, b); }
PFPL_LANE_FN I shl(I x, int n) { return _mm256_slli_epi64(x, n); }
PFPL_LANE_FN I shr(I x, int n) { return _mm256_srli_epi64(x, n); }

/// Unsigned 64-bit a < b (AVX2 only has the signed compare).
PFPL_LANE_FN M lt_u64(I a, I b) {
  const I flip = splat64(u64{1} << 63);
  return as_dbl(_mm256_cmpgt_epi64(b ^ flip, a ^ flip));
}

/// fpmath::round_nearest_even, bit for bit. roundpd rounds to the same
/// integer as the scalar 2^52 add/subtract trick; the trick returns +0.0
/// where roundpd returns -0.0 (x in [-0.5, -0.0]), and adding +0.0 maps that
/// one case, leaving every other result unchanged.
PFPL_LANE_FN D round_ne(D x) {
  return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC) + 0.0;
}

/// Integral double with |x| < 2^51 to its i64 value, exactly.
PFPL_LANE_FN I to_i64(D x) { return _mm256_sub_epi64(as_int(x + kMagic), as_int(splat(kMagic))); }

/// i64 with |n| < 2^51 to double, exactly.
PFPL_LANE_FN D to_f64(I n) { return as_dbl(add64(n, as_int(splat(kMagic)))) - kMagic; }

// Loads and stores. IEEE words travel zero-extended in 64-bit lanes.

/// Four values as double lanes (f32 widened exactly) plus their words.
PFPL_LANE_FN D load_values(const float* p, I& bits) {
  const __m128 f = _mm_loadu_ps(p);
  bits = _mm256_cvtepu32_epi64(_mm_castps_si128(f));
  return _mm256_cvtps_pd(f);
}
PFPL_LANE_FN D load_values(const double* p, I& bits) {
  const D v = _mm256_loadu_pd(p);
  bits = as_int(v);
  return v;
}

PFPL_LANE_FN I load_words(const u32* p) {
  return _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
PFPL_LANE_FN I load_words(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Store four words (or value bit patterns) of T's width.
template <typename T>
PFPL_LANE_FN void store_words(void* p, I w) {
  if constexpr (std::is_same_v<T, float>) {
    const I low = _mm256_permutevar8x32_epi32(w, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
    _mm_storeu_si128(static_cast<__m128i*>(p), _mm256_castsi256_si128(low));
  } else {
    _mm256_storeu_si256(static_cast<__m256i*>(p), w);
  }
}

/// static_cast<T>(x), widened back to double.
template <typename T>
PFPL_LANE_FN D to_value(D x) {
  if constexpr (std::is_same_v<T, float>)
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(x));
  else
    return x;
}

/// The IEEE word of static_cast<T>(x).
template <typename T>
PFPL_LANE_FN I value_bits(D x) {
  if constexpr (std::is_same_v<T, float>)
    return _mm256_cvtepu32_epi64(_mm_castps_si128(_mm256_cvtpd_ps(x)));
  else
    return as_int(x);
}

}  // namespace
}  // namespace repro::pfpl

#else

namespace repro::pfpl {
namespace {
namespace tier = avx2;
}
}  // namespace repro::pfpl

#endif

#include "core/quantize_lanes.hpp"
