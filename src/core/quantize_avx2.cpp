// AVX2 block kernels for the PFPL quantizers (the lane tier behind
// AbsQuantizer/RelQuantizer::encode_block and decode_block).
//
// The per-value encode()/decode() in quantizers.hpp are the specification:
// every word written here equals the word they give for the same input, so
// streams stay byte-identical on every host, tier and executor.
//
// How the lanes keep that promise:
//   * Values travel as 4 x double lanes. f32 input is widened to double
//     exactly as the scalar path does; IEEE words ride along in 64-bit
//     integer lanes. Branches of the scalar code become lane masks. ABS/NOA
//     run one 4-lane group per step. REL runs kGroups groups per step as a
//     Lanes<kGroups>, so the long det_log/det_exp Horner chains of the groups
//     overlap; then one 4-lane group per step for the remainder.
//   * Only IEEE basic operations in the scalar order. The det_log/det_exp
//     polynomials are the very templates the scalar functions use
//     (fpmath/det_poly.hpp), instantiated for Lanes<G>: each operation runs
//     on all G groups before the next, so no value's sequence changes.
//     Functions carry target("avx2") and never "fma", and the build's
//     -ffp-contract=off keeps a*b+c as two roundings.
//   * The bound check is the fast path of fpmath/bound.hpp, the same few
//     operations for f32 and f64: ABS s = |v - r| against eps; REL
//     p = lo*eps against d = hi - lo with lo, hi = min, max(r, |v|). A
//     comparison of rounded values is exact unless they are equal.
//     An ABS tie s == eps always holds, because v - r is then exact: r = 0,
//     or v lies within a factor 2 of r (Sterbenz). The only way out would
//     be bin +-1 with |v| just below eps, and there |v - r| = eps + ulp(eps)
//     exactly (v in eps's binade) or the bin is 0 (v below it).
//   * Lanes the vector code cannot decide re-run the scalar function for
//     their own value, in whichever group they sit:
//       - det_exp leaves its single-multiply scale range (k < -1021 or
//         k > 1023), where the scalar code scales in several steps;
//       - a REL check ties (p == d), where the scalar predicate compares
//         the exact rounding errors;
//     plus the k mod 4 tail, and every value when the ABS quantizer is in
//     degenerate mode (eps below the smallest normal: only exact zeros bin).
#include "core/quantizers.hpp"

#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "fpmath/det_poly.hpp"

#define PFPL_AVX2 __attribute__((target("avx2")))
#define PFPL_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

namespace repro::pfpl::avx2 {
namespace {

using fpmath::FloatTraits;
using D = __m256d;
using I = __m256i;

template <typename T>
using BitsOf = typename FloatTraits<T>::Bits;

/// All-ones word of T's width (the REL encoder emits inverted words).
template <typename T>
constexpr u64 kOnes = static_cast<BitsOf<T>>(~BitsOf<T>{0});

constexpr double kMagic = 0x1.8p52;  // 1.5 * 2^52

struct AbsConsts {
  double eps, inv, two_eps;
};
struct RelConsts {
  double eps, scale, two_log;
};

// --- lane helpers -----------------------------------------------------------

PFPL_AVX2_INLINE D splat(double x) { return _mm256_set1_pd(x); }
PFPL_AVX2_INLINE I splat64(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
PFPL_AVX2_INLINE I as_int(D x) { return _mm256_castpd_si256(x); }
PFPL_AVX2_INLINE D as_dbl(I x) { return _mm256_castsi256_pd(x); }
PFPL_AVX2_INLINE D select(D mask, D a, D b) { return _mm256_blendv_pd(b, a, mask); }
PFPL_AVX2_INLINE I select(I mask, I a, I b) { return _mm256_blendv_epi8(b, a, mask); }
PFPL_AVX2_INLINE D both(D a, D b) { return _mm256_and_pd(a, b); }
PFPL_AVX2_INLINE D either(D a, D b) { return _mm256_or_pd(a, b); }
PFPL_AVX2_INLINE D a_not_b(D a, D b) { return _mm256_andnot_pd(b, a); }
PFPL_AVX2_INLINE D absval(D x) { return _mm256_andnot_pd(splat(-0.0), x); }
PFPL_AVX2_INLINE D lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
PFPL_AVX2_INLINE D le(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
PFPL_AVX2_INLINE D gt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
PFPL_AVX2_INLINE D ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
PFPL_AVX2_INLINE D eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }

/// Unsigned 64-bit a < b (AVX2 only has the signed compare).
PFPL_AVX2_INLINE I lt_u64(I a, I b) {
  const I flip = splat64(u64{1} << 63);
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, flip), _mm256_xor_si256(a, flip));
}

/// fpmath::round_nearest_even, bit for bit. roundpd rounds to the same
/// integer as the scalar 2^52 add/subtract trick; the trick returns +0.0
/// where roundpd returns -0.0 (x in [-0.5, -0.0]), and adding +0.0 maps that
/// one case, leaving every other result unchanged.
PFPL_AVX2_INLINE D round_ne(D x) {
  return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC) + 0.0;
}

/// Integral double with |x| < 2^51 to its i64 value, exactly.
PFPL_AVX2_INLINE I to_i64(D x) {
  return _mm256_sub_epi64(as_int(x + kMagic), as_int(splat(kMagic)));
}

/// i64 with |n| < 2^51 to double, exactly.
PFPL_AVX2_INLINE D to_f64(I n) {
  return as_dbl(_mm256_add_epi64(n, as_int(splat(kMagic)))) - kMagic;
}

// Loads and stores. IEEE words travel zero-extended in 64-bit lanes.

/// Four values as double lanes (f32 widened exactly) plus their words.
PFPL_AVX2_INLINE D load_values(const float* p, I& bits) {
  const __m128 f = _mm_loadu_ps(p);
  bits = _mm256_cvtepu32_epi64(_mm_castps_si128(f));
  return _mm256_cvtps_pd(f);
}
PFPL_AVX2_INLINE D load_values(const double* p, I& bits) {
  const D v = _mm256_loadu_pd(p);
  bits = as_int(v);
  return v;
}

PFPL_AVX2_INLINE I load_words(const u32* p) {
  return _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
PFPL_AVX2_INLINE I load_words(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Store four words (or value bit patterns) of T's width.
template <typename T>
PFPL_AVX2_INLINE void store_words(void* p, I w) {
  if constexpr (std::is_same_v<T, float>) {
    const I low = _mm256_permutevar8x32_epi32(w, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
    _mm_storeu_si128(static_cast<__m128i*>(p), _mm256_castsi256_si128(low));
  } else {
    _mm256_storeu_si256(static_cast<__m256i*>(p), w);
  }
}

/// static_cast<T>(x), widened back to double.
template <typename T>
PFPL_AVX2_INLINE D to_value(D x) {
  if constexpr (std::is_same_v<T, float>)
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(x));
  else
    return x;
}

/// The IEEE word of static_cast<T>(x).
template <typename T>
PFPL_AVX2_INLINE I value_bits(D x) {
  if constexpr (std::is_same_v<T, float>)
    return _mm256_cvtepu32_epi64(_mm_castps_si128(_mm256_cvtpd_ps(x)));
  else
    return as_int(x);
}

// --- Lanes<G>: G independent 4-lane groups ----------------------------------

/// G groups of four double lanes. Each operator applies one IEEE operation to
/// every group before the caller's next operation starts, so the det_poly
/// templates instantiated for Lanes<G> run G independent Horner chains side
/// by side while every value still sees the scalar operation sequence. Like
/// those templates, the operators carry no target attribute and are always
/// inlined into the target("avx2") kernels.
template <int G>
struct Lanes {
  D g[G];
};

#define PFPL_LANES_OP(op)                                                                     \
  template <int G>                                                                            \
  [[gnu::always_inline]] inline Lanes<G> operator op(const Lanes<G>& a, const Lanes<G>& b) {   \
    Lanes<G> r;                                                                               \
    for (int j = 0; j < G; ++j) r.g[j] = a.g[j] op b.g[j];                                    \
    return r;                                                                                 \
  }                                                                                           \
  template <int G>                                                                            \
  [[gnu::always_inline]] inline Lanes<G> operator op(const Lanes<G>& a, double b) {           \
    Lanes<G> r;                                                                               \
    for (int j = 0; j < G; ++j) r.g[j] = a.g[j] op b;                                         \
    return r;                                                                                 \
  }                                                                                           \
  template <int G>                                                                            \
  [[gnu::always_inline]] inline Lanes<G> operator op(double a, const Lanes<G>& b) {           \
    Lanes<G> r;                                                                               \
    for (int j = 0; j < G; ++j) r.g[j] = a op b.g[j];                                         \
    return r;                                                                                 \
  }
PFPL_LANES_OP(+)
PFPL_LANES_OP(-)
PFPL_LANES_OP(*)
PFPL_LANES_OP(/)
#undef PFPL_LANES_OP

// --- det_log / det_exp lanes (range handling around the shared cores) -------

/// fpmath::det_log for positive finite lanes, bit for bit.
template <int G>
PFPL_AVX2_INLINE Lanes<G> det_log(const Lanes<G>& x) {
  const I zero = _mm256_setzero_si256();
  Lanes<G> m, de, out;
  for (int j = 0; j < G; ++j) {
    const D denormal = as_dbl(_mm256_cmpeq_epi64(_mm256_srli_epi64(as_int(x.g[j]), 52), zero));
    const D xs = select(denormal, x.g[j] * 0x1p54, x.g[j]);
    const D extra = select(denormal, splat(-54.0), splat(0.0));
    const I bits = as_int(xs);
    const D e = to_f64(_mm256_srli_epi64(bits, 52)) - 1023.0 + extra;
    const D mr = as_dbl(_mm256_or_si256(
        _mm256_and_si256(bits, splat64(FloatTraits<double>::mantissa_mask)),
        splat64(0x3FF0000000000000ull)));
    const D big = gt(mr, splat(fpmath::poly::kSqrt2));
    m.g[j] = select(big, mr * 0.5, mr);
    de.g[j] = select(big, e + 1.0, e);
  }
  fpmath::poly::log_reduced(m, de, out);
  return out;
}

/// fpmath::det_exp, bit for bit, on lanes where `in_range` comes back set
/// (2^k is one exact multiply); other lanes must re-run the scalar function.
template <int G>
PFPL_AVX2_INLINE Lanes<G> det_exp(const Lanes<G>& x, Lanes<G>& in_range) {
  Lanes<G> dk, p;
  for (int j = 0; j < G; ++j) {
    dk.g[j] = round_ne(x.g[j] * fpmath::poly::kInvLn2);
    in_range.g[j] = both(ge(dk.g[j], splat(-1021.0)), le(dk.g[j], splat(1023.0)));
  }
  fpmath::poly::exp_reduced(x, dk, p);
  for (int j = 0; j < G; ++j) {
    const I k = to_i64(dk.g[j]);
    p.g[j] = p.g[j] * as_dbl(_mm256_slli_epi64(_mm256_add_epi64(k, splat64(1023)), 52));
  }
  return p;
}

/// Re-run `scalar` for the lanes set in `mask`.
template <typename In, typename Out, typename F>
PFPL_AVX2_INLINE void rerun(D mask, const In* in, Out* out, F scalar) {
  if (int m = _mm256_movemask_pd(mask))
    for (int j = 0; j < 4; ++j)
      if (m >> j & 1) out[j] = scalar(in[j]);
}

// --- ABS/NOA ----------------------------------------------------------------

template <typename T>
PFPL_AVX2 void abs_encode(const AbsQuantizer<T>& q, AbsConsts c, const T* in, BitsOf<T>* out,
                          std::size_t k) {
  const double lim = static_cast<double>(AbsQuantizer<T>::max_bin);
  const D inv = splat(c.inv), two_eps = splat(c.two_eps), eps = splat(c.eps);
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    I b;
    const D v = load_values(in + i, b);
    const D bd = round_ne(v * inv);
    // NaN/inf inputs give NaN/inf bins, which fail the range test.
    const D in_range = both(ge(bd, splat(-lim)), le(bd, splat(lim)));
    const D r = to_value<T>(bd * two_eps);
    // A tie err == eps holds (see the file comment), so le, not lt.
    const D err = absval(v - r);
    const D ok = both(in_range, le(err, eps));
    // bd is integral, never -0.0, and negative exactly when the bin is.
    const I mag = to_i64(absval(bd));
    const I word = _mm256_or_si256(_mm256_slli_epi64(mag, 1), _mm256_srli_epi64(as_int(bd), 63));
    store_words<T>(out + i, select(as_int(ok), word, b));
  }
  for (; i < k; ++i) out[i] = q.encode(in[i]);
}

template <typename T>
PFPL_AVX2 void abs_decode(const AbsQuantizer<T>& q, AbsConsts c, const BitsOf<T>* in, T* out,
                          std::size_t k) {
  const D two_eps = splat(c.two_eps);
  const I one = splat64(1);
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const I w = load_words(in + i);
    const I is_bin = lt_u64(w, splat64(FloatTraits<T>::denormal_limit));
    const D mag = to_f64(_mm256_srli_epi64(w, 1));
    const I neg = _mm256_cmpeq_epi64(_mm256_and_si256(w, one), one);
    // double(-mag) for i64 mag: 0.0 - mag keeps +0.0 for mag == 0.
    const D bin = select(as_dbl(neg), 0.0 - mag, mag);
    const I r = value_bits<T>(bin * two_eps);
    store_words<T>(out + i, select(is_bin, r, w));
  }
  for (; i < k; ++i) out[i] = q.decode(in[i]);
}

// --- REL --------------------------------------------------------------------

/// Groups per REL step, chosen by measurement (EXPERIMENTS.md): G independent
/// Horner chains hide the det_log/det_exp latency, f32 quantize runs ~1.7x
/// faster at G = 4 and ~2.1x at G = 8, and past 8 the kernels are bound by
/// the FP ports instead, so G = 12 gains nothing.
constexpr int kGroups = 8;

/// rel_encode on the 4*G values at `in`: G groups through det_log/det_exp
/// together, then each group's verify, store and fallback on its own.
template <typename T, int G>
PFPL_AVX2_INLINE void rel_encode_step(const RelQuantizer<T>& q, const RelConsts& c, const T* in,
                                      BitsOf<T>* out) {
  using Q = RelQuantizer<T>;
  using FT = FloatTraits<T>;
  const D scale = splat(c.scale);
  const D lo_bin = splat(static_cast<double>(1 - Q::bias));
  const D hi_bin = splat(static_cast<double>(Q::u_max - Q::bias));
  const D bias = splat(static_cast<double>(Q::bias));
  const D inf = splat(fpmath::from_bits<double>(FloatTraits<double>::pos_inf));
  const I sign_mask = splat64(FT::sign_mask), ones = splat64(kOnes<T>);
  const I zero64 = _mm256_setzero_si256();
  const auto scalar = [&q](T v) { return q.encode(v); };
  Lanes<G> av, bd, exp_ok;
  for (int j = 0; j < G; ++j) {
    I b;
    av.g[j] = absval(load_values(in + 4 * j, b));
  }
  const Lanes<G> lg = det_log(av);
  for (int j = 0; j < G; ++j) bd.g[j] = round_ne(lg.g[j] * scale);
  const Lanes<G> rec = det_exp(bd * c.two_log, exp_ok);
  for (int j = 0; j < G; ++j) {
    I b;
    const D v = load_values(in + 4 * j, b), a = av.g[j];
    const D is_nan = _mm256_cmp_pd(v, v, _CMP_UNORD_Q);
    // From the word, as the scalar code does: under DAZ a subnormal == 0.
    const D is_zero = as_dbl(_mm256_cmpeq_epi64(_mm256_andnot_si256(sign_mask, b), zero64));
    const I sign = _mm256_srli_epi64(b, FT::total_bits - 1);
    // NaNs are made positive before the inversion; infinities just inverted.
    const I raw =
        _mm256_xor_si256(select(as_int(is_nan), _mm256_andnot_si256(sign_mask, b), b), ones);
    // Finite nonzero values whose bin is representable.
    const D in_range =
        a_not_b(both(both(lt(a, inf), ge(bd.g[j], lo_bin)), le(bd.g[j], hi_bin)), is_zero);
    const D r = to_value<T>(rec.g[j]);
    // fpmath::rel_bound_holds; an inf r gives d = inf, so p < d or a tie.
    const D lo = _mm256_min_pd(r, a), hi = _mm256_max_pd(a, r);
    const D p = lo * c.eps, d = hi - lo;
    const D ok = gt(p, d);
    const D undecided = either(a_not_b(in_range, exp_ok.g[j]), both(in_range, eq(p, d)));
    const I u = to_i64(bd.g[j] + bias);
    const I word = _mm256_or_si256(_mm256_slli_epi64(u, 1), sign);
    const I res = select(as_int(is_zero), sign, select(as_int(both(in_range, ok)), word, raw));
    store_words<T>(out + 4 * j, res);
    rerun(undecided, in + 4 * j, out + 4 * j, scalar);
  }
}

/// rel_decode on the 4*G words at `in`, grouped as rel_encode_step.
template <typename T, int G>
PFPL_AVX2_INLINE void rel_decode_step(const RelQuantizer<T>& q, const RelConsts& c,
                                      const BitsOf<T>* in, T* out) {
  using Q = RelQuantizer<T>;
  using FT = FloatTraits<T>;
  const D two_log = splat(c.two_log), bias = splat(static_cast<double>(Q::bias));
  const I one = splat64(1), zero = _mm256_setzero_si256(), ones = splat64(kOnes<T>);
  const auto scalar = [&q](BitsOf<T> w) { return q.decode(w); };
  Lanes<G> arg, exp_ok;
  for (int j = 0; j < G; ++j) {
    // double(u - bias): both terms are integers below 2^51, so exact.
    const I u = _mm256_srli_epi64(load_words(in + 4 * j), 1);
    arg.g[j] = (to_f64(u) - bias) * two_log;
  }
  const Lanes<G> mag = det_exp(arg, exp_ok);
  for (int j = 0; j < G; ++j) {
    const I w = load_words(in + 4 * j);
    const I is_bin = lt_u64(w, splat64(FT::denormal_limit - 1));
    const I u_zero = _mm256_cmpeq_epi64(_mm256_srli_epi64(w, 1), zero);
    const I mag_bits = _mm256_andnot_si256(u_zero, value_bits<T>(mag.g[j]));
    const I sign = _mm256_slli_epi64(_mm256_and_si256(w, one), FT::total_bits - 1);
    const I res = _mm256_or_si256(mag_bits, sign);
    store_words<T>(out + 4 * j, select(is_bin, res, _mm256_xor_si256(w, ones)));
    const D undecided = a_not_b(as_dbl(_mm256_andnot_si256(u_zero, is_bin)), exp_ok.g[j]);
    rerun(undecided, in + 4 * j, out + 4 * j, scalar);
  }
}

template <typename T>
PFPL_AVX2 void rel_encode(const RelQuantizer<T>& q, RelConsts c, const T* in, BitsOf<T>* out,
                          std::size_t k) {
  std::size_t i = 0;
  for (; i + 4 * kGroups <= k; i += 4 * kGroups)
    rel_encode_step<T, kGroups>(q, c, in + i, out + i);
  for (; i + 4 <= k; i += 4) rel_encode_step<T, 1>(q, c, in + i, out + i);
  for (; i < k; ++i) out[i] = q.encode(in[i]);
}

template <typename T>
PFPL_AVX2 void rel_decode(const RelQuantizer<T>& q, RelConsts c, const BitsOf<T>* in, T* out,
                          std::size_t k) {
  std::size_t i = 0;
  for (; i + 4 * kGroups <= k; i += 4 * kGroups)
    rel_decode_step<T, kGroups>(q, c, in + i, out + i);
  for (; i + 4 <= k; i += 4) rel_decode_step<T, 1>(q, c, in + i, out + i);
  for (; i < k; ++i) out[i] = q.decode(in[i]);
}

}  // namespace

template <typename Q>
void Kernels::encode(const Q& q, const typename Q::Value* in, typename Q::Bits* out,
                     std::size_t k) {
  using T = typename Q::Value;
  if constexpr (std::is_same_v<Q, AbsQuantizer<T>>) {
    if (q.degenerate_) {  // only exact zeros bin: nothing to vectorise
      for (std::size_t i = 0; i < k; ++i) out[i] = q.encode(in[i]);
      return;
    }
    abs_encode(q, AbsConsts{q.eps_, q.inv_, q.two_eps_}, in, out, k);
  } else {
    rel_encode(q, RelConsts{q.eps_, q.scale_, q.two_log_}, in, out, k);
  }
}

template <typename Q>
void Kernels::decode(const Q& q, const typename Q::Bits* in, typename Q::Value* out,
                     std::size_t k) {
  using T = typename Q::Value;
  if constexpr (std::is_same_v<Q, AbsQuantizer<T>>)
    abs_decode(q, AbsConsts{q.eps_, q.inv_, q.two_eps_}, in, out, k);
  else
    rel_decode(q, RelConsts{q.eps_, q.scale_, q.two_log_}, in, out, k);
}

}  // namespace repro::pfpl::avx2

#else  // no x86: the scalar loops are the only tier

namespace repro::pfpl::avx2 {

template <typename Q>
void Kernels::encode(const Q& q, const typename Q::Value* in, typename Q::Bits* out,
                     std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) out[i] = q.encode(in[i]);
}

template <typename Q>
void Kernels::decode(const Q& q, const typename Q::Bits* in, typename Q::Value* out,
                     std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) out[i] = q.decode(in[i]);
}

}  // namespace repro::pfpl::avx2

#endif

namespace repro::pfpl::avx2 {

template void Kernels::encode(const AbsQuantizer<float>&, const float*, u32*, std::size_t);
template void Kernels::encode(const AbsQuantizer<double>&, const double*, u64*, std::size_t);
template void Kernels::encode(const RelQuantizer<float>&, const float*, u32*, std::size_t);
template void Kernels::encode(const RelQuantizer<double>&, const double*, u64*, std::size_t);
template void Kernels::decode(const AbsQuantizer<float>&, const u32*, float*, std::size_t);
template void Kernels::decode(const AbsQuantizer<double>&, const u64*, double*, std::size_t);
template void Kernels::decode(const RelQuantizer<float>&, const u32*, float*, std::size_t);
template void Kernels::decode(const RelQuantizer<double>&, const u64*, double*, std::size_t);

}  // namespace repro::pfpl::avx2
