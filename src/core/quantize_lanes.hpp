// The quantizer lane kernels, written once for both lane rungs.
//
// quantize_avx2.cpp and quantize_avx512.cpp each include this file after
// defining, in the anonymous namespace of repro::pfpl, their lane vocabulary:
//   * kW lanes per group; D (kW x double), I (kW x 64-bit integer) and M (a
//     lane mask) with the helpers splat, splat64, as_int, as_dbl, lt, le, gt,
//     ge, eq, is_nan, eq64, lt_u64, both, either, a_not_b, select, absval,
//     min_pd, max_pd, round_ne, to_i64, to_f64, add64, shl, shr, lane_bits,
//     lookup16, load_values, load_words, store_words, to_value and
//     value_bits;
//   * PFPL_LANE_FN (target + always_inline) and PFPL_LANE_KERNEL (target);
//   * `tier`, an alias of the rung's namespace (avx2 or avx512).
// Integer lanes also use the bitwise vector operators & | ^ ~ on I (not + or
// -: I has signed elements, and add64 wraps without overflow). So the bodies
// below are compiled once per rung, each with its own width, target and
// intrinsics, and everything here has internal linkage except the rung's
// Kernels members at the bottom.
//
// How the lanes keep the promise that every word equals the scalar word:
//   * Values travel as double lanes. f32 input is widened to double exactly
//     as the scalar path does; IEEE words ride along in 64-bit integer lanes.
//     Branches of the scalar code become lane masks. ABS/NOA run one group
//     per step. REL runs kGroups groups per step as a Lanes<kGroups>, so the
//     long det_log/det_exp Horner chains of the groups overlap; then one
//     group per step for the remainder.
//   * Only IEEE basic operations in the scalar order. The det_log/det_exp
//     polynomials are the very templates the scalar functions use
//     (fpmath/det_poly.hpp), instantiated for Lanes<G>: each operation runs
//     on all G groups before the next, so no value's sequence changes.
//     Functions carry their rung's target and never "fma", and the build's
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
//     plus the k mod kW tail, and every value when the ABS quantizer is in
//     degenerate mode (eps below the smallest normal: only exact zeros bin).
//   * A REL encode step whose in-range lanes all lie inside the quantizer's
//     RelMargin skips det_exp and the check, which provably pass there
//     (DESIGN.md §8.1, "The margin path"); any other step runs them all.
//   * Before that, a REL encode step tries the first pass, a division-free
//     table logarithm within a proven delta of det_log: a step whose lanes
//     all lie within near - delta of a guarded bin stores its words without
//     det_log (DESIGN.md §8.1, "The first pass"); any other step runs as
//     above.
//
// NOA's range pass keeps lane minima and maxima of the finite values. A zero
// end takes the sign of the field's first zero, as fpmath::finite_range's
// strict-order std::min/max do (DESIGN.md §8.1).
#pragma once

#include <algorithm>
#include <limits>
#include <type_traits>

#include "core/quantizers.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include "fpmath/det_poly.hpp"

namespace repro::pfpl {
namespace {

using fpmath::FloatTraits;

template <typename T>
using BitsOf = typename FloatTraits<T>::Bits;

/// All-ones word of T's width (the REL encoder emits inverted words).
template <typename T>
constexpr u64 kOnes = static_cast<BitsOf<T>>(~BitsOf<T>{0});

struct AbsConsts {
  double eps, inv, two_eps;
};
struct RelConsts {
  double eps, scale, two_log;
  RelMargin margin;
};

// --- Lanes<G>: G independent groups ------------------------------------------

/// G groups of kW double lanes. Each operator applies one IEEE operation to
/// every group before the caller's next operation starts, so the det_poly
/// templates instantiated for Lanes<G> run G independent Horner chains side
/// by side while every value still sees the scalar operation sequence. Like
/// those templates, the operators carry no target attribute and are always
/// inlined into the rung's kernels.
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

/// The lane masks of G groups (det_exp's in-range lanes).
template <int G>
struct Masks {
  M g[G];
};

// --- det_log / det_exp lanes (range handling around the shared cores) -------

/// fpmath::det_log for positive finite lanes, bit for bit.
template <int G>
PFPL_LANE_FN Lanes<G> det_log(const Lanes<G>& x) {
  const I zero = splat64(0);
  Lanes<G> m, de, out;
  for (int j = 0; j < G; ++j) {
    const M denormal = eq64(shr(as_int(x.g[j]), 52), zero);
    const D xs = select(denormal, x.g[j] * 0x1p54, x.g[j]);
    const D extra = select(denormal, splat(-54.0), splat(0.0));
    const I bits = as_int(xs);
    const D e = to_f64(shr(bits, 52)) - 1023.0 + extra;
    const D mr = as_dbl((bits & splat64(FloatTraits<double>::mantissa_mask)) |
                        splat64(0x3FF0000000000000ull));
    const M big = gt(mr, splat(fpmath::poly::kSqrt2));
    m.g[j] = select(big, mr * 0.5, mr);
    de.g[j] = select(big, e + 1.0, e);
  }
  fpmath::poly::log_reduced(m, de, out);
  return out;
}

/// fpmath::det_exp, bit for bit, on lanes where `in_range` comes back set
/// (2^k is one exact multiply); other lanes must re-run the scalar function.
template <int G>
PFPL_LANE_FN Lanes<G> det_exp(const Lanes<G>& x, Masks<G>& in_range) {
  Lanes<G> dk, p;
  for (int j = 0; j < G; ++j) {
    dk.g[j] = round_ne(x.g[j] * fpmath::poly::kInvLn2);
    in_range.g[j] = both(ge(dk.g[j], splat(-1021.0)), le(dk.g[j], splat(1023.0)));
  }
  fpmath::poly::exp_reduced(x, dk, p);
  for (int j = 0; j < G; ++j)
    p.g[j] = p.g[j] * as_dbl(shl(add64(to_i64(dk.g[j]), splat64(1023)), 52));
  return p;
}

/// Re-run `scalar` for the lanes set in `mask`.
template <typename In, typename Out, typename F>
PFPL_LANE_FN void rerun(M mask, const In* in, Out* out, F scalar) {
  if (unsigned m = lane_bits(mask))
    for (int j = 0; j < kW; ++j)
      if (m >> j & 1) out[j] = scalar(in[j]);
}

// --- ABS/NOA ----------------------------------------------------------------

template <typename T>
PFPL_LANE_KERNEL void abs_encode(const AbsQuantizer<T>& q, AbsConsts c, const T* in,
                                 BitsOf<T>* out, std::size_t k) {
  const double lim = static_cast<double>(AbsQuantizer<T>::max_bin);
  const D inv = splat(c.inv), two_eps = splat(c.two_eps), eps = splat(c.eps);
  std::size_t i = 0;
  for (; i + kW <= k; i += kW) {
    I b;
    const D v = load_values(in + i, b);
    const D bd = round_ne(v * inv);
    // NaN/inf inputs give NaN/inf bins, which fail the range test.
    const M in_range = both(ge(bd, splat(-lim)), le(bd, splat(lim)));
    const D r = to_value<T>(bd * two_eps);
    // A tie err == eps holds (see the file comment), so le, not lt.
    const D err = absval(v - r);
    const M ok = both(in_range, le(err, eps));
    // bd is integral, never -0.0, and negative exactly when the bin is.
    const I mag = to_i64(absval(bd));
    const I word = shl(mag, 1) | shr(as_int(bd), 63);
    store_words<T>(out + i, select(ok, word, b));
  }
  for (; i < k; ++i) out[i] = q.encode(in[i]);
}

template <typename T>
PFPL_LANE_KERNEL void abs_decode(const AbsQuantizer<T>& q, AbsConsts c, const BitsOf<T>* in,
                                 T* out, std::size_t k) {
  const D two_eps = splat(c.two_eps);
  const I one = splat64(1);
  std::size_t i = 0;
  for (; i + kW <= k; i += kW) {
    const I w = load_words(in + i);
    const M is_bin = lt_u64(w, splat64(FloatTraits<T>::denormal_limit));
    const D mag = to_f64(shr(w, 1));
    const M neg = eq64(w & one, one);
    // double(-mag) for i64 mag: 0.0 - mag keeps +0.0 for mag == 0.
    const D bin = select(neg, 0.0 - mag, mag);
    const I r = value_bits<T>(bin * two_eps);
    store_words<T>(out + i, select(is_bin, r, w));
  }
  for (; i < k; ++i) out[i] = q.decode(in[i]);
}

// --- REL --------------------------------------------------------------------

/// Groups per REL step, chosen by measurement (EXPERIMENTS.md): G independent
/// Horner chains hide the det_log/det_exp latency. At the Avx2 rung f32
/// quantize runs ~1.7x faster at G = 4 and ~2.1x at G = 8, and past 8 the
/// kernels are bound by the FP ports instead, so G = 12 gains nothing. The
/// Avx512 rung does twice the work per operation at the same G.
constexpr int kGroups = 8;

/// The REL lanes that may bin: finite nonzero values whose bin bd is
/// representable. Zero is read from the word `b`, as the scalar code does:
/// under DAZ a subnormal == 0.
template <typename T>
PFPL_LANE_FN M rel_in_range(D a, D bd, I b) {
  using Q = RelQuantizer<T>;
  const D inf = splat(fpmath::from_bits<double>(FloatTraits<double>::pos_inf));
  const M is_zero = eq64(~splat64(FloatTraits<T>::sign_mask) & b, splat64(0));
  return a_not_b(both(both(lt(a, inf), ge(bd, splat(static_cast<double>(1 - Q::bias)))),
                      le(bd, splat(static_cast<double>(Q::u_max - Q::bias)))),
                 is_zero);
}

/// rel_encode on the kW*G values at `in`: G groups through det_log together.
/// With kMargin, every lane's range and margin test follows, and when each
/// in-range lane of the step lies inside the margin (DESIGN.md §8.1, "The
/// margin path") the step stores the bins as they are. Otherwise the G
/// groups run det_exp together, and each group's verify, store and fallback
/// follow on its own.
template <typename T, int G, bool kMargin>
PFPL_LANE_FN void rel_encode_step(const RelQuantizer<T>& q, const RelConsts& c, const T* in,
                                  BitsOf<T>* out) {
  using Q = RelQuantizer<T>;
  using FT = FloatTraits<T>;
  const D scale = splat(c.scale);
  const D near = splat(c.margin.near), guard_lo = splat(c.margin.lo), guard_hi = splat(c.margin.hi);
  const D bias = splat(static_cast<double>(Q::bias));
  const I sign_mask = splat64(FT::sign_mask), ones = splat64(kOnes<T>);
  const I zero64 = splat64(0);
  const auto scalar = [&q](T v) { return q.encode(v); };
  Lanes<G> av, bd;
  for (int j = 0; j < G; ++j) {
    I b;
    av.g[j] = absval(load_values(in + kW * j, b));
  }
  const Lanes<G> lg = det_log(av);
  unsigned checked = !kMargin;  // in-range lanes outside the margin
  for (int j = 0; j < G; ++j) {
    const D t = lg.g[j] * scale;
    bd.g[j] = round_ne(t);
    if constexpr (kMargin) {
      I b;
      load_values(in + kW * j, b);
      // t - bd is exact (Sterbenz, or bd == 0).
      const M margin = both(le(absval(t - bd.g[j]), near),
                            both(ge(bd.g[j], guard_lo), le(bd.g[j], guard_hi)));
      checked |= lane_bits(a_not_b(rel_in_range<T>(av.g[j], bd.g[j], b), margin));
    }
  }
  Lanes<G> rec;
  Masks<G> exp_ok;
  if (checked) rec = det_exp(bd * c.two_log, exp_ok);
  for (int j = 0; j < G; ++j) {
    I b;
    const D v = load_values(in + kW * j, b), a = av.g[j];
    // From the word, as the scalar code does: under DAZ a subnormal == 0.
    const M is_zero = eq64(~sign_mask & b, zero64);
    const I sign = shr(b, FT::total_bits - 1);
    // NaNs are made positive before the inversion; infinities just inverted.
    const I raw = select(is_nan(v), ~sign_mask & b, b) ^ ones;
    const I word = shl(to_i64(bd.g[j] + bias), 1) | sign;
    const M in_range = rel_in_range<T>(a, bd.g[j], b);
    if (!checked) {
      store_words<T>(out + kW * j, select(is_zero, sign, select(in_range, word, raw)));
      continue;
    }
    const D r = to_value<T>(rec.g[j]);
    // fpmath::rel_bound_holds; an inf r gives d = inf, so p < d or a tie.
    const D lo = min_pd(r, a), hi = max_pd(a, r);
    const D p = lo * c.eps, d = hi - lo;
    const M ok = gt(p, d);
    const M undecided = either(a_not_b(in_range, exp_ok.g[j]), both(in_range, eq(p, d)));
    store_words<T>(out + kW * j, select(is_zero, sign, select(both(in_range, ok), word, raw)));
    rerun(undecided, in + kW * j, out + kW * j, scalar);
  }
}

/// The first pass over the kW*G values at `in` (DESIGN.md §8.1, "The first
/// pass"): a lane is decided when its double is normal and finite and its
/// division-free t1 lies within margin.first of bd1 = round(t1), a guarded
/// bin. Then bd1 is the bin encode() verifies and keeps. Zero, NaN and +-inf
/// lanes are decided with their usual words. Stores the step's words and
/// returns true when every lane is decided; otherwise stores nothing.
template <typename T, int G>
PFPL_LANE_FN bool rel_first_step(const RelConsts& c, const T* in, BitsOf<T>* out) {
  using Q = RelQuantizer<T>;
  using FT = FloatTraits<T>;
  const D scale = splat(c.scale), first = splat(c.margin.first);
  const D guard_lo = splat(c.margin.lo), guard_hi = splat(c.margin.hi);
  const D bias = splat(static_cast<double>(Q::bias));
  const D inf = splat(fpmath::from_bits<double>(FloatTraits<double>::pos_inf));
  const D e_lo = splat(-1023.0), e_hi = splat(1024.0);
  const I sign_mask = splat64(FT::sign_mask), ones = splat64(kOnes<T>), zero64 = splat64(0);
  Lanes<G> m, rc, nlc, e, l1;
  for (int j = 0; j < G; ++j) {
    I b;
    const I a = as_int(absval(load_values(in + kW * j, b)));
    e.g[j] = to_f64(shr(a, 52)) - 1023.0;
    m.g[j] = as_dbl((a & splat64(FloatTraits<double>::mantissa_mask)) |
                    splat64(0x3FF0000000000000ull));
    rc.g[j] = lookup16(first_pass::kRecip, shr(a, 48));
    nlc.g[j] = lookup16(first_pass::kNegLogRecip, shr(a, 48));
  }
  first_pass::log_reduced(m, rc, nlc, e, l1);
  I words[G];
  M ok[G];
  unsigned missed = 0;
  for (int j = 0; j < G; ++j) {
    I b;
    load_values(in + kW * j, b);
    const D t = l1.g[j] * scale, bd = round_ne(t);
    // t - bd is exact, as on the margin path. Neither a zero or subnormal
    // double (e = -1023) nor an inf or NaN (e = 1024) is decided: at large
    // bounds their t1 can round to a guarded bin.
    ok[j] = both(both(le(absval(t - bd), first), both(ge(bd, guard_lo), le(bd, guard_hi))),
                 both(gt(e.g[j], e_lo), lt(e.g[j], e_hi)));
    missed |= ~lane_bits(ok[j]) & ((1u << kW) - 1);
    words[j] = shl(to_i64(bd + bias), 1) | shr(b, FT::total_bits - 1);
  }
  // Any other lane must be a zero, NaN or +-inf, which keeps its usual word.
  for (int j = 0; missed && j < G; ++j) {
    I b;
    const D v = load_values(in + kW * j, b);
    const M is_zero = eq64(~sign_mask & b, zero64);
    if (lane_bits(a_not_b(a_not_b(lt(absval(v), inf), is_zero), ok[j]))) return false;
    const I raw = select(is_nan(v), ~sign_mask & b, b) ^ ones;
    words[j] = select(ok[j], words[j], select(is_zero, shr(b, FT::total_bits - 1), raw));
  }
  for (int j = 0; j < G; ++j) store_words<T>(out + kW * j, words[j]);
  return true;
}

/// rel_decode on the kW*G words at `in`, grouped as rel_encode_step.
template <typename T, int G>
PFPL_LANE_FN void rel_decode_step(const RelQuantizer<T>& q, const RelConsts& c,
                                  const BitsOf<T>* in, T* out) {
  using Q = RelQuantizer<T>;
  using FT = FloatTraits<T>;
  const D two_log = splat(c.two_log), bias = splat(static_cast<double>(Q::bias));
  const I one = splat64(1), zero = splat64(0), ones = splat64(kOnes<T>);
  const auto scalar = [&q](BitsOf<T> w) { return q.decode(w); };
  Lanes<G> arg;
  Masks<G> exp_ok;
  for (int j = 0; j < G; ++j) {
    // double(u - bias): both terms are integers below 2^51, so exact.
    const I u = shr(load_words(in + kW * j), 1);
    arg.g[j] = (to_f64(u) - bias) * two_log;
  }
  const Lanes<G> mag = det_exp(arg, exp_ok);
  for (int j = 0; j < G; ++j) {
    const I w = load_words(in + kW * j);
    const M is_bin = lt_u64(w, splat64(FT::denormal_limit - 1));
    const M u_zero = eq64(shr(w, 1), zero);
    const I mag_bits = select(u_zero, zero, value_bits<T>(mag.g[j]));
    const I sign = shl(w & one, FT::total_bits - 1);
    store_words<T>(out + kW * j, select(is_bin, mag_bits | sign, w ^ ones));
    const M undecided = a_not_b(a_not_b(is_bin, u_zero), exp_ok.g[j]);
    rerun(undecided, in + kW * j, out + kW * j, scalar);
  }
}

/// With kFirst, each step tries the first pass and runs rel_encode_step only
/// when a lane is left undecided. Each path is its own aligned function:
/// inlined side by side into rel_encode they slowed the margin path by 3-5%.
template <typename T, bool kMargin, bool kFirst>
PFPL_LANE_KERNEL void rel_encode_steps(const RelQuantizer<T>& q, const RelConsts& c, const T* in,
                                       BitsOf<T>* out, std::size_t k) {
  std::size_t i = 0;
  for (; i + kW * kGroups <= k; i += kW * kGroups)
    if (!kFirst || !rel_first_step<T, kGroups>(c, in + i, out + i))
      rel_encode_step<T, kGroups, kMargin>(q, c, in + i, out + i);
  for (; i + kW <= k; i += kW)
    if (!kFirst || !rel_first_step<T, 1>(c, in + i, out + i))
      rel_encode_step<T, 1, kMargin>(q, c, in + i, out + i);
  for (; i < k; ++i) out[i] = q.encode(in[i]);
}

/// The margin test costs 7-15% of a step that runs det_exp anyway
/// (EXPERIMENTS.md), so it runs only where a step often skips det_exp: with
/// t's fraction spread evenly, while a full step holds at most one lane
/// outside the margin on average (2m * kW * kGroups <= 1, m = 0.5 - near).
/// That keeps f32 at eps 1e-5 (m = 0.003) on it at both rungs, and f32 at
/// 1e-7 (m = 0.3), where nearly every step runs det_exp, off it. The first
/// pass runs under the same rule with m + delta (0.5 - first), which keeps
/// f64 at 1e-7 (delta = 0.032) on the margin path alone: there, adding the
/// first pass or dropping the margin path made f64 encode 0.65-0.74x as fast.
template <typename T>
PFPL_LANE_KERNEL void rel_encode(const RelQuantizer<T>& q, RelConsts c, const T* in,
                                 BitsOf<T>* out, std::size_t k) {
  const auto sparse = [](double near) {
    return near >= 0 && 2 * (0.5 - near) * kW * kGroups <= 1;
  };
  if (sparse(c.margin.first))
    rel_encode_steps<T, true, true>(q, c, in, out, k);
  else if (sparse(c.margin.near))
    rel_encode_steps<T, true, false>(q, c, in, out, k);
  else
    rel_encode_steps<T, false, false>(q, c, in, out, k);
}

template <typename T>
PFPL_LANE_KERNEL void rel_decode(const RelQuantizer<T>& q, RelConsts c, const BitsOf<T>* in,
                                 T* out, std::size_t k) {
  std::size_t i = 0;
  for (; i + kW * kGroups <= k; i += kW * kGroups)
    rel_decode_step<T, kGroups>(q, c, in + i, out + i);
  for (; i + kW <= k; i += kW) rel_decode_step<T, 1>(q, c, in + i, out + i);
  for (; i < k; ++i) out[i] = q.decode(in[i]);
}

// --- NOA range ----------------------------------------------------------------

/// Groups of lanes with their own min/max chains.
constexpr int kRangeGroups = 4;

template <typename T>
PFPL_LANE_KERNEL fpmath::FiniteRange range_lanes(const T* v, std::size_t n) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  D lo[kRangeGroups], hi[kRangeGroups];
  for (int j = 0; j < kRangeGroups; ++j) lo[j] = splat(inf), hi[j] = splat(-inf);
  std::size_t i = 0;
  // A field streams from memory once: prefetching 4 KiB ahead makes the
  // pass 10-23% faster on fields of 4-8 MB (EXPERIMENTS.md).
  constexpr std::size_t kAhead = 4096 / sizeof(T);
  for (; i + kW * kRangeGroups <= n; i += kW * kRangeGroups) {
    if (i + kAhead < n) __builtin_prefetch(v + i + kAhead);
    for (int j = 0; j < kRangeGroups; ++j) {
      I b;
      const D x = load_values(v + i + kW * j, b);
      const M finite = lt(absval(x), splat(inf));  // NaN fails it too
      lo[j] = min_pd(lo[j], select(finite, x, splat(inf)));
      hi[j] = max_pd(hi[j], select(finite, x, splat(-inf)));
    }
  }
  for (int j = 1; j < kRangeGroups; ++j)
    lo[0] = min_pd(lo[0], lo[j]), hi[0] = max_pd(hi[0], hi[j]);
  double l[kW], h[kW], mn = inf, mx = -inf;
  store_words<double>(l, as_int(lo[0]));
  store_words<double>(h, as_int(hi[0]));
  for (int j = 0; j < kW; ++j) mn = std::min(mn, l[j]), mx = std::max(mx, h[j]);
  for (; i < n; ++i)
    if (std::isfinite(v[i])) mn = std::min<double>(mn, v[i]), mx = std::max<double>(mx, v[i]);
  if (mn > mx) return {};  // no finite value
  if (mn == 0 || mx == 0) {
    const double first_zero = *std::find(v, v + n, T{0});
    if (mn == 0) mn = first_zero;
    if (mx == 0) mx = first_zero;
  }
  return {mn, mx};
}

}  // namespace
}  // namespace repro::pfpl

#endif

namespace repro::pfpl {

template <typename T>
fpmath::FiniteRange tier::Kernels::finite_range(const T* v, std::size_t n) {
#if defined(__x86_64__) || defined(__i386__)
  return range_lanes(v, n);
#endif
  return fpmath::finite_range(std::span<const T>(v, n));
}

template <typename Q>
void tier::Kernels::encode(const Q& q, const typename Q::Value* in, typename Q::Bits* out,
                           std::size_t k) {
#if defined(__x86_64__) || defined(__i386__)
  using T = typename Q::Value;
  if constexpr (std::is_same_v<Q, RelQuantizer<T>>)
    return rel_encode(q, RelConsts{q.eps_, q.scale_, q.two_log_, q.margin_}, in, out, k);
  else if (!q.degenerate_)  // in degenerate mode only exact zeros bin: nothing to vectorise
    return abs_encode(q, AbsConsts{q.eps_, q.inv_, q.two_eps_}, in, out, k);
#endif
  for (std::size_t i = 0; i < k; ++i) out[i] = q.encode(in[i]);
}

template <typename Q>
void tier::Kernels::decode(const Q& q, const typename Q::Bits* in, typename Q::Value* out,
                           std::size_t k) {
#if defined(__x86_64__) || defined(__i386__)
  using T = typename Q::Value;
  if constexpr (std::is_same_v<Q, AbsQuantizer<T>>)
    return abs_decode(q, AbsConsts{q.eps_, q.inv_, q.two_eps_}, in, out, k);
  else
    return rel_decode(q, RelConsts{q.eps_, q.scale_, q.two_log_, {}}, in, out, k);
#endif
  for (std::size_t i = 0; i < k; ++i) out[i] = q.decode(in[i]);
}

#define PFPL_LANE_INSTANCES(Q, T, W)                                             \
  template void tier::Kernels::encode(const Q<T>&, const T*, W*, std::size_t); \
  template void tier::Kernels::decode(const Q<T>&, const W*, T*, std::size_t);
PFPL_LANE_INSTANCES(AbsQuantizer, float, u32)
PFPL_LANE_INSTANCES(AbsQuantizer, double, u64)
PFPL_LANE_INSTANCES(RelQuantizer, float, u32)
PFPL_LANE_INSTANCES(RelQuantizer, double, u64)
#undef PFPL_LANE_INSTANCES
template fpmath::FiniteRange tier::Kernels::finite_range(const float*, std::size_t);
template fpmath::FiniteRange tier::Kernels::finite_range(const double*, std::size_t);

}  // namespace repro::pfpl
