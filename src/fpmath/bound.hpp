// The error-bound predicate: one exact check of a reconstruction against the
// point-wise bound (paper Section III-B), in double arithmetic only.
//
// The quantizers decide every bin with it, the SIMD lanes evaluate its fast
// path in lanes, and metrics::count_violations and obs::audit judge streams
// with it. The answer is exact for every double (so for every float, widened)
// and the same on every host: no wider type and no FMA hardware enter it.
// Under FP contraction or FTZ/DAZ a quantizer may store more values
// losslessly, but accepts no violation (the QuantizerBuildFlags test).
//
// Why a few double operations are exact. Rounding is monotone, and the bound
// side of each comparison is a double, so comparing two correctly rounded
// values gives the exact answer unless they compare equal:
//   ABS/NOA  |v - r| <= e:   s = fl(v - r). |s| < e means the exact |v - r|
//            is below e, |s| > e means it is above. Only |s| == e is a tie.
//   REL      |v|/(1+eps) <= r <= |v|(1+eps): with lo, hi = min, max(r, |v|)
//            this is lo(1+eps) >= hi, i.e. lo*eps >= hi - lo. With
//            p = fl(lo*eps) and d = fl(hi - lo), p > d and p < d are exact
//            answers for every eps. Only p == d is a tie.
// On a tie the rounding errors decide, and both are computed exactly: TwoSum
// for a difference, std::fma(lo, eps, -p) for the product. std::fma is exact
// by definition and no contraction flag can change it; ties are rare enough
// that a libm call there costs nothing measurable.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "common/types.hpp"

namespace repro::fpmath {

namespace detail {

/// x * 2^600 for 0 <= x < 2^-300, exactly, also when the CPU flushes
/// subnormal operands to zero (DAZ): a subnormal's bits are its multiple of
/// 2^-1074, converted as an integer.
inline double scale_up(double x) {
  if (x < 0x1p-1022) return static_cast<double>(std::bit_cast<u64>(x)) * 0x1p-474;
  return x * 0x1p600;
}

/// The REL tie p == d: compare the exact rounding errors of lo*eps and
/// hi - lo. Scaling lo and hi by a power of two keeps the answer (the
/// relation is homogeneous in them) and lifts a tiny tie out of the range
/// where those errors could fall below the smallest subnormal.
[[gnu::noinline]] inline bool rel_tie(double lo, double hi, double eps, double p) {
  if (!(hi <= std::numeric_limits<double>::max())) return false;  // r is inf
  // Equal bits, not ==: under DAZ two different subnormals compare equal
  // (and lo > 0 is false for them, which only rejects a bin).
  if (std::bit_cast<u64>(lo) == std::bit_cast<u64>(hi)) return lo > 0;
  double d = p;
  if (p < 0x1p-900) {  // d >= ulp(lo), so hi < 2^-846 and the scaling is exact
    const double x = scale_up(lo), y = scale_up(hi);
    lo = std::min(x, y);  // under DAZ the unscaled min/max may have erred
    hi = std::max(x, y);
    p = lo * eps;
    d = hi - lo;
    if (p != d) return p > d;
  }
  const double ep = std::fma(lo, eps, -p);  // lo*eps - p
  const double ed = (hi - d) - lo;          // (hi - lo) - d: Fast2Sum, hi >= lo
  return ep >= ed;
}

/// The ABS tie |s| == e: the bound holds iff the exact error t of s = v - r
/// does not point away from zero.
[[gnu::noinline]] inline bool abs_tie(double v, double r, double s) {
  if (std::isinf(s)) return true;  // e is inf: every finite pair holds
  const double rr = s - v;
  const double t = (v - (s - rr)) + (-r - rr);  // TwoSum error of v + (-r)
  return s > 0 ? t <= 0 : t >= 0;
}

}  // namespace detail

/// |v - r| <= e, exactly. NaN in v or r gives false.
inline bool abs_bound_holds(double v, double r, double e) {
  const double s = std::fabs(v - r);
  if (s != e) return s < e;
  return detail::abs_tie(v, r, v - r);
}

/// a/(1+eps) <= r <= a*(1+eps), exactly, for a > 0 finite and r >= 0 (r may
/// be inf). NaN in a or r gives false. The SIMD lanes compute the same
/// min, max, product, difference and compare (lo = minpd(r, a),
/// hi = maxpd(a, r)) and send p == d lanes to the scalar encoder.
inline bool rel_bound_holds(double a, double r, double eps) {
  const double lo = r < a ? r : a, hi = a > r ? a : r;
  const double p = lo * eps, d = hi - lo;
  if (p != d) return p > d;
  return detail::rel_tie(lo, hi, eps, p);
}

/// Whether the reconstruction r of a finite value v honours the bound. `e`
/// is the absolute bound for ABS and NOA (the header's recon_param) and eps
/// for REL. REL also demands that zero stays zero and the sign is kept.
inline bool bound_holds(double v, double r, double e, EbType eb) {
  if (eb != EbType::REL) return abs_bound_holds(v, r, e);
  if (v == 0) return r == 0;
  if ((v < 0) != (r < 0) || r == 0) return false;
  return rel_bound_holds(std::fabs(v), std::fabs(r), e);
}

/// The smallest and largest finite value (both 0 when there are none).
struct FiniteRange {
  double min = 0, max = 0;
};

template <typename T>
FiniteRange finite_range(std::span<const T> v) {
  bool any = false;
  T mn{}, mx{};
  for (T x : v) {
    if (!std::isfinite(x)) continue;
    if (!any) {
      mn = mx = x;
      any = true;
    } else {
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
  }
  return any ? FiniteRange{static_cast<double>(mn), static_cast<double>(mx)} : FiniteRange{};
}

/// The NOA bound eps * (max - min) (Section III-A), never rounded up: the
/// range is rounded toward zero, then the product is, each step taking one
/// ulp off a result that rounded up (the TwoSum error of the range, the
/// std::fma residual of the product). When max - min is a double, the result
/// is the largest double <= eps * (max - min). A range that overflows is
/// taken at half scale (the halves of operands that large are exact). The
/// encoder stores this value as recon_param and both verifiers judge against
/// it, so none of them can accept an error the paper's bound forbids.
/// Requires finite min <= max and eps >= 0. Below 2^-968 the residual itself
/// may underflow, so such a product steps down one ulp unconditionally.
inline double noa_bound(double eps, double min, double max) {
  double scale = 1, a = max, b = min, d = a - b;
  if (d > std::numeric_limits<double>::max()) {
    scale = 2, a *= 0.5, b *= 0.5, d = a - b;
  }
  const double bb = d - a;
  if ((a - (d - bb)) - (b + bb) < 0) d = std::nextafter(d, 0.0);  // TwoSum error of a - b
  double p = eps * d;
  if (p < 0x1p-968 || std::fma(eps, d, -p) < 0) p = std::nextafter(p, 0.0);
  return std::min(p * scale, std::numeric_limits<double>::max());
}

template <typename T>
double noa_bound(double eps, std::span<const T> v) {
  const FiniteRange r = finite_range(v);
  return noa_bound(eps, r.min, r.max);
}

}  // namespace repro::fpmath
