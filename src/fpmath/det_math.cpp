#include "fpmath/det_math.hpp"

#include "fpmath/det_poly.hpp"

namespace repro::fpmath {
namespace {

using poly::kInvLn2;
using poly::kSqrt2;
constexpr double kTwo52 = 4503599627370496.0;  // 2^52

}  // namespace

double round_nearest_even(double x) {
  // Adding and subtracting 2^52 forces rounding at the integer position
  // under the IEEE default round-to-nearest-even mode. Values >= 2^52 are
  // already integral.
  if (x >= 0.0) {
    if (x >= kTwo52) return x;
    double t = x + kTwo52;
    return t - kTwo52;
  }
  if (x <= -kTwo52) return x;
  double t = x - kTwo52;
  return t + kTwo52;
}

double det_log(double x) {
  using FT = FloatTraits<double>;
  u64 bits = to_bits(x);
  int extra = 0;
  if (bits < FT::denormal_limit) {
    // Denormal input: scale into the normal range by 2^54 (exact) and
    // compensate in the exponent term.
    x = x * 18014398509481984.0;  // 2^54
    bits = to_bits(x);
    extra = -54;
  }
  int e = static_cast<int>(bits >> FT::mantissa_bits) - 1023 + extra;
  double m = from_bits<double>((bits & FT::mantissa_mask) | 0x3FF0000000000000ull);
  if (m > kSqrt2) {
    m = m * 0.5;
    e += 1;
  }
  double out;
  poly::log_reduced(m, static_cast<double>(e), out);
  return out;
}

double det_log1p(double x) {
  // For x >= 0.1 the direct form's 1+x rounding costs < 2^-53/log(1.1)
  // ~ 1.2e-15 relative error; below that use the atanh series around 0
  // (s <= 0.0477, so six terms reach ~1e-17).
  if (x >= 0.1) return det_log(1.0 + x);
  // log(1+x) = 2 atanh(x / (2 + x)); same series as det_log.
  double s = x / (2.0 + x);
  double z = s * s;
  double p = 1.0 / 11.0;
  p = p * z + 1.0 / 9.0;
  p = p * z + 1.0 / 7.0;
  p = p * z + 1.0 / 5.0;
  p = p * z + 1.0 / 3.0;
  p = p * z + 1.0;
  return 2.0 * s * p;
}

double det_exp(double x) {
  if (x != x) return x;  // NaN: the range tests below would pass it on
  if (x > 709.782712893384) return from_bits<double>(FloatTraits<double>::pos_inf);
  if (x < -745.2) return 0.0;
  // Argument reduction: x = k*ln2 + r, |r| <= ln2/2.
  double dk = round_nearest_even(x * kInvLn2);
  i64 k = static_cast<i64>(dk);
  double p;
  poly::exp_reduced(x, dk, p);
  // Scale by 2^k. For k in the normal-exponent range a single exact multiply
  // suffices; near the denormal boundary split the scaling so intermediate
  // values stay representable.
  if (k >= -1021 && k <= 1023) {
    double scale = from_bits<double>(static_cast<u64>(k + 1023) << 52);
    return p * scale;
  }
  if (k > 1023) {
    // p in [~0.7, ~1.5] so 2^1023 * p can still overflow only if k > 1023.
    double scale = from_bits<double>(static_cast<u64>(2046) << 52);  // 2^1023
    double q = p * scale;
    i64 rem = k - 1023;
    while (rem > 0 && is_finite_bits<double>(to_bits(q))) {
      q = q * 2.0;
      --rem;
    }
    return q;
  }
  // k < -1021: descend into the denormal range in two steps.
  double scale1 = from_bits<double>(static_cast<u64>(-1021 + 1023) << 52);  // 2^-1021
  double q = p * scale1;
  i64 rem = -1021 - k;  // > 0
  // Remaining factor 2^-rem; apply in halving steps (each step is exact or
  // correctly rounded into the denormal range).
  while (rem >= 52) {
    q = q * 2.220446049250313e-16;  // 2^-52, exact scaling while q normal
    rem -= 52;
  }
  if (rem > 0) {
    double scale2 = from_bits<double>(static_cast<u64>(1023 - rem) << 52);
    q = q * scale2;
  }
  return q;
}

}  // namespace repro::fpmath
