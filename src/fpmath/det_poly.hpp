// The polynomial cores of det_log and det_exp, written once as templates over
// the value type.
//
// det_math.cpp instantiates them for `double`: that is the scalar det_log /
// det_exp every codec path treats as the specification. The quantizer lane
// kernels (core/quantize_lanes.hpp) instantiate them for `Lanes<G>`: G
// independent groups of 4 or 8 double lanes, whose operators apply each IEEE
// operation to all G groups before the next one. Every value therefore runs
// the same sequence of IEEE operations as in the scalar function, by
// construction; the G groups only give the CPU G independent chains to
// overlap. Nothing here may be re-associated or split (no Estrin, no FMA),
// since that would change the rounding. Only the range handling around
// these cores differs between the instantiations.
//
// Results come back through a reference so that no 256-bit vector is passed
// by value across a function without AVX enabled (which would change the
// ABI); the functions are always inlined into their callers.
#pragma once

namespace repro::fpmath::poly {

// ln(2) split into a high part exact in 32 bits and a low correction, so the
// product k * ln2_hi is exact for |k| < 2^20 and argument reduction loses no
// precision.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;   // upper bits of ln 2
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;   // ln 2 - kLn2Hi
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;  // 1 / ln 2
inline constexpr double kSqrt2 = 1.41421356237309514547;

/// e*ln(2) + log(m) for m in (sqrt(2)/2, sqrt(2)] and an integral `de`.
/// log(m) comes from the atanh series
///   log(m) = 2s * (1 + z/3 + z^2/5 + ...),  s = (m-1)/(m+1), z = s^2;
/// |s| <= 0.1716 so 9 terms give < 1e-15 relative error.
template <typename V>
[[gnu::always_inline]] inline void log_reduced(const V& m, const V& de, V& out) {
  const V s = (m - 1.0) / (m + 1.0);
  const V z = s * s;
  V p = z * (1.0 / 17.0) + 1.0 / 15.0;
  p = p * z + 1.0 / 13.0;
  p = p * z + 1.0 / 11.0;
  p = p * z + 1.0 / 9.0;
  p = p * z + 1.0 / 7.0;
  p = p * z + 1.0 / 5.0;
  p = p * z + 1.0 / 3.0;
  p = p * z + 1.0;
  const V log_m = 2.0 * s * p;
  out = de * kLn2Hi + (de * kLn2Lo + log_m);
}

/// exp(x - dk*ln(2)) for dk = round(x / ln 2): the reduced argument r has
/// |r| <= 0.3466, so the 15-term Taylor series reaches < 2e-17.
template <typename V>
[[gnu::always_inline]] inline void exp_reduced(const V& x, const V& dk, V& out) {
  const V r = (x - dk * kLn2Hi) - dk * kLn2Lo;
  V p = r * (1.0 / 1307674368000.0) + 1.0 / 87178291200.0;  // 1/15!, 1/14!
  p = p * r + 1.0 / 6227020800.0;
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  out = p * r + 1.0;
}

}  // namespace repro::fpmath::poly
