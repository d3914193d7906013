// Exact error-bound oracle for the tests, independent of fpmath/bound.hpp.
//
// Every finite double is m * 2^e with an integer m < 2^53. The oracle shifts
// all operands of a bound to a common exponent and compares them as
// integers of up to 4608 bits (72 limbs, carries through unsigned __int128).
// It performs no floating-point arithmetic at all, so no rounding mode,
// contraction, FTZ/DAZ or long double width can change its answers.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace repro::oracle {

/// A nonnegative integer below 2^4608, little-endian 64-bit limbs.
struct Big {
  std::array<u64, 72> limb{};

  /// m * 2^shift.
  static Big shifted(unsigned __int128 m, int shift) {
    Big b;
    const int w = shift / 64, off = shift % 64;
    b.limb[w] = static_cast<u64>(m << off);
    const unsigned __int128 rest = off ? m >> (64 - off) : m >> 64;  // above limb w
    b.limb[w + 1] = static_cast<u64>(rest);
    b.limb[w + 2] = static_cast<u64>(rest >> 64);
    return b;
  }

  friend Big operator+(const Big& a, const Big& b) {
    Big s;
    unsigned __int128 carry = 0;
    for (std::size_t i = 0; i < s.limb.size(); ++i) {
      carry += static_cast<unsigned __int128>(a.limb[i]) + b.limb[i];
      s.limb[i] = static_cast<u64>(carry);
      carry >>= 64;
    }
    return s;
  }

  friend int compare(const Big& a, const Big& b) {
    for (std::size_t i = a.limb.size(); i-- > 0;)
      if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i] ? -1 : 1;
    return 0;
  }
};

/// |x| as m * 2^e, exactly (x finite).
struct Parts {
  u64 m;
  int e;
};
inline Parts parts(double x) {
  const u64 b = std::bit_cast<u64>(x);
  const u64 frac = b & ((u64{1} << 52) - 1);
  const int ef = static_cast<int>((b >> 52) & 0x7FF);
  if (ef == 0) return {frac, -1074};
  return {frac | (u64{1} << 52), ef - 1075};
}

/// The lowest exponent any term below can carry: a product of two subnormals.
constexpr int kBase = -2 * 1074;

/// m * 2^e as a Big at the common scale 2^kBase.
inline Big big(unsigned __int128 m, int e) { return Big::shifted(m, e - kBase); }
inline Big big(double x) {
  const Parts p = parts(x);
  return big(p.m, p.e);
}
/// |x| * |y| exactly.
inline Big product(double x, double y) {
  const Parts a = parts(x), b = parts(y);
  return big(static_cast<unsigned __int128>(a.m) * b.m, a.e + b.e);
}

/// Bit tests, so that DAZ cannot make a subnormal look like zero.
inline bool finite(double x) { return (std::bit_cast<u64>(x) >> 52 & 0x7FF) != 0x7FF; }
inline bool zero(double x) { return (std::bit_cast<u64>(x) << 1) == 0; }

/// |v - r| <= e for finite v, r and a finite e >= 0.
inline bool abs_holds(double v, double r, double e) {
  if (!finite(v) || !finite(r)) return false;
  const Big a = big(v), b = big(r), bound = big(e);
  if (std::signbit(v) != std::signbit(r)) return compare(a + b, bound) <= 0;
  // Same sign: ||v| - |r|| <= e, i.e. |v| <= |r| + e and |r| <= |v| + e.
  return compare(a, b + bound) <= 0 && compare(b, a + bound) <= 0;
}

/// |v|/(1+eps) <= |r| <= |v|*(1+eps), written without division:
/// |r| + |r|*eps >= |v| and |v| + |v|*eps >= |r|. Sign and zero rules as in
/// metrics::count_violations.
inline bool rel_holds(double v, double r, double eps) {
  if (!finite(v) || !finite(r)) return false;
  if (zero(v)) return zero(r);
  if (zero(r) || std::signbit(v) != std::signbit(r)) return false;
  const Big a = big(v), b = big(r);
  return compare(b + product(r, eps), a) >= 0 && compare(a + product(v, eps), b) >= 0;
}

/// The bound of `eb` for finite v: `e` is the absolute bound for ABS and
/// NOA, eps for REL.
inline bool holds(double v, double r, double e, EbType eb) {
  return eb == EbType::REL ? rel_holds(v, r, e) : abs_holds(v, r, e);
}

}  // namespace repro::oracle
