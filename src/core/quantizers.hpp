// PFPL lossy quantizers with guaranteed error bounds (paper Section III-A/B).
//
// Each quantizer maps one scalar to one word of the same width. The word is
// either
//   * a bin number, stored inside a reserved region of the IEEE bit-pattern
//     space (positive denormals for ABS/NOA, negative NaNs — emitted
//     bit-inverted — for REL), or
//   * the unmodified IEEE bit pattern of the value ("lossless inline"),
// so the output is a single self-describing stream: no separate outlier list,
// which keeps the transform embarrassingly parallel (Section III-E).
//
// THE GUARANTEE: after computing a candidate bin, the encoder immediately
// decodes it with the exact same arithmetic the decompressor will use and
// checks the reconstruction against the bound with the exact predicate of
// fpmath/bound.hpp (double operations only, the same answer on every host).
// Any value that fails — due to FP rounding, bin-range overflow, NaN/inf, or
// approximation error in the deterministic log/exp — is emitted losslessly.
// The bound therefore holds unconditionally, by construction.
//
// encode()/decode() are the specification. encode_block()/decode_block() run
// them over a slice; from the Avx2 rung up they use the lane kernels of
// quantize_avx2.cpp or, from the Avx512 rung, quantize_avx512.cpp, whose
// every output word equals the per-value word.
#pragma once

// Embedders compile this header with their own flags. Fast math may assume
// no NaNs (the REL bins are NaN patterns) and rewrite the exact re-check.
#if defined(__FAST_MATH__) || (defined(__FINITE_MATH_ONLY__) && __FINITE_MATH_ONLY__)
#error "core/quantizers.hpp needs IEEE semantics: build without -ffast-math and -ffinite-math-only"
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/cpu.hpp"
#include "common/types.hpp"
#include "fpmath/bound.hpp"
#include "fpmath/det_math.hpp"
#include "fpmath/det_poly.hpp"
#include "fpmath/traits.hpp"

namespace repro::pfpl {

// The lane block kernels of the Avx2 and Avx512 rungs (quantize_avx2.cpp,
// quantize_avx512.cpp; one body for both in quantize_lanes.hpp), each
// instantiated for the four quantizer types. Output word i equals
// q.encode(in[i]) (resp. q.decode), bit for bit, for any input; the range
// equals fpmath::finite_range. Call each only at its rung of common::isa()
// or above.
#define PFPL_LANE_KERNELS                                                                  \
  struct Kernels {                                                                         \
    template <typename Q>                                                                  \
    static void encode(const Q& q, const typename Q::Value* in, typename Q::Bits* out,     \
                       std::size_t k);                                                     \
    template <typename Q>                                                                  \
    static void decode(const Q& q, const typename Q::Bits* in, typename Q::Value* out,     \
                       std::size_t k);                                                     \
    template <typename T>                                                                  \
    static fpmath::FiniteRange finite_range(const T* v, std::size_t n);                    \
  }
namespace avx2 {
PFPL_LANE_KERNELS;
}
namespace avx512 {
PFPL_LANE_KERNELS;
}
#undef PFPL_LANE_KERNELS

/// fpmath::finite_range(v), bit for bit, signs of zero included: NOA's plan
/// pass, through the lane kernels from the Avx2 rung up.
template <typename T>
fpmath::FiniteRange finite_range_block(std::span<const T> v) {
  const common::Isa rung = common::isa();
  if (rung >= common::Isa::Avx512) return avx512::Kernels::finite_range(v.data(), v.size());
  if (rung >= common::Isa::Avx2) return avx2::Kernels::finite_range(v.data(), v.size());
  return fpmath::finite_range(v);
}

// ---------------------------------------------------------------------------
// ABS quantizer (also used by NOA with the range-derived bound).
// ---------------------------------------------------------------------------

template <typename T>
class AbsQuantizer {
  using FT = fpmath::FloatTraits<T>;

 public:
  using Value = T;
  using Bits = typename FT::Bits;

  /// `eps` is the point-wise absolute bound. Values of eps below the smallest
  /// positive normal number put the quantizer in degenerate mode where only
  /// exact zeros are binned (paper: "the error bound cannot be less than the
  /// smallest positive non-denormal floating-point value"); everything else
  /// is stored losslessly, which still honours the bound.
  explicit AbsQuantizer(double eps)
      : eps_(eps),
        inv_(0.5 / eps),
        two_eps_(2.0 * eps),
        degenerate_(!(eps >= static_cast<double>(FT::min_normal))) {
    if (!(eps >= 0.0) || !std::isfinite(eps))
      throw CompressionError("ABS error bound must be finite and non-negative");
  }

  /// Largest usable |bin|: the magnitude-sign encoding (|bin|<<1 | sign) must
  /// stay inside the positive-denormal pattern range [0, 2^mantissa_bits).
  static constexpr i64 max_bin = (i64{1} << (FT::mantissa_bits - 1)) - 1;

  Bits encode(T v) const {
    Bits b = fpmath::to_bits(v);
    if (!fpmath::is_finite_bits<T>(b)) return b;  // NaN/inf: lossless inline
    if (degenerate_) return v == T(0) ? Bits{0} : b;
    double bd = fpmath::round_nearest_even(static_cast<double>(v) * inv_);
    if (bd < static_cast<double>(-max_bin) || bd > static_cast<double>(max_bin)) return b;
    i64 bin = static_cast<i64>(bd);
    T r = reconstruct(bin);
    // Immediate decode-verify (the error-bound guarantee).
    if (fpmath::abs_bound_holds(v, r, eps_)) {
      Bits mag = static_cast<Bits>(bin < 0 ? -bin : bin);
      return static_cast<Bits>((mag << 1) | Bits{bin < 0});
    }
    return b;  // unquantizable: store the original bit pattern
  }

  T decode(Bits w) const {
    if (w < FT::denormal_limit) {
      i64 mag = static_cast<i64>(w >> 1);
      return reconstruct((w & 1) ? -mag : mag);
    }
    return fpmath::from_bits<T>(w);
  }

  /// out[i] = encode(in[i]) for i < k.
  void encode_block(const T* in, Bits* out, std::size_t k) const {
    const common::Isa rung = common::isa();
    if (rung >= common::Isa::Avx512) return avx512::Kernels::encode(*this, in, out, k);
    if (rung >= common::Isa::Avx2) return avx2::Kernels::encode(*this, in, out, k);
    for (std::size_t i = 0; i < k; ++i) out[i] = encode(in[i]);
  }

  /// out[i] = decode(in[i]) for i < k.
  void decode_block(const Bits* in, T* out, std::size_t k) const {
    const common::Isa rung = common::isa();
    if (rung >= common::Isa::Avx512) return avx512::Kernels::decode(*this, in, out, k);
    if (rung >= common::Isa::Avx2) return avx2::Kernels::decode(*this, in, out, k);
    for (std::size_t i = 0; i < k; ++i) out[i] = decode(in[i]);
  }

  /// True if a word holds a bin number rather than a raw pattern.
  static bool is_bin(Bits w) { return w < FT::denormal_limit; }

  double eps() const { return eps_; }

 private:
  friend struct avx2::Kernels;
  friend struct avx512::Kernels;

  T reconstruct(i64 bin) const {
    // The decoder performs this exact computation; verifying against it is
    // what makes the guarantee airtight.
    return static_cast<T>(static_cast<double>(bin) * two_eps_);
  }

  double eps_;
  double inv_;
  double two_eps_;
  bool degenerate_;
};

// ---------------------------------------------------------------------------
// REL quantizer: logarithmic-space binning (paper Section III-A).
// ---------------------------------------------------------------------------

/// The margin path of the REL lane kernels (DESIGN.md §8.1): for a finite
/// nonzero value whose t = det_log(|v|) * scale lies within `near` of its bin
/// bd = round(t), with lo <= bd <= hi, the bound check of bin bd provably
/// passes, so the lanes may bin it without det_exp. near < 0: no value.
struct RelMargin {
  double near = -1, lo = 0, hi = -1;
};

template <typename T>
class RelQuantizer {
  using FT = fpmath::FloatTraits<T>;

 public:
  using Value = T;
  using Bits = typename FT::Bits;

  /// Bin u = 0 is reserved for exact zeros; bins are biased so the encoded
  /// magnitude-sign word fits strictly below 2^mantissa_bits - 1 (the last
  /// pattern is ~(-inf) and must stay distinguishable).
  static constexpr i64 bias = i64{1} << (FT::mantissa_bits - 2);
  static constexpr i64 u_max = 2 * bias - 2;

  /// `log1p_eps` is stored in the compressed header so that compressor and
  /// decompressor agree bit-for-bit even if built with different det_log1p
  /// versions; pass the header value when decoding.
  explicit RelQuantizer(double eps) : RelQuantizer(eps, fpmath::det_log1p(eps)) {}

  RelQuantizer(double eps, double log1p_eps)
      : eps_(eps), scale_(0.5 / log1p_eps), two_log_(2.0 * log1p_eps) {
    if (!(eps > 0.0) || !std::isfinite(eps))
      throw CompressionError("REL error bound must be finite and positive");
    if (!(log1p_eps > 0.0) || !std::isfinite(log1p_eps))
      throw CompressionError("REL log1p(eps) must be finite and positive");
    if (log1p_eps == fpmath::det_log1p(eps)) margin_ = make_margin();
  }

  double log1p_eps() const { return two_log_ * 0.5; }

  const RelMargin& margin() const { return margin_; }

  Bits encode(T v) const {
    Bits b = fpmath::to_bits(v);
    if (fpmath::is_nan_bits<T>(b)) {
      // Free up the negative-NaN range: make every NaN positive, then store
      // it losslessly (payload preserved; only the sign is normalized).
      return static_cast<Bits>(~(b & ~FT::sign_mask));
    }
    if (fpmath::is_inf_bits<T>(b)) return static_cast<Bits>(~b);
    Bits sign = (b & FT::sign_mask) ? Bits{1} : Bits{0};
    if ((b & ~FT::sign_mask) == 0) return sign;  // ±0 -> reserved bin u=0
    double av = static_cast<double>(fpmath::from_bits<T>(b & ~FT::sign_mask));
    double bd = fpmath::round_nearest_even(fpmath::det_log(av) * scale_);
    if (bd < static_cast<double>(1 - bias) || bd > static_cast<double>(u_max - bias))
      return static_cast<Bits>(~b);
    i64 bin = static_cast<i64>(bd);
    // Verify |v|/(1+eps) <= r <= |v|*(1+eps); an overflowed r fails.
    if (!fpmath::rel_bound_holds(av, reconstruct_abs(bin), eps_)) return static_cast<Bits>(~b);
    Bits u = static_cast<Bits>(bin + bias);
    return static_cast<Bits>((u << 1) | sign);
  }

  T decode(Bits w) const {
    if (w < FT::denormal_limit - 1) {  // magnitude-sign bin word
      Bits sign = w & 1;
      i64 u = static_cast<i64>(w >> 1);
      T mag = (u == 0) ? T(0) : reconstruct_abs(u - bias);
      Bits mb = fpmath::to_bits(mag);
      return fpmath::from_bits<T>(static_cast<Bits>(mb | (sign ? FT::sign_mask : Bits{0})));
    }
    return fpmath::from_bits<T>(static_cast<Bits>(~w));
  }

  /// out[i] = encode(in[i]) for i < k.
  void encode_block(const T* in, Bits* out, std::size_t k) const {
    const common::Isa rung = common::isa();
    if (rung >= common::Isa::Avx512) return avx512::Kernels::encode(*this, in, out, k);
    if (rung >= common::Isa::Avx2) return avx2::Kernels::encode(*this, in, out, k);
    for (std::size_t i = 0; i < k; ++i) out[i] = encode(in[i]);
  }

  /// out[i] = decode(in[i]) for i < k.
  void decode_block(const Bits* in, T* out, std::size_t k) const {
    const common::Isa rung = common::isa();
    if (rung >= common::Isa::Avx512) return avx512::Kernels::decode(*this, in, out, k);
    if (rung >= common::Isa::Avx2) return avx2::Kernels::decode(*this, in, out, k);
    for (std::size_t i = 0; i < k; ++i) out[i] = decode(in[i]);
  }

  static bool is_bin(Bits w) { return w < FT::denormal_limit - 1; }

  double eps() const { return eps_; }

 private:
  friend struct avx2::Kernels;
  friend struct avx512::Kernels;

  T reconstruct_abs(i64 bin) const {
    return static_cast<T>(fpmath::det_exp(static_cast<double>(bin) * two_log_));
  }

  /// Bin b is guarded when it is a bin of the range, det_exp(b * 2L) scales
  /// by 2^k in one multiply (k in [-1021, 1023]), and its T is normal and
  /// finite. The guarded bins are one interval (DESIGN.md §8.1).
  bool guarded(double b) const {
    if (b < static_cast<double>(1 - bias) || b > static_cast<double>(u_max - bias)) return false;
    const double x = b * two_log_;
    const double k = fpmath::round_nearest_even(x * fpmath::poly::kInvLn2);
    if (k < -1021 || k > 1023) return false;
    const T r = static_cast<T>(fpmath::det_exp(x));
    return r >= FT::min_normal && r <= std::numeric_limits<T>::max();
  }

  /// The guard range's ends, walked from their estimates to the exact last
  /// guarded bins, and the margin m of the proof in DESIGN.md §8.1, every
  /// step rounded up. The path stays off if m >= 0.5 or an end is not found.
  RelMargin make_margin() const {
    const auto up = [](double x) { return std::nextafter(x, HUGE_VAL); };
    // ln of the largest and smallest guarded reconstruction.
    using fpmath::poly::kLn2Hi, fpmath::poly::kLn2Lo;
    const double ln_hi = sizeof(T) == 4 ? fpmath::det_log(std::numeric_limits<T>::max())
                                        : 1023.5 * kLn2Hi + 1023.5 * kLn2Lo;
    const double ln_lo = sizeof(T) == 4 ? fpmath::det_log(FT::min_normal)
                                        : -1021.5 * kLn2Hi - 1021.5 * kLn2Lo;
    const auto clamp = [](double b) {
      return std::clamp(b, static_cast<double>(1 - bias), static_cast<double>(u_max - bias));
    };
    double hi = clamp(fpmath::round_nearest_even(ln_hi * scale_));
    double lo = clamp(fpmath::round_nearest_even(ln_lo * scale_));
    int steps = 8;
    while (steps > 0 && !guarded(hi)) --hi, --steps;
    while (steps > 0 && guarded(hi + 1)) ++hi, --steps;
    while (steps > 0 && !guarded(lo)) ++lo, --steps;
    while (steps > 0 && guarded(lo - 1)) --lo, --steps;
    if (steps == 0 || lo > hi) return {};
    // Lambda bounds |ln|v||, |det_log(|v|)| and |b * 2L| on the margin path.
    const double u = 0x1p-53, ut = sizeof(T) == 4 ? 0x1p-24 : 0x1p-53;
    const double L = two_log_ * 0.5;
    const double lam = up(up(up(std::max(std::fabs(lo), std::fabs(hi)) * two_log_) + L) + 1);
    // 6u*Lambda + 24u + 8u*L + ut*(1 + 2^-20), then / 2L.
    const double err =
        up(up(up(6 * u * lam) + 24 * u) + up(up(8 * u * L) + up(ut * (1 + 0x1p-20))));
    const double m = up(err / two_log_);
    if (!(m < 0.5)) return {};
    return {std::nextafter(0.5 - m, 0.0), lo, hi};
  }

  double eps_;
  double scale_;
  double two_log_;
  RelMargin margin_;
};

}  // namespace repro::pfpl
