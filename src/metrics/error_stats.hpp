// Reconstruction-quality metrics and error-bound verification.
//
// This is the *external* judge used by the test suite and by the Table III
// bound-violation probe: it re-checks every reconstructed value against the
// requested bound, independent of any compressor's internal bookkeeping.
// Each value is judged by fpmath::bound_holds (fpmath/bound.hpp), the exact
// predicate the PFPL quantizers decide their bins with.
//
// PSNR is computed the way lossy-compression papers (and Figure 16) do:
//   PSNR = 20*log10(value_range) - 10*log10(MSE)
// and is always finite so it can flow into JSON artifacts unmodified:
// perfect reconstruction (MSE = 0) reports kPsnrCapDb, and a zero-range
// (constant) field with any error reports 0 dB — the range-based formula is
// undefined there, and the old +inf silently hid real error (the
// `zero_range` flag makes the degenerate case explicit).
#pragma once

#include <cstddef>
#include <span>

#include "common/types.hpp"

namespace repro::metrics {

/// Finite PSNR ceiling reported for exact reconstruction (MSE = 0).
inline constexpr double kPsnrCapDb = 999.0;

struct ErrorStats {
  double max_abs = 0.0;       ///< max |orig - recon| over finite pairs
  double max_rel = 0.0;       ///< max relative error over nonzero finite origs
  double mse = 0.0;           ///< mean squared error over finite pairs
  double psnr = 0.0;          ///< range-based PSNR (dB), always finite:
                              ///< kPsnrCapDb when MSE = 0, 0 when the field
                              ///< is constant (zero range) but MSE > 0
  double value_range = 0.0;   ///< max - min of the finite original values
  bool zero_range = false;    ///< the finite originals span no range
  std::size_t count = 0;      ///< values compared
  std::size_t nonfinite_mismatches = 0;  ///< NaN<->number or inf sign flips
  std::size_t sign_flips = 0;            ///< finite values whose sign flipped
};

ErrorStats compute_stats(std::span<const float> orig, std::span<const float> recon);
ErrorStats compute_stats(std::span<const double> orig, std::span<const double> recon);

/// Count of values violating the given point-wise bound. 0 means the bound
/// held everywhere. `eb` selects the check:
///   ABS: |o - r| <= eps
///   REL: same sign and |o|/(1+eps) <= |r| <= |o|*(1+eps)
///        (zero must reconstruct to zero, NaN to NaN, inf to same-signed inf)
///   NOA: |o - r| <= fl(eps * fpmath::finite_range(o)), the bound the PFPL
///        header stores
/// Each comparison is exact (real-number arithmetic on the IEEE values).
std::size_t count_violations(std::span<const float> orig, std::span<const float> recon,
                             double eps, EbType eb);
std::size_t count_violations(std::span<const double> orig, std::span<const double> recon,
                             double eps, EbType eb);

/// Compression ratio, higher is better (paper Section IV).
inline double compression_ratio(std::size_t uncompressed_bytes, std::size_t compressed_bytes) {
  return compressed_bytes ? static_cast<double>(uncompressed_bytes) /
                                static_cast<double>(compressed_bytes)
                          : 0.0;
}

/// Geometric mean; the paper summarizes per-suite results with nested
/// geometric means (Section IV).
double geomean(std::span<const double> xs);

}  // namespace repro::metrics
