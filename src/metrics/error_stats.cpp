#include "metrics/error_stats.hpp"

#include <algorithm>
#include <cmath>

#include "fpmath/bound.hpp"

namespace repro::metrics {
namespace {

template <typename T>
ErrorStats compute_stats_impl(std::span<const T> orig, std::span<const T> recon) {
  ErrorStats s;
  s.count = orig.size();
  double sum_sq = 0.0;
  std::size_t finite_pairs = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    T o = orig[i];
    T r = i < recon.size() ? recon[i] : T(0);
    if (std::isnan(o)) {
      if (!std::isnan(r)) ++s.nonfinite_mismatches;
      continue;
    }
    if (std::isinf(o)) {
      if (r != o) ++s.nonfinite_mismatches;
      continue;
    }
    if (!std::isfinite(r)) {
      ++s.nonfinite_mismatches;
      continue;
    }
    double d = std::abs(static_cast<double>(o) - static_cast<double>(r));
    s.max_abs = std::max(s.max_abs, d);
    sum_sq += d * d;
    ++finite_pairs;
    if (o != T(0)) s.max_rel = std::max(s.max_rel, d / std::abs(static_cast<double>(o)));
    if ((o > T(0) && r < T(0)) || (o < T(0) && r > T(0))) ++s.sign_flips;
  }
  const fpmath::FiniteRange range = fpmath::finite_range(orig);
  s.value_range = range.max - range.min;
  s.zero_range = s.value_range == 0.0;
  s.mse = finite_pairs ? sum_sq / static_cast<double>(finite_pairs) : 0.0;
  // Always-finite PSNR: exact reconstruction hits the cap; a constant
  // (zero-range) field with real error reports 0 dB instead of the +inf the
  // range-based formula would produce (which used to hide the error).
  if (s.mse <= 0.0) {
    s.psnr = kPsnrCapDb;
  } else if (s.zero_range) {
    s.psnr = 0.0;
  } else {
    s.psnr = std::min(kPsnrCapDb,
                      20.0 * std::log10(s.value_range) - 10.0 * std::log10(s.mse));
  }
  return s;
}

template <typename T>
std::size_t count_violations_impl(std::span<const T> orig, std::span<const T> recon,
                                  double eps, EbType eb) {
  const double bound = eb == EbType::NOA ? fpmath::noa_bound(eps, orig) : eps;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const T o = orig[i];
    const T r = i < recon.size() ? recon[i] : T(0);
    if (std::isnan(o))
      bad += !std::isnan(r);
    else if (std::isinf(o))
      bad += r != o;
    else
      bad += !fpmath::bound_holds(o, r, bound, eb);
  }
  return bad;
}

}  // namespace

ErrorStats compute_stats(std::span<const float> o, std::span<const float> r) {
  return compute_stats_impl(o, r);
}
ErrorStats compute_stats(std::span<const double> o, std::span<const double> r) {
  return compute_stats_impl(o, r);
}

std::size_t count_violations(std::span<const float> o, std::span<const float> r, double eps,
                             EbType eb) {
  return count_violations_impl(o, r, eps, eb);
}
std::size_t count_violations(std::span<const double> o, std::span<const double> r, double eps,
                             EbType eb) {
  return count_violations_impl(o, r, eps, eb);
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

}  // namespace repro::metrics
