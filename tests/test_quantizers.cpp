// Tests for the PFPL quantizers: error-bound guarantee (including adversarial
// and special values), bit-pattern encoding invariants, and round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/quantizers.hpp"
#include "data/rng.hpp"
#include "fpmath/det_math.hpp"

using namespace repro;
using namespace repro::pfpl;
using repro::fpmath::FloatTraits;

namespace {

template <typename T>
void check_abs_bound(T v, double eps) {
  AbsQuantizer<T> q(eps);
  auto w = q.encode(v);
  T r = q.decode(w);
  if (std::isnan(v)) {
    EXPECT_TRUE(std::isnan(r));
    return;
  }
  if (std::isinf(v)) {
    EXPECT_EQ(r, v);
    return;
  }
  using V = VerifyReal<T>;
  V err = static_cast<V>(v) - static_cast<V>(r);
  if (err < 0) err = -err;
  EXPECT_LE(err, static_cast<V>(eps)) << "v=" << v << " r=" << r << " eps=" << eps;
}

template <typename T>
void check_rel_bound(T v, double eps) {
  RelQuantizer<T> q(eps);
  auto w = q.encode(v);
  T r = q.decode(w);
  if (std::isnan(v)) {
    EXPECT_TRUE(std::isnan(r));
    return;
  }
  if (std::isinf(v)) {
    EXPECT_EQ(r, v);
    return;
  }
  if (v == T(0)) {
    EXPECT_EQ(r, T(0));
    return;
  }
  ASSERT_TRUE((v > T(0)) == (r > T(0)) && r != T(0)) << "sign flip: v=" << v << " r=" << r;
  using V = VerifyReal<T>;
  V av = static_cast<V>(v < T(0) ? -v : v);
  V ar = static_cast<V>(r < T(0) ? -r : r);
  V op = V(1) + static_cast<V>(eps);
  EXPECT_TRUE(ar * op >= av && ar <= av * op) << "v=" << v << " r=" << r << " eps=" << eps;
}

template <typename T>
std::vector<T> special_values() {
  using L = std::numeric_limits<T>;
  return {T(0),
          T(-0.0),
          L::quiet_NaN(),
          -L::quiet_NaN(),
          L::infinity(),
          -L::infinity(),
          L::denorm_min(),
          -L::denorm_min(),
          L::min(),
          -L::min(),
          L::max(),
          -L::max(),
          std::nextafter(L::min(), T(0)),   // largest denormal
          std::nextafter(L::min(), T(1)),   // smallest normal + 1 ulp
          T(1),
          T(-1),
          T(3.14159265),
          T(-2.718281828)};
}

}  // namespace

// --- ABS ---------------------------------------------------------------------

TEST(AbsQuantizer, PaperExampleBins) {
  // Paper Figure 2 semantics: eps=0.01 -> bin width 0.02, bin = round(v/0.02).
  AbsQuantizer<float> q(0.01);
  EXPECT_EQ(q.encode(0.0f), 0u);                       // bin 0
  EXPECT_EQ(q.encode(0.02f) >> 1, 1u);                 // bin 1
  EXPECT_EQ(q.encode(-0.02f) & 1u, 1u);                // negative sign bit
  EXPECT_FLOAT_EQ(q.decode(q.encode(0.02f)), 0.02f);   // bin centre
  EXPECT_FLOAT_EQ(q.decode(q.encode(0.021f)), 0.02f);  // same bin
}

TEST(AbsQuantizer, SpecialValuesGuaranteedFloat) {
  for (float v : special_values<float>())
    for (double eps : {1e-1, 1e-2, 1e-3, 1e-4}) check_abs_bound(v, eps);
}

TEST(AbsQuantizer, SpecialValuesGuaranteedDouble) {
  for (double v : special_values<double>())
    for (double eps : {1e-1, 1e-2, 1e-3, 1e-4}) check_abs_bound(v, eps);
}

TEST(AbsQuantizer, RandomValuesGuaranteed) {
  data::Rng rng(21);
  for (int i = 0; i < 100000; ++i) {
    float v = static_cast<float>(rng.gaussian() * std::pow(10.0, rng.uniform(-6, 6)));
    check_abs_bound(v, 1e-3);
  }
}

TEST(AbsQuantizer, RandomBitPatternsGuaranteedFloat) {
  // Adversarial: arbitrary bit patterns (NaNs, denormals, extremes).
  data::Rng rng(22);
  for (int i = 0; i < 200000; ++i) {
    float v = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64()));
    check_abs_bound(v, 1e-3);
  }
}

TEST(AbsQuantizer, RandomBitPatternsGuaranteedDouble) {
  data::Rng rng(23);
  for (int i = 0; i < 100000; ++i) {
    double v = fpmath::from_bits<double>(rng.next_u64());
    check_abs_bound(v, 1e-5);
  }
}

TEST(AbsQuantizer, BinWordsLiveInDenormalRange) {
  AbsQuantizer<float> q(1e-2);
  data::Rng rng(24);
  for (int i = 0; i < 10000; ++i) {
    float v = static_cast<float>(rng.gaussian());
    u32 w = q.encode(v);
    if (AbsQuantizer<float>::is_bin(w)) {
      EXPECT_LT(w, FloatTraits<float>::denormal_limit);
    } else {
      EXPECT_EQ(w, fpmath::to_bits(v));  // lossless words are the raw pattern
    }
  }
}

TEST(AbsQuantizer, DenormalInputsQuantizeToZero) {
  // Paper: "denormals are always quantized to zero" for ABS/NOA, so positive
  // denormal patterns can never appear as lossless words.
  AbsQuantizer<float> q(1e-3);
  for (u32 bits = 1; bits < 1000; ++bits) {
    float v = fpmath::from_bits<float>(bits);
    u32 w = q.encode(v);
    EXPECT_EQ(w, 0u) << bits;  // bin 0
  }
}

TEST(AbsQuantizer, LargeValuesStoredLossless) {
  AbsQuantizer<float> q(1e-3);
  float v = 1e30f;  // bin would exceed the denormal range
  u32 w = q.encode(v);
  EXPECT_FALSE(AbsQuantizer<float>::is_bin(w));
  EXPECT_EQ(q.decode(w), v);
}

TEST(AbsQuantizer, DegenerateEpsilonIsLosslessButValid) {
  AbsQuantizer<float> q(0.0);
  EXPECT_EQ(q.decode(q.encode(1.234f)), 1.234f);
  EXPECT_EQ(q.decode(q.encode(0.0f)), 0.0f);
}

TEST(AbsQuantizer, RejectsInvalidBounds) {
  EXPECT_THROW(AbsQuantizer<float>(-1.0), CompressionError);
  EXPECT_THROW(AbsQuantizer<float>(std::numeric_limits<double>::infinity()),
               CompressionError);
  EXPECT_THROW(AbsQuantizer<float>(std::numeric_limits<double>::quiet_NaN()),
               CompressionError);
}

// --- REL ---------------------------------------------------------------------

TEST(RelQuantizer, SpecialValuesGuaranteedFloat) {
  for (float v : special_values<float>())
    for (double eps : {1e-1, 1e-2, 1e-3, 1e-4}) check_rel_bound(v, eps);
}

TEST(RelQuantizer, SpecialValuesGuaranteedDouble) {
  for (double v : special_values<double>())
    for (double eps : {1e-1, 1e-2, 1e-3, 1e-4}) check_rel_bound(v, eps);
}

TEST(RelQuantizer, RandomValuesGuaranteed) {
  data::Rng rng(31);
  for (int i = 0; i < 100000; ++i) {
    float v = static_cast<float>(rng.gaussian() * std::pow(10.0, rng.uniform(-30, 30)));
    check_rel_bound(v, 1e-2);
  }
}

TEST(RelQuantizer, RandomBitPatternsGuaranteedFloat) {
  data::Rng rng(32);
  for (int i = 0; i < 200000; ++i) {
    float v = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64()));
    check_rel_bound(v, 1e-3);
  }
}

TEST(RelQuantizer, RandomBitPatternsGuaranteedDouble) {
  data::Rng rng(33);
  for (int i = 0; i < 100000; ++i) {
    double v = fpmath::from_bits<double>(rng.next_u64());
    check_rel_bound(v, 1e-4);
  }
}

TEST(RelQuantizer, NegativeNaNsBecomePositive) {
  // Paper Section III-B: the negative NaN range is freed for bin numbers by
  // making all negative NaNs positive.
  RelQuantizer<float> q(1e-2);
  float nnan = fpmath::from_bits<float>(0xFFC00001u);
  float r = q.decode(q.encode(nnan));
  EXPECT_TRUE(std::isnan(r));
  EXPECT_EQ(fpmath::to_bits(r) & FloatTraits<float>::sign_mask, 0u);
}

TEST(RelQuantizer, ZeroKeepsSign) {
  RelQuantizer<float> q(1e-2);
  EXPECT_EQ(fpmath::to_bits(q.decode(q.encode(0.0f))), 0u);
  EXPECT_EQ(fpmath::to_bits(q.decode(q.encode(-0.0f))), 0x80000000u);
}

TEST(RelQuantizer, BinsClusterForCompressibility) {
  // Nearby values map to nearby (or equal) bins — the property the delta
  // stage exploits.
  RelQuantizer<float> q(1e-2);
  u32 w1 = q.encode(100.0f);
  u32 w2 = q.encode(100.5f);
  ASSERT_TRUE(RelQuantizer<float>::is_bin(w1));
  ASSERT_TRUE(RelQuantizer<float>::is_bin(w2));
  EXPECT_LE((w2 >> 1) - (w1 >> 1), 1u);
}

TEST(RelQuantizer, EmittedWordsRespectTheNanRangeEncoding) {
  // Bin words (after the stream-wide inversion) sit strictly below
  // 2^mantissa_bits - 1; inverting them back lands in the negative-NaN
  // pattern range. Lossless words never collide with that range because
  // input NaNs were made positive.
  RelQuantizer<float> q(1e-3);
  data::Rng rng(200);
  for (int i = 0; i < 200000; ++i) {
    float v = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64()));
    u32 w = q.encode(v);
    if (RelQuantizer<float>::is_bin(w)) {
      ASSERT_LT(w, FloatTraits<float>::denormal_limit - 1);
      u32 uninverted = ~w;
      ASSERT_GT(uninverted, 0xFF800000u);  // strictly inside negative NaNs
    } else {
      // Lossless word: the un-inverted pattern must NOT be a negative NaN.
      u32 pattern = ~w;
      ASSERT_FALSE(pattern > 0xFF800000u) << std::hex << pattern;
    }
  }
}

TEST(RelQuantizer, DoubleWideBinsCoverMoreRange) {
  // Double precision has a 2^52-wide NaN range, so magnitudes that overflow
  // the float bin range still quantize in double (paper Section III-B).
  RelQuantizer<double> qd(1e-6);
  u64 w = qd.encode(1e300);
  EXPECT_TRUE(RelQuantizer<double>::is_bin(w));
  double r = qd.decode(w);
  EXPECT_NEAR(r / 1e300, 1.0, 1e-6 * 1.01);
}

TEST(RelQuantizer, RejectsInvalidBounds) {
  EXPECT_THROW(RelQuantizer<float>(0.0), CompressionError);
  EXPECT_THROW(RelQuantizer<float>(-0.5), CompressionError);
}

// --- parameterized sweep: both quantizers across bound magnitudes -----------

class QuantizerSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantizerSweep, AbsBoundHolds) {
  double eps = GetParam();
  data::Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    float v = static_cast<float>(rng.gaussian() * std::pow(10.0, rng.uniform(-4, 4)));
    check_abs_bound(v, eps);
    check_abs_bound(static_cast<double>(v), eps);
  }
}

TEST_P(QuantizerSweep, RelBoundHolds) {
  double eps = GetParam();
  data::Rng rng(102);
  for (int i = 0; i < 20000; ++i) {
    float v = static_cast<float>(rng.gaussian() * std::pow(10.0, rng.uniform(-20, 20)));
    check_rel_bound(v, eps);
    check_rel_bound(static_cast<double>(v), eps);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, QuantizerSweep,
                         ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 0.5, 2.0e-38));

// --- AVX2 tier equivalence ----------------------------------------------------
// The lane kernels must give, word for word, what the scalar encode()/decode()
// give: they are called directly here, so these tests check the AVX2 tier even
// where encode_block() would pick it anyway.

namespace {

#define SKIP_WITHOUT_AVX2() \
  if (!common::has_avx2()) GTEST_SKIP() << "this CPU has no AVX2"

/// Mismatches between the AVX2 tier and the scalar functions over `vals`:
/// encode of every value, and decode of the encoder's words and of the raw
/// input patterns (any word must decode the same way).
template <typename Q>
std::size_t tier_mismatches(const Q& q, const typename Q::Value* vals, std::size_t n,
                            std::string* first = nullptr) {
  using Bits = typename Q::Bits;
  using T = typename Q::Value;
  std::size_t bad = 0;
  auto note = [&](const char* what, Bits in, Bits got, Bits want) {
    if (bad++ == 0 && first) {
      std::ostringstream os;
      os << what << " of 0x" << std::hex << in << ": lanes 0x" << got << ", scalar 0x" << want;
      *first = os.str();
    }
  };
  std::vector<Bits> words(n), raw(n);
  avx2::Kernels::encode(q, vals, words.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    raw[i] = fpmath::to_bits(vals[i]);
    const Bits want = q.encode(vals[i]);
    if (words[i] != want) note("encode", raw[i], words[i], want);
  }
  std::vector<T> dec(n);
  for (const auto* src : {&words, &raw}) {
    avx2::Kernels::decode(q, src->data(), dec.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Bits want = fpmath::to_bits(q.decode((*src)[i]));
      if (fpmath::to_bits(dec[i]) != want)
        note("decode", (*src)[i], fpmath::to_bits(dec[i]), want);
    }
  }
  return bad;
}

template <typename Q>
void expect_tiers_agree(const Q& q, const std::vector<typename Q::Value>& vals,
                        const std::string& what) {
  std::string first;
  EXPECT_EQ(tier_mismatches(q, vals.data(), vals.size(), &first), 0u)
      << what << " (" << vals.size() << " values); first: " << first;
}

/// 2^24 f32 patterns, one per 256: every sign/exponent/high-mantissa
/// combination, with scrambled low bits.
template <typename Q>
void expect_strided_f32_agree(const Q& q, const std::string& what) {
  constexpr u32 kBatch = 1u << 16;
  std::vector<float> vals(kBatch);
  std::size_t bad = 0;
  std::string first;
  for (u32 base = 0; base < (1u << 24); base += kBatch) {
    for (u32 j = 0; j < kBatch; ++j) {
      const u32 i = base + j;
      vals[j] = fpmath::from_bits<float>((i << 8) | ((i * 0x9E3779B1u) >> 24));
    }
    bad += tier_mismatches(q, vals.data(), vals.size(), first.empty() ? &first : nullptr);
  }
  EXPECT_EQ(bad, 0u) << what << "; first: " << first;
}

/// `center` and its `radius` neighbours on each side, both signs.
template <typename T>
void add_window(std::vector<T>& out, T center, int radius = 48) {
  if (!std::isfinite(center)) return;
  T lo = center, hi = center;
  for (int i = 0; i < radius; ++i) {
    lo = std::nextafter(lo, -std::numeric_limits<T>::infinity());
    hi = std::nextafter(hi, std::numeric_limits<T>::infinity());
  }
  for (T v = lo; v <= hi; v = std::nextafter(v, std::numeric_limits<T>::infinity())) {
    out.push_back(v);
    out.push_back(-v);
    if (v == hi) break;
  }
}

/// Bins 0..8, a few hundred random bins, and the bins next to `max`.
std::vector<i64> sample_bins(i64 max, u64 seed) {
  std::vector<i64> bins;
  for (i64 b = 0; b <= 8; ++b) bins.push_back(b);
  for (i64 b = max - 3; b <= max + 2; ++b) bins.push_back(b);
  data::Rng rng(seed);
  for (int i = 0; i < 300; ++i) bins.push_back(static_cast<i64>(rng.next_u64() % u64(max)));
  return bins;
}

/// Windows around the ABS bin edges (2b+-1)*eps and the bin centres.
template <typename T>
std::vector<T> abs_edge_values(double eps) {
  std::vector<T> vals;
  for (i64 b : sample_bins(AbsQuantizer<T>::max_bin, 7)) {
    const double db = static_cast<double>(b);
    add_window(vals, static_cast<T>((2 * db + 1) * eps));
    add_window(vals, static_cast<T>((2 * db - 1) * eps), 8);
    add_window(vals, static_cast<T>(2 * db * eps), 4);
  }
  return vals;
}

/// Windows around the REL bin edges exp((2b+-1) log1p(eps)), the bin
/// reconstructions, and r*(1+eps) and r/(1+eps) (the verifier's edges), for
/// bins across the whole [1-bias, u_max-bias] range.
template <typename T>
std::vector<T> rel_edge_values(double eps) {
  using Q = RelQuantizer<T>;
  const double l = fpmath::det_log1p(eps);
  std::vector<T> vals;
  std::vector<i64> bins;
  for (i64 b : sample_bins(Q::u_max - Q::bias, 8)) {
    bins.push_back(b);
    bins.push_back(-b);
  }
  bins.push_back(1 - Q::bias);
  bins.push_back(2 - Q::bias);
  for (i64 b : bins) {
    const double db = static_cast<double>(b);
    const double r = fpmath::det_exp(2 * db * l);
    add_window(vals, static_cast<T>(fpmath::det_exp((2 * db + 1) * l)), 16);
    add_window(vals, static_cast<T>(r), 4);
    add_window(vals, static_cast<T>(r * (1 + eps)), 16);
    add_window(vals, static_cast<T>(r / (1 + eps)), 16);
  }
  return vals;
}

/// Every special class plus random bit patterns.
template <typename T>
std::vector<T> random_patterns(std::size_t n, u64 seed) {
  using Bits = typename FloatTraits<T>::Bits;
  std::vector<T> vals = special_values<T>();
  data::Rng rng(seed);
  while (vals.size() < n) vals.push_back(fpmath::from_bits<T>(static_cast<Bits>(rng.next_u64())));
  return vals;
}

/// Normal values with exponents within +-e_range of 2^0, random mantissa.
template <typename T>
std::vector<T> random_moderate(std::size_t n, int e_range, u64 seed) {
  using FT = FloatTraits<T>;
  using Bits = typename FT::Bits;
  constexpr Bits exp_bias = (Bits{1} << (FT::exponent_bits - 1)) - 1;
  data::Rng rng(seed);
  std::vector<T> vals(n);
  for (auto& v : vals) {
    const u64 r = rng.next_u64();
    const Bits e = static_cast<Bits>(exp_bias - e_range + r % (2 * e_range + 1));
    const Bits sign = (r >> 20) & 1 ? FT::sign_mask : Bits{0};
    const Bits mant = static_cast<Bits>(rng.next_u64()) & FT::mantissa_mask;
    v = fpmath::from_bits<T>(static_cast<Bits>(sign | (e << FT::mantissa_bits) | mant));
  }
  return vals;
}

}  // namespace

TEST(QuantizerTiers, StridedF32PatternsAbs) {
  SKIP_WITHOUT_AVX2();
  for (double eps : {1e-2, 1e-5})
    expect_strided_f32_agree(AbsQuantizer<float>(eps), "ABS " + std::to_string(eps));
}

TEST(QuantizerTiers, StridedF32PatternsRel) {
  SKIP_WITHOUT_AVX2();
  for (double eps : {1e-2, 1e-5})
    expect_strided_f32_agree(RelQuantizer<float>(eps), "REL " + std::to_string(eps));
}

TEST(QuantizerTiers, RandomPatternsAllBounds) {
  SKIP_WITHOUT_AVX2();
  const auto f32 = random_patterns<float>(1 << 18, 51);
  const auto f64 = random_patterns<double>(1 << 18, 52);
  const auto f32m = random_moderate<float>(1 << 17, 30, 53);
  const auto f64m = random_moderate<double>(1 << 17, 60, 54);
  for (double eps : {0.5, 1e-2, 1e-4, 1e-7, 1e-12}) {
    const std::string tag = std::to_string(eps);
    expect_tiers_agree(AbsQuantizer<float>(eps), f32, "f32 ABS bits " + tag);
    expect_tiers_agree(AbsQuantizer<double>(eps), f64, "f64 ABS bits " + tag);
    expect_tiers_agree(RelQuantizer<float>(eps), f32, "f32 REL bits " + tag);
    expect_tiers_agree(RelQuantizer<double>(eps), f64, "f64 REL bits " + tag);
    expect_tiers_agree(AbsQuantizer<float>(eps), f32m, "f32 ABS moderate " + tag);
    expect_tiers_agree(AbsQuantizer<double>(eps), f64m, "f64 ABS moderate " + tag);
    expect_tiers_agree(RelQuantizer<float>(eps), f32m, "f32 REL moderate " + tag);
    expect_tiers_agree(RelQuantizer<double>(eps), f64m, "f64 REL moderate " + tag);
  }
}

TEST(QuantizerTiers, DegenerateAbsIsScalar) {
  SKIP_WITHOUT_AVX2();
  for (double eps : {0.0, 1e-40}) {
    expect_tiers_agree(AbsQuantizer<float>(eps), random_patterns<float>(1 << 14, 55),
                       "f32 degenerate");
  }
  expect_tiers_agree(AbsQuantizer<double>(1e-310), random_patterns<double>(1 << 14, 56),
                     "f64 degenerate");
}

TEST(QuantizerTiers, AbsBinEdgesAndMaxBin) {
  SKIP_WITHOUT_AVX2();
  for (double eps : {1e-1, 1e-3, 3.7e-6}) {
    expect_tiers_agree(AbsQuantizer<float>(eps), abs_edge_values<float>(eps), "f32 ABS edges");
    expect_tiers_agree(AbsQuantizer<double>(eps), abs_edge_values<double>(eps),
                       "f64 ABS edges");
  }
}

TEST(QuantizerTiers, RelBinEdgesAndUmax) {
  SKIP_WITHOUT_AVX2();
  for (double eps : {1e-1, 1e-3, 3.7e-6}) {
    expect_tiers_agree(RelQuantizer<float>(eps), rel_edge_values<float>(eps), "f32 REL edges");
    expect_tiers_agree(RelQuantizer<double>(eps), rel_edge_values<double>(eps),
                       "f64 REL edges");
  }
}

TEST(QuantizerTiers, RelReconstructionOutsideOneMultiplyRange) {
  // det_exp scales by 2^k in one multiply only for k in [-1021, 1023]; these
  // bins reconstruct outside that range (f64 values near the denormals and
  // near DBL_MAX, f32 bins of a huge bound), so their lanes re-run encode().
  SKIP_WITHOUT_AVX2();
  std::vector<double> f64;
  for (double c : {std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
                   1e-310, 4e-320, 3e-308, std::numeric_limits<double>::max(), 8e307, 1.6e308})
    add_window(f64, c, 64);
  for (double eps : {1e-1, 1e-3, 1e-6})
    expect_tiers_agree(RelQuantizer<double>(eps), f64, "f64 REL extremes");
  const auto f32 = random_patterns<float>(1 << 14, 57);
  for (double eps : {1e30, 1e200})
    expect_tiers_agree(RelQuantizer<float>(eps), f32, "f32 REL huge bound");
}

TEST(QuantizerTiers, F64GuardBandValues) {
  // Values whose long double check is decided within 2^-49 relative: the
  // lanes must hand them to the scalar check. ABS: |v - r| next to eps for
  // the first bins (larger bins have ulp(v) > 2^-49 eps). REL: the windows
  // around r*(1+eps) and r/(1+eps) from rel_edge_values.
  SKIP_WITHOUT_AVX2();
  std::size_t in_band = 0;
  for (double eps : {0.1, 1e-3, 2.5e-7, 7e-200}) {
    AbsQuantizer<double> q(eps);
    std::vector<double> vals;
    for (int b = 0; b <= 4; ++b) {
      add_window(vals, 2 * b * eps + eps, 32);
      add_window(vals, 2 * b * eps - eps, 32);
    }
    for (double v : vals) {
      const long double r = (long double)std::round(v / (2 * eps)) * (2 * eps);
      const long double gap = std::fabs(std::fabs((long double)v - r) - eps);
      if (gap <= std::ldexp((long double)eps, -49)) ++in_band;
    }
    expect_tiers_agree(q, vals, "f64 ABS guard band");
  }
  EXPECT_GT(in_band, 0u);
  for (double eps : {1e-2, 1e-9})
    expect_tiers_agree(RelQuantizer<double>(eps), rel_edge_values<double>(eps),
                       "f64 REL guard band");
}

namespace {

/// Whether the long double REL check of `v` is decided within 2^-49 relative,
/// so that an f64 lane must hand `v` to the scalar check. Bins `v` with the
/// quantizer's own arithmetic.
bool rel_in_guard_band(double eps, double v) {
  const double l = fpmath::det_log1p(eps);
  const double av = std::fabs(v);
  const double bd = fpmath::round_nearest_even(fpmath::det_log(av) * (0.5 / l));
  const long double r = fpmath::det_exp(bd * (2.0 * l));
  const long double op = 1.0L + eps, lv = av, g = std::ldexp(1.0L, -49);
  return std::fabs(r * op - lv) <= lv * g || std::fabs(r - lv * op) <= lv * op * g;
}

}  // namespace

TEST(QuantizerTiers, FallbackLaneAtEveryGroupPosition) {
  // One value a lane cannot decide on its own, or a special value, at every
  // position of a 40-value block of moderate values: it lands in each group
  // of a full step, in the 4-lane remainder and in the scalar tail, and
  // exactly its own lane must take the scalar word.
  SKIP_WITHOUT_AVX2();
  constexpr std::size_t kBlock = 40;
  auto each_position = [](const auto& q, const auto& base, const auto& odd,
                          const std::string& what) {
    for (const auto x : odd)
      for (std::size_t p = 0; p < kBlock; ++p) {
        auto vals = base;
        vals[p] = x;
        expect_tiers_agree(q, vals, what + " at " + std::to_string(p));
      }
  };
  using L64 = std::numeric_limits<double>;
  using L32 = std::numeric_limits<float>;
  const auto f64 = random_moderate<double>(kBlock, 3, 61);
  const auto f32 = random_moderate<float>(kBlock, 3, 62);

  // det_exp outside its one-multiply range: reconstructions near the
  // denormals and near DBL_MAX.
  const std::vector<double> extremes = {1e-310, -1.2e-310, L64::max(), -1.6e308};
  // Values inside the f64 guard band, from the REL edge windows.
  std::vector<double> band;
  for (double v : rel_edge_values<double>(1e-2))
    if (band.size() < 6 && rel_in_guard_band(1e-2, v)) band.push_back(v);
  ASSERT_FALSE(band.empty());
  // f32 at a huge bound: bins sit ~199 binades apart, so the raw pattern of
  // a denormal, read back as a bin word, reconstructs far outside the range.
  const std::vector<float> f32_odd = {fpmath::from_bits<float>(2u),
                                      fpmath::from_bits<float>(0x00654321u),
                                      fpmath::from_bits<float>(0x007FFFFDu)};
  const std::vector<double> specials64 = {L64::quiet_NaN(), -L64::quiet_NaN(), L64::infinity(),
                                          -L64::infinity(), 0.0, -0.0};
  const std::vector<float> specials32 = {L32::quiet_NaN(), -L32::quiet_NaN(), L32::infinity(),
                                         -L32::infinity(), 0.0f, -0.0f};

  each_position(RelQuantizer<double>(1e-3), f64, extremes, "f64 REL extreme");
  each_position(RelQuantizer<double>(1e-2), f64, band, "f64 REL guard band");
  each_position(RelQuantizer<float>(1e30), f32, f32_odd, "f32 REL 1e30");
  each_position(RelQuantizer<double>(1e-3), f64, specials64, "f64 REL special");
  each_position(RelQuantizer<float>(1e-3), f32, specials32, "f32 REL special");
  each_position(RelQuantizer<float>(1e30), f32, specials32, "f32 REL 1e30 special");
}

TEST(QuantizerTiers, BlockLengthsAndUnalignedPointers) {
  SKIP_WITHOUT_AVX2();
  const auto vals = random_moderate<float>(4096 + 8, 3, 58);
  const auto vals64 = random_moderate<double>(4096 + 8, 3, 59);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (std::size_t n = 4093; n <= 4096; ++n) lengths.push_back(n);
  auto run = [&](const auto& q, const auto& src) {
    using Q = std::decay_t<decltype(q)>;
    using Bits = typename Q::Bits;
    using T = typename Q::Value;
    constexpr Bits kSentinel = static_cast<Bits>(0xA5A5A5A5A5A5A5A5ull);
    for (std::size_t n : lengths) {
      for (std::size_t off = 0; off < 4; ++off) {
        const T* in = src.data() + off;
        std::vector<Bits> words(n + 8, kSentinel);
        avx2::Kernels::encode(q, in, words.data() + off, n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(words[off + i], q.encode(in[i])) << "n=" << n << " off=" << off;
        for (std::size_t i = 0; i < off; ++i) ASSERT_EQ(words[i], kSentinel);
        for (std::size_t i = off + n; i < words.size(); ++i) ASSERT_EQ(words[i], kSentinel);
        std::vector<T> back(n + 8, T(-7));
        avx2::Kernels::decode(q, words.data() + off, back.data() + (3 - off), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(fpmath::to_bits(back[3 - off + i]), fpmath::to_bits(q.decode(words[off + i])));
        for (std::size_t i = 3 - off + n; i < back.size(); ++i) ASSERT_EQ(back[i], T(-7));
      }
    }
  };
  run(AbsQuantizer<float>(1e-3), vals);
  run(RelQuantizer<float>(1e-3), vals);
  run(AbsQuantizer<double>(1e-3), vals64);
  run(RelQuantizer<double>(1e-3), vals64);
}

TEST(QuantizerTiers, BlockApiMatchesPerValue) {
  // encode_block()/decode_block() pick a tier at run time; either way the
  // words are the per-value words.
  const auto vals = random_patterns<double>(10007, 60);
  RelQuantizer<double> q(1e-3);
  std::vector<u64> words(vals.size());
  q.encode_block(vals.data(), words.data(), vals.size());
  std::vector<double> back(vals.size());
  q.decode_block(words.data(), back.data(), words.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(words[i], q.encode(vals[i]));
    ASSERT_EQ(fpmath::to_bits(back[i]), fpmath::to_bits(q.decode(words[i])));
  }
}
