// Tests for the PFPL quantizers: error-bound guarantee (including adversarial
// and special values), bit-pattern encoding invariants, and round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bound_oracle.hpp"
#include "core/quantizers.hpp"
#include "data/rng.hpp"
#include "fpmath/det_math.hpp"
#include "tiers.hpp"

using namespace repro;
using namespace repro::pfpl;
using repro::fpmath::FloatTraits;
using repro::tiers::for_each_rung;
using Isa = repro::common::Isa;

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
  EXPECT_TRUE(oracle::abs_holds(v, r, eps)) << "v=" << v << " r=" << r << " eps=" << eps;
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
  EXPECT_TRUE(oracle::rel_holds(v, r, eps)) << "v=" << v << " r=" << r << " eps=" << eps;
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

// --- SIMD tier equivalence ----------------------------------------------------
// encode_block()/decode_block() run the lane kernels from the Avx2 rung up;
// at each such rung (tests/tiers.hpp) they must give, word for word, what the
// scalar encode()/decode() give.

namespace {

/// Mismatches between encode_block()/decode_block() at the rung in force and
/// the scalar functions over `vals`: encode of every value, and decode of the
/// encoder's words and of the raw input patterns (any word must decode the
/// same way).
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
  q.encode_block(vals, words.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    raw[i] = fpmath::to_bits(vals[i]);
    const Bits want = q.encode(vals[i]);
    if (words[i] != want) note("encode", raw[i], words[i], want);
  }
  std::vector<T> dec(n);
  for (const auto* src : {&words, &raw}) {
    q.decode_block(src->data(), dec.data(), n);
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
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-2, 1e-5})
      expect_strided_f32_agree(AbsQuantizer<float>(eps), "ABS " + std::to_string(eps));
  });
}

TEST(QuantizerTiers, StridedF32PatternsRel) {
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-2, 1e-5})
      expect_strided_f32_agree(RelQuantizer<float>(eps), "REL " + std::to_string(eps));
  });
}

TEST(QuantizerTiers, RandomPatternsAllBounds) {
  for_each_rung(Isa::Avx2, [&] {
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
  });
}

TEST(QuantizerTiers, DegenerateAbsIsScalar) {
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {0.0, 1e-40}) {
      expect_tiers_agree(AbsQuantizer<float>(eps), random_patterns<float>(1 << 14, 55),
                         "f32 degenerate");
    }
    expect_tiers_agree(AbsQuantizer<double>(1e-310), random_patterns<double>(1 << 14, 56),
                       "f64 degenerate");
  });
}

TEST(QuantizerTiers, AbsBinEdgesAndMaxBin) {
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-1, 1e-3, 3.7e-6}) {
      expect_tiers_agree(AbsQuantizer<float>(eps), abs_edge_values<float>(eps), "f32 ABS edges");
      expect_tiers_agree(AbsQuantizer<double>(eps), abs_edge_values<double>(eps),
                         "f64 ABS edges");
    }
  });
}

TEST(QuantizerTiers, RelBinEdgesAndUmax) {
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-1, 1e-3, 3.7e-6}) {
      expect_tiers_agree(RelQuantizer<float>(eps), rel_edge_values<float>(eps), "f32 REL edges");
      expect_tiers_agree(RelQuantizer<double>(eps), rel_edge_values<double>(eps),
                         "f64 REL edges");
    }
  });
}

namespace {

/// The guard premise of the REL margin proof (DESIGN.md §8.1) for bin b: a
/// bin of the range, det_exp(b * 2L) scales in one multiply, and its T is
/// normal and finite.
template <typename T>
bool guard_premise(const RelQuantizer<T>& q, double b) {
  using Q = RelQuantizer<T>;
  if (b < static_cast<double>(1 - Q::bias) || b > static_cast<double>(Q::u_max - Q::bias))
    return false;
  const double x = b * (2.0 * q.log1p_eps());
  const double k = fpmath::round_nearest_even(x * fpmath::poly::kInvLn2);
  const T r = static_cast<T>(fpmath::det_exp(x));
  return k >= -1021 && k <= 1023 && r >= FloatTraits<T>::min_normal &&
         r <= std::numeric_limits<T>::max();
}

/// Checks one quantizer's margin path: its guard range is exactly the bins
/// that meet the premise, and values within a few ulps of t = bd +- near
/// (the margin's edge), of t = bd +- 0.5 (the bin's edge), for bins at
/// both guard ends, just outside them and across the range, encode at the
/// lanes as encode() does and decode within the bound (the integer oracle).
template <typename T>
void check_margin_edges(double eps, const std::string& what) {
  const RelQuantizer<T> q(eps);
  const RelMargin& mg = q.margin();
  ASSERT_GT(mg.near, 0) << what << ": margin path off";
  ASSERT_LE(mg.lo, mg.hi) << what;
  EXPECT_TRUE(guard_premise(q, mg.lo) && guard_premise(q, mg.hi)) << what;
  EXPECT_FALSE(guard_premise(q, mg.lo - 1) || guard_premise(q, mg.hi + 1)) << what;
  const double l = q.log1p_eps(), scale = 0.5 / l;
  std::vector<double> bins = {mg.lo - 1, mg.lo, mg.lo + 1, mg.hi - 1, mg.hi, mg.hi + 1};
  data::Rng rng(31);
  for (int i = 0; i < 64; ++i) bins.push_back(std::round(rng.uniform(mg.lo, mg.hi)));
  // The value whose det_log(|v|) * scale is t: libm's exp, then Newton steps
  // on det_log itself (exp alone misses by hundreds of f64 ulps at |ln| ~ 700).
  const auto locate = [&](double t) {
    double a = std::exp(2 * l * t);
    for (int i = 0; i < 3 && std::isfinite(a); ++i)
      a *= 1 + (t - fpmath::det_log(a) * scale) * 2 * l;
    return static_cast<T>(a);
  };
  std::vector<T> vals;
  for (double b : bins)
    for (double t : {b - 0.5, b - mg.near, b + mg.near, b + 0.5}) add_window(vals, locate(t), 6);
  // Values inside the margin go first, so that whole lane steps hold only
  // them and take the margin path; the rest run the full path. Both sides of
  // the margin's edge are reached.
  const auto inside_margin = [&](T v) {
    if (v == T(0) || !std::isfinite(v)) return false;
    const double t = fpmath::det_log(std::fabs(static_cast<double>(v))) * scale;
    const double bd = fpmath::round_nearest_even(t);
    return std::fabs(t - bd) <= mg.near && bd >= mg.lo && bd <= mg.hi;
  };
  const auto inside = static_cast<std::size_t>(
      std::stable_partition(vals.begin(), vals.end(), inside_margin) - vals.begin());
  EXPECT_GT(inside, vals.size() / 32) << what;
  EXPECT_GT(vals.size() - inside, vals.size() / 32) << what;
  expect_tiers_agree(q, vals, what);
  std::vector<typename RelQuantizer<T>::Bits> words(vals.size());
  q.encode_block(vals.data(), words.data(), vals.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (!RelQuantizer<T>::is_bin(words[i])) continue;
    const T r = q.decode(words[i]);
    bad += !oracle::rel_holds(vals[i], r, eps) || (vals[i] < 0) != (r < 0);
  }
  EXPECT_EQ(bad, 0u) << what << ": bins the oracle rejects";
}

}  // namespace

TEST(QuantizerTiers, RelMarginEdges) {
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-1, 1e-3, 1e-5, 1e-7}) {
      check_margin_edges<float>(eps, "f32 REL margin " + std::to_string(eps));
      check_margin_edges<double>(eps, "f64 REL margin " + std::to_string(eps));
    }
  });
}

namespace {

/// The REL lanes' first-pass logarithm of a normal double `a`: the lanes'
/// operations in their order (first_pass::log_reduced for double).
double first_pass_log(double a) {
  const u64 b = fpmath::to_bits(a);
  const int i = static_cast<int>(b >> 48 & 15);
  const double m =
      fpmath::from_bits<double>((b & FloatTraits<double>::mantissa_mask) | 0x3FF0000000000000ull);
  const double e = static_cast<double>(static_cast<int>(b >> 52)) - 1023.0;
  double out;
  first_pass::log_reduced(m, first_pass::kRecip[i], first_pass::kNegLogRecip[i], e, out);
  return out;
}

/// How the first pass treats `v`: 0 decided as a bin (its t1 lies within
/// `first` of a guarded bin and its double is normal), 1 within `first` of
/// its bin but outside the guard range or subnormal, 2 anything else. Zero,
/// NaN and +-inf count as 2, which keeps them out of the whole steps of
/// check_first_pass_edges (RelFirstPassSpecials puts them in such steps).
template <typename T>
int first_pass_class(const RelQuantizer<T>& q, T v) {
  const double a = std::fabs(static_cast<double>(v));
  if (v == T(0) || !std::isfinite(v)) return 2;
  const RelMargin& mg = q.margin();
  const double t = first_pass_log(a) * (0.5 / q.log1p_eps());
  const double bd = fpmath::round_nearest_even(t);
  if (!(std::fabs(t - bd) <= mg.first)) return 2;
  const bool normal = a >= std::numeric_limits<double>::min();
  return normal && bd >= mg.lo && bd <= mg.hi ? 0 : 1;
}

/// Checks one quantizer's first pass: values within a few ulps of
/// t = bd +- first (just below near - delta), bd +- near and bd +- 0.5 for
/// bins at the guard ends, past them and across the range; the
/// top-four-bit cell boundaries 2^e * (1 + j/16) (powers of two among them)
/// over the whole exponent range; and subnormals. Values the first pass
/// decides come first, then those it leaves only for the guard range or a
/// subnormal double, so both fill whole lane steps. Every word must equal encode()'s, and every bin
/// must pass the integer oracle.
template <typename T>
void check_first_pass_edges(double eps, const std::string& what) {
  using L = std::numeric_limits<T>;
  const RelQuantizer<T> q(eps);
  const RelMargin& mg = q.margin();
  ASSERT_GT(mg.first, 0) << what << ": first pass off";
  EXPECT_LT(mg.first, mg.near) << what;
  const double l = q.log1p_eps(), scale = 0.5 / l;
  std::vector<double> bins = {mg.lo - 3, mg.lo - 2, mg.lo - 1, mg.lo, mg.lo + 1,
                              mg.hi - 1, mg.hi,     mg.hi + 1, mg.hi + 2, mg.hi + 3};
  data::Rng rng(37);
  for (int i = 0; i < 64; ++i) bins.push_back(std::round(rng.uniform(mg.lo, mg.hi)));
  // As in check_margin_edges: libm's exp, then Newton steps on det_log.
  const auto locate = [&](double t) {
    double a = std::exp(2 * l * t);
    for (int i = 0; i < 3 && std::isfinite(a); ++i)
      a *= 1 + (t - fpmath::det_log(a) * scale) * 2 * l;
    return static_cast<T>(a);
  };
  std::vector<T> vals;
  for (double b : bins) {
    add_window(vals, locate(b), 24);
    for (double d : {mg.first, mg.near, 0.5}) {
      add_window(vals, locate(b - d), 6);
      add_window(vals, locate(b + d), 6);
    }
  }
  for (int e = L::min_exponent - 1; e < L::max_exponent; e += (e < -4 || e > 4) ? 9 : 1)
    for (int j = 0; j < 16; ++j) add_window(vals, std::ldexp(T(1 + j / 16.0), e), 3);
  for (T s : {L::min(), L::denorm_min(), T(L::min() / 3)}) add_window(vals, s, 40);
  for (int i = 0; i < 256; ++i)
    vals.push_back(static_cast<T>(L::min() * rng.uniform()) * (i % 2 ? T(1) : T(-1)));
  std::stable_sort(vals.begin(), vals.end(), [&](T a, T b) {
    return first_pass_class(q, a) < first_pass_class(q, b);
  });
  std::size_t count[3] = {};
  for (T v : vals) ++count[first_pass_class(q, v)];
  EXPECT_GT(count[0], vals.size() / 32) << what;
  EXPECT_GT(count[1], 64u) << what;
  EXPECT_GT(count[2], vals.size() / 32) << what;
  expect_tiers_agree(q, vals, what);
  std::vector<typename RelQuantizer<T>::Bits> words(vals.size());
  q.encode_block(vals.data(), words.data(), vals.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (!RelQuantizer<T>::is_bin(words[i])) continue;
    const T r = q.decode(words[i]);
    bad += !oracle::rel_holds(vals[i], r, eps) || (vals[i] < 0) != (r < 0);
  }
  EXPECT_EQ(bad, 0u) << what << ": bins the oracle rejects";
}

}  // namespace

TEST(QuantizerTiers, RelFirstPassEdges) {
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-1, 1e-3, 1e-5, 1e-7, 0.5, 1.5, 1e30}) {
      check_first_pass_edges<float>(eps, "f32 REL first pass " + std::to_string(eps));
      check_first_pass_edges<double>(eps, "f64 REL first pass " + std::to_string(eps));
    }
  });
}

// Zero, NaN, +-inf and subnormals, one at each position of a 75-value block
// whose other values the first pass decides, so the special sits in a step
// the first pass could take whole. At large bounds the t1 of a zero, NaN or
// infinity can round to a guarded bin within `first` (f64 +-inf at 1.5 and
// 1e30, an f32 zero above 2^1023); each must still get encode()'s word.
TEST(QuantizerTiers, RelFirstPassSpecials) {
  const auto num = [](double x) {
    char s[32];
    std::snprintf(s, sizeof s, "%g", x);
    return std::string(s);
  };
  const auto each_position = [&num](const auto& q, const std::string& what) {
    using T = typename std::decay_t<decltype(q)>::Value;
    using L = std::numeric_limits<T>;
    using FT = FloatTraits<T>;
    constexpr std::size_t kBlock = 75;
    std::vector<T> base;
    for (T v : random_moderate<T>(8 * kBlock, 3, 67))
      if (base.size() < kBlock && first_pass_class(q, v) == 0) base.push_back(v);
    ASSERT_EQ(base.size(), kBlock) << what << ": too few values the first pass decides";
    const std::vector<T> specials = {
        L::quiet_NaN(), -L::quiet_NaN(), L::signaling_NaN(),
        fpmath::from_bits<T>(FT::pos_inf | FT::mantissa_mask), L::infinity(), -L::infinity(),
        T(0), -T(0), L::denorm_min(), -L::min() / 3};
    for (const T x : specials)
      for (std::size_t p = 0; p < kBlock; ++p) {
        auto vals = base;
        vals[p] = x;
        expect_tiers_agree(q, vals, what + " " + num(x) + " at " + std::to_string(p));
      }
  };
  for_each_rung(Isa::Avx2, [&] {
    for (double eps : {1e-3, 0.5, 1.5, 1e30, 1e308}) {
      each_position(RelQuantizer<float>(eps), "f32 REL " + num(eps));
      each_position(RelQuantizer<double>(eps), "f64 REL " + num(eps));
    }
  });
}

// The error bounds DESIGN.md §8.1 ("The first pass") derives, with
// u = 2^-53, checked against long double libm, and delta against the lanes'
// t1 and det_log's t on samples. delta itself uses larger constants.
TEST(RelFirstPassErrors, WithinTheDerivedBounds) {
  constexpr double u = 0x1p-53;
  const double R = first_pass::kMaxR;
  EXPECT_GT(R, 1 / 33.0);
  EXPECT_LT(R, 1 / 32.0);
  for (int i = 0; i < 16; ++i) {
    // c_i has 24 bits, and -ln c_i is rounded to nearest.
    const double c = first_pass::kRecip[i];
    EXPECT_EQ(c, std::ldexp(std::round(std::ldexp(c, 24)), -24)) << i;
    const long double nl = -std::log(static_cast<long double>(c));
    EXPECT_LE(static_cast<double>(std::fabs(first_pass::kNegLogRecip[i] - nl)),
              u * static_cast<double>(nl)) << i;
  }
  const double trunc = std::pow(R, 5) / (5 * (1 - R));
  const RelQuantizer<float> q32[] = {RelQuantizer<float>(1e-2), RelQuantizer<float>(1e-3),
                                     RelQuantizer<float>(1e-5)};
  const RelQuantizer<double> q64[] = {RelQuantizer<double>(1e-2), RelQuantizer<double>(1e-3),
                                      RelQuantizer<double>(1e-5)};
  // |t1 - t| <= delta < near - first wherever t1 rounds to a guarded bin.
  const auto check_delta = [](const auto& q, double a) {
    const RelMargin& mg = q.margin();
    const double scale = 0.5 / q.log1p_eps();
    const double t1 = first_pass_log(a) * scale, bd = fpmath::round_nearest_even(t1);
    if (bd < mg.lo || bd > mg.hi) return;
    const long double room = mg.near - static_cast<long double>(mg.first);
    ASSERT_LT(std::fabs(t1 - fpmath::det_log(a) * scale), room) << a;
  };
  data::Rng rng(43);
  for (int i = 0; i < 200000; ++i) {
    // |l1 - ln a| <= R^5/(5(1-R)) + 2.6u + 1.5u|e ln 2| + u|l1| over the
    // positive normal doubles.
    const u64 lo_bits = fpmath::to_bits(std::numeric_limits<double>::min());
    const double a = fpmath::from_bits<double>(
        lo_bits + rng.next_u64() % (FloatTraits<double>::pos_inf - lo_bits));
    const double l1 = first_pass_log(a);
    const double e = static_cast<double>(static_cast<int>(fpmath::to_bits(a) >> 52) - 1023);
    const long double ln = std::log(static_cast<long double>(a));
    ASSERT_LE(static_cast<double>(std::fabs(l1 - ln)),
              trunc + 2.6 * u + 1.5 * u * std::fabs(e * 0.6931471805599453) + u * std::fabs(l1))
        << a;
    const float f = std::fabs(fpmath::from_bits<float>(static_cast<u32>(rng.next_u64())));
    for (const auto& q : q64) check_delta(q, a);
    if (std::isfinite(f) && f > 0)
      for (const auto& q : q32) check_delta(q, f);
  }
}

TEST(QuantizerTiers, RelReconstructionOutsideOneMultiplyRange) {
  // det_exp scales by 2^k in one multiply only for k in [-1021, 1023]; these
  // bins reconstruct outside that range (f64 values near the denormals and
  // near DBL_MAX, f32 bins of a huge bound), so their lanes re-run encode().
  for_each_rung(Isa::Avx2, [&] {
    std::vector<double> f64;
    for (double c : {std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
                     1e-310, 4e-320, 3e-308, std::numeric_limits<double>::max(), 8e307, 1.6e308})
      add_window(f64, c, 64);
    for (double eps : {1e-1, 1e-3, 1e-6})
      expect_tiers_agree(RelQuantizer<double>(eps), f64, "f64 REL extremes");
    const auto f32 = random_patterns<float>(1 << 14, 57);
    for (double eps : {1e30, 1e200})
      expect_tiers_agree(RelQuantizer<float>(eps), f32, "f32 REL huge bound");
  });
}

namespace {

/// Whether the ABS check of `v` ties (|fl(v - r)| == eps). Bins `v` with the
/// quantizer's arithmetic.
template <typename T>
bool abs_check_ties(double eps, T v) {
  const double bd = fpmath::round_nearest_even(static_cast<double>(v) * (0.5 / eps));
  const double r = static_cast<T>(bd * (2.0 * eps));
  return std::fabs(v - r) == eps;
}

/// Whether the REL check of `v` ties (fl(lo*eps) == fl(hi - lo) with lo, hi
/// = min, max(r, |v|)); sets `holds` to the exact answer.
template <typename T>
bool rel_check_ties(const RelQuantizer<T>& q, T v, bool& holds) {
  const double l = q.log1p_eps(), av = std::fabs(static_cast<double>(v));
  const double bd = fpmath::round_nearest_even(fpmath::det_log(av) * (0.5 / l));
  const double r = static_cast<T>(fpmath::det_exp(bd * (2.0 * l)));
  const double lo = std::min(r, av), hi = std::max(r, av);
  holds = oracle::rel_holds(av, r, q.eps());
  return lo * q.eps() == hi - lo;
}

/// Values whose REL check ties, for random bins: |v| near r + fl(r*eps)
/// (lo = r) and near r/(1+eps) (lo = |v|), where r is the bin's
/// reconstruction. A tie needs fl(r*eps) to land on the grid of |v|, so many
/// bins are tried and only tying values are kept.
template <typename T>
std::vector<T> rel_tie_values(const RelQuantizer<T>& q, u64 seed, std::size_t* rejected) {
  const double l = q.log1p_eps(), eps = q.eps();
  data::Rng rng(seed);
  std::vector<T> ties;
  // Bins whose reconstruction stays normal: |2*b*l| < 0.9 * log(max).
  const double span = 0.9 * std::log(static_cast<double>(std::numeric_limits<T>::max())) / (2 * l);
  for (int i = 0; i < 20000; ++i) {
    const double b = std::round((rng.uniform(0, 2) - 1) * span);
    const T r = static_cast<T>(fpmath::det_exp(2 * b * l));
    std::vector<T> cand;
    add_window(cand, static_cast<T>(r + r * eps), 8);
    add_window(cand, static_cast<T>(r / (1 + eps)), 8);
    for (T v : cand) {
      bool holds = false;
      if (!rel_check_ties(q, v, holds)) continue;
      ties.push_back(v);
      *rejected += !holds;
    }
  }
  return ties;
}

}  // namespace

TEST(QuantizerTiers, RoundedTieValues) {
  // Values whose bound check ties: ABS |fl(v - r)| == eps at the bin edges
  // (2b+-1)*eps, which always hold, so the lanes must accept them; REL
  // fl(lo*eps) == fl(hi - lo), which the lanes hand to the scalar
  // predicate. Some f64 REL ties fail the bound, so a lane that accepted
  // REL ties would emit a different word.
  for_each_rung(Isa::Avx2, [&] {
    std::size_t abs32 = 0, abs64 = 0;
    for (double eps : {0.5, 0x1p-10, 0.1, 1e-3}) {
      const auto f32 = abs_edge_values<float>(eps);
      const auto f64 = abs_edge_values<double>(eps);
      for (float v : f32) abs32 += abs_check_ties(eps, v);
      for (double v : f64) abs64 += abs_check_ties(eps, v);
      expect_tiers_agree(AbsQuantizer<float>(eps), f32, "f32 ABS ties");
      expect_tiers_agree(AbsQuantizer<double>(eps), f64, "f64 ABS ties");
    }
    EXPECT_GT(abs32, 0u);
    EXPECT_GT(abs64, 0u);
    std::size_t rel32 = 0, rel64 = 0, rejected32 = 0, rejected64 = 0;
    for (double eps : {0.0625, 0x1.8p-7}) {
      const RelQuantizer<float> q(eps);
      const auto ties = rel_tie_values(q, 71, &rejected32);
      rel32 += ties.size();
      expect_tiers_agree(q, ties, "f32 REL ties");
    }
    for (double eps : {1e-2, 1e-3, 1e-4}) {
      const RelQuantizer<double> q(eps);
      const auto ties = rel_tie_values(q, 72, &rejected64);
      rel64 += ties.size();
      expect_tiers_agree(q, ties, "f64 REL ties");
    }
    EXPECT_GT(rel32, 0u);
    EXPECT_GT(rel64, 0u);
    EXPECT_GT(rejected64, 0u);
    std::printf("ties: ABS f32 %zu f64 %zu; REL f32 %zu (%zu fail) f64 %zu (%zu fail)\n", abs32,
                abs64, rel32, rejected32, rel64, rejected64);
  });
}

TEST(QuantizerTiers, FallbackLaneAtEveryGroupPosition) {
  // One value a lane cannot decide on its own, or a special value, at every
  // position of a 75-value block of moderate values: it lands in each group
  // of a full step, in the remainder steps and in the scalar tail, and
  // exactly its own lane must take the scalar word. At the Avx2 rung that
  // is two 32-value steps, two 4-lane steps and 3 tail values; at Avx512
  // one 64-value step, one 8-lane step and 3 tail values.
  for_each_rung(Isa::Avx2, [&] {
    constexpr std::size_t kBlock = 75;
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
    // Values whose REL check ties.
    std::size_t rejected = 0;
    auto ties = rel_tie_values(RelQuantizer<double>(1e-2), 73, &rejected);
    ASSERT_FALSE(ties.empty());
    ties.resize(std::min<std::size_t>(ties.size(), 6));
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
    each_position(RelQuantizer<double>(1e-2), f64, ties, "f64 REL tie");
    each_position(RelQuantizer<float>(1e30), f32, f32_odd, "f32 REL 1e30");
    each_position(RelQuantizer<double>(1e-3), f64, specials64, "f64 REL special");
    each_position(RelQuantizer<float>(1e-3), f32, specials32, "f32 REL special");
    each_position(RelQuantizer<float>(1e30), f32, specials32, "f32 REL 1e30 special");
  });
}

TEST(QuantizerTiers, BlockLengthsAndUnalignedPointers) {
  for_each_rung(Isa::Avx2, [&] {
    const auto vals = random_moderate<float>(4096 + 8, 3, 58);
    const auto vals64 = random_moderate<double>(4096 + 8, 3, 59);
    std::vector<std::size_t> lengths;
    // Every remainder count and tail of both lane rungs (32 and 64 values per
    // full step), a full step before them, and 4093-4096.
    for (std::size_t n = 0; n <= 72; ++n) lengths.push_back(n);
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
          q.encode_block(in, words.data() + off, n);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(words[off + i], q.encode(in[i])) << "n=" << n << " off=" << off;
          for (std::size_t i = 0; i < off; ++i) ASSERT_EQ(words[i], kSentinel);
          for (std::size_t i = off + n; i < words.size(); ++i) ASSERT_EQ(words[i], kSentinel);
          std::vector<T> back(n + 8, T(-7));
          q.decode_block(words.data() + off, back.data() + (3 - off), n);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(fpmath::to_bits(back[3 - off + i]),
                      fpmath::to_bits(q.decode(words[off + i])));
          for (std::size_t i = 3 - off + n; i < back.size(); ++i) ASSERT_EQ(back[i], T(-7));
        }
      }
    };
    run(AbsQuantizer<float>(1e-3), vals);
    run(RelQuantizer<float>(1e-3), vals);
    run(AbsQuantizer<double>(1e-3), vals64);
    run(RelQuantizer<double>(1e-3), vals64);
  });
}

TEST(QuantizerTiers, BlockApiMatchesPerValue) {
  // encode_block()/decode_block() pick a tier by rung; at every rung the
  // words are the per-value words.
  for_each_rung([&] {
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
  });
}

// --- NOA range pass ------------------------------------------------------------

namespace {

/// finite_range_block at the rung in force must return fpmath::finite_range's
/// ends bit for bit, signs of zero included.
template <typename T>
void expect_range_agrees(const std::vector<T>& v, const std::string& what) {
  const std::span<const T> s(v);
  const fpmath::FiniteRange want = fpmath::finite_range(s), got = finite_range_block(s);
  ASSERT_EQ(fpmath::to_bits(got.min), fpmath::to_bits(want.min)) << "min, " << what;
  ASSERT_EQ(fpmath::to_bits(got.max), fpmath::to_bits(want.max)) << "max, " << what;
}

/// Every length up to past two full steps of the widest rung (8 lanes x 4
/// groups), so each lane, group and tail position is hit.
template <typename T>
void noa_range_cases(u64 seed) {
  using L = std::numeric_limits<T>;
  const std::vector<T> nonfinite = {L::quiet_NaN(), -L::quiet_NaN(), L::infinity(),
                                    -L::infinity()};
  const std::vector<T> special = special_values<T>();
  data::Rng rng(seed);
  const auto pick = [&](const std::vector<T>& from) { return from[rng.next_u64() % from.size()]; };
  for (std::size_t n = 0; n <= 75; ++n) {
    const std::string len = ", " + std::to_string(n) + " values";
    std::vector<T> v(n);
    for (auto& x : v) x = pick(nonfinite);
    expect_range_agrees(v, "all non-finite" + len);
    // One finite value (zeros, denormals, +-max among them) at each position.
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<T> w = v;
      w[at] = special[(at + n) % special.size()];
      expect_range_agrees(w, "one finite at " + std::to_string(at) + len);
    }
    // Zeros of both signs with only non-finite values, or with values of one
    // sign, so that the min, the max or both are zero. The first zero, of
    // each sign, sits first, in the middle or last; no zero comes before it.
    const std::vector<std::vector<T>> others = {
        {}, {T(1), L::denorm_min(), L::max()}, {T(-1), -L::denorm_min(), -L::max()}};
    for (const std::vector<T>& other : others)
      for (const T first : {T(0), T(-0.0)})
        for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
          if (n == 0) continue;
          std::vector<T> w(n);
          for (std::size_t i = 0; i < n; ++i) {
            const u64 r = rng.next_u64() % 3;
            w[i] = r == 0 || other.empty() ? pick(nonfinite) : pick(other);
            if (i > at && rng.next_u64() % 2) w[i] = rng.next_u64() % 2 ? T(0) : T(-0.0);
          }
          w[at] = first;
          expect_range_agrees(w, "first zero " + std::string(std::signbit(first) ? "-0" : "+0") +
                                     " at " + std::to_string(at) + len);
        }
    for (auto& x : v) x = rng.next_u64() % 4 ? pick(special) : pick(nonfinite);
    expect_range_agrees(v, "special values" + len);
  }
  // A long field: random patterns, then the same with a zero end.
  std::vector<T> v = random_patterns<T>(10007, seed);
  expect_range_agrees(v, "random patterns");
  for (auto& x : v)
    if (std::isfinite(x)) x = x == 0 ? T(1) : std::fabs(x);
  v[9000] = T(-0.0);
  v[9001] = T(0);
  expect_range_agrees(v, "non-negative patterns, zeros near the end");
}

}  // namespace

TEST(QuantizerTiers, NoaRangeMatchesScalar) {
  for_each_rung([&] {
    noa_range_cases<float>(61);
    noa_range_cases<double>(62);
  });
}
