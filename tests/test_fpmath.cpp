// Tests for the deterministic IEEE-only math substrate (paper Section III-C).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/rng.hpp"
#include "fpmath/det_math.hpp"
#include "fpmath/traits.hpp"

using namespace repro;
using namespace repro::fpmath;

TEST(RoundNearestEven, Integers) {
  EXPECT_EQ(round_nearest_even(0.0), 0.0);
  EXPECT_EQ(round_nearest_even(1.0), 1.0);
  EXPECT_EQ(round_nearest_even(-7.0), -7.0);
  EXPECT_EQ(round_nearest_even(1e18), 1e18);  // beyond 2^52: already integral
}

TEST(RoundNearestEven, HalfwayTiesToEven) {
  EXPECT_EQ(round_nearest_even(0.5), 0.0);
  EXPECT_EQ(round_nearest_even(1.5), 2.0);
  EXPECT_EQ(round_nearest_even(2.5), 2.0);
  EXPECT_EQ(round_nearest_even(-0.5), 0.0);
  EXPECT_EQ(round_nearest_even(-1.5), -2.0);
  EXPECT_EQ(round_nearest_even(-2.5), -2.0);
}

TEST(RoundNearestEven, NearHalf) {
  EXPECT_EQ(round_nearest_even(0.49999999999), 0.0);
  EXPECT_EQ(round_nearest_even(0.50000000001), 1.0);
  EXPECT_EQ(round_nearest_even(-3.50000000001), -4.0);
}

TEST(RoundNearestEven, MatchesLibmRint) {
  data::Rng rng(42);
  for (int i = 0; i < 100000; ++i) {
    double x = rng.uniform(-1e9, 1e9);
    EXPECT_EQ(round_nearest_even(x), std::rint(x)) << x;
  }
}

TEST(DetLog, KnownValues) {
  EXPECT_NEAR(det_log(1.0), 0.0, 1e-16);
  EXPECT_NEAR(det_log(2.718281828459045), 1.0, 1e-14);
  EXPECT_NEAR(det_log(10.0), 2.302585092994046, 1e-14);
  EXPECT_NEAR(det_log(0.5), -0.6931471805599453, 1e-14);
}

TEST(DetLog, MatchesLibmAcrossMagnitudes) {
  data::Rng rng(7);
  for (int e = -300; e <= 300; e += 3) {
    double x = std::pow(10.0, e) * (0.5 + rng.uniform());
    double want = std::log(x);
    EXPECT_NEAR(det_log(x), want, std::abs(want) * 1e-14 + 1e-15) << x;
  }
}

TEST(DetLog, DenormalInputs) {
  double tiny = 5e-324;  // smallest positive denormal
  EXPECT_NEAR(det_log(tiny), std::log(tiny), 1e-11);
  double d2 = 1e-310;
  EXPECT_NEAR(det_log(d2), std::log(d2), 1e-11);
}

TEST(DetLog1p, SmallArguments) {
  for (double x : {1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0}) {
    double want = std::log1p(x);
    EXPECT_NEAR(det_log1p(x), want, std::abs(want) * 1e-14) << x;
  }
}

TEST(DetExp, KnownValues) {
  EXPECT_EQ(det_exp(0.0), 1.0);
  EXPECT_NEAR(det_exp(1.0), 2.718281828459045, 1e-14);
  EXPECT_NEAR(det_exp(-1.0), 0.36787944117144233, 1e-15);
}

TEST(DetExp, MatchesLibmAcrossRange) {
  data::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    double x = rng.uniform(-700.0, 700.0);
    double want = std::exp(x);
    EXPECT_NEAR(det_exp(x), want, want * 4e-15) << x;
  }
}

TEST(DetExp, OverflowAndUnderflow) {
  EXPECT_TRUE(std::isinf(det_exp(800.0)));
  EXPECT_EQ(det_exp(-800.0), 0.0);
  // Denormal-range results stay nonzero and close to libm.
  double x = -730.0;
  double want = std::exp(x);
  EXPECT_GT(det_exp(x), 0.0);
  EXPECT_NEAR(det_exp(x), want, want * 1e-10 + 5e-324);
}

TEST(DetExpLog, RoundTrip) {
  data::Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    double x = std::pow(10.0, rng.uniform(-30, 30)) * (0.5 + rng.uniform());
    EXPECT_NEAR(det_exp(det_log(x)), x, x * 1e-13) << x;
  }
}

TEST(RoundNearestEven, ExactTieBoundariesAcrossMagnitudes) {
  // k + 0.5 must round to the even neighbour for every magnitude where the
  // tie is representable.
  for (int e = 1; e < 50; ++e) {  // 2^e is even for e >= 1
    double k = std::ldexp(1.0, e);
    EXPECT_EQ(round_nearest_even(k + 0.5), k) << e;
    EXPECT_EQ(round_nearest_even(k + 1.5), k + 2.0) << e;
    EXPECT_EQ(round_nearest_even(-(k + 0.5)), -k) << e;
  }
}

TEST(RoundNearestEven, Monotone) {
  data::Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    double a = rng.uniform(-1e6, 1e6);
    double b = a + rng.uniform() * 10;
    EXPECT_LE(round_nearest_even(a), round_nearest_even(b));
  }
}

TEST(DetLog, MonotoneNearOne) {
  // The sqrt(2) mantissa-split boundary must not break monotonicity.
  double prev = det_log(0.5);
  for (double x = 0.5; x < 2.5; x += 1e-4) {
    double l = det_log(x);
    EXPECT_GE(l, prev) << x;
    prev = l;
  }
}

TEST(DetExp, MonotoneAcrossReductionBoundaries) {
  // k*ln2 boundaries in the argument reduction must not create steps.
  double prev = det_exp(-5.0);
  for (double x = -5.0; x < 5.0; x += 1e-3) {
    double e = det_exp(x);
    EXPECT_GE(e, prev) << x;
    prev = e;
  }
}

TEST(DetExp, DenormalBoundaryContinuity) {
  // Around the normal/denormal boundary (exp(x) ~ 2^-1022) results stay
  // positive, finite, and within relative tolerance of libm.
  for (double x = -708.0; x > -745.0; x -= 0.5) {
    double got = det_exp(x);
    double want = std::exp(x);
    EXPECT_GT(got, 0.0) << x;
    EXPECT_NEAR(got, want, want * 1e-9 + 1e-320) << x;
  }
}

TEST(DetExp, NanGivesNan) {
  // A NaN used to pass both range tests and scale by 2^INT64_MIN in steps:
  // ~10^17 iterations.
  EXPECT_TRUE(std::isnan(det_exp(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(det_exp(-std::numeric_limits<double>::quiet_NaN())));
}

// The error bounds that the REL margin proof (DESIGN.md §8.1) derives, with
// u = 2^-53, checked against long double libm on samples. The margin itself
// uses larger constants.
namespace {
constexpr double kU = 0x1p-53;
}

TEST(DetMathErrors, WithinTheMarginProofBounds) {
  data::Rng rng(21);
  for (int i = 0; i < 200000; ++i) {
    // |det_log(a) - ln a| <= 5u + u*|ln a| over all positive finite doubles.
    const double a = from_bits<double>(rng.next_u64() % FloatTraits<double>::pos_inf + 1);
    const long double ln = std::log(static_cast<long double>(a));
    const double err = static_cast<double>(std::fabs(det_log(a) - ln));
    ASSERT_LE(err, 5 * kU + kU * static_cast<double>(std::fabs(ln))) << a;
    // det_exp's relative error <= 3u where 2^k is one multiply.
    const double x = rng.uniform(-708.0, 709.4);
    const long double want = std::exp(static_cast<long double>(x));
    ASSERT_LE(static_cast<double>(std::fabs(det_exp(x) - want) / want), 3 * kU) << x;
    // |det_log1p(e) - ln(1+e)| <= 5u*ln(1+e) below 0.1, 6u + u*ln(1+e) above.
    const double e = std::pow(10.0, rng.uniform(-12, 6));
    const long double l = std::log1p(static_cast<long double>(e));
    const double ld = static_cast<double>(l);
    const double bound = e < 0.1 ? 5 * kU * ld : 6 * kU + kU * ld;
    ASSERT_LE(static_cast<double>(std::fabs(det_log1p(e) - l)), bound) << e;
  }
}

TEST(Traits, BitPatternHelpers) {
  EXPECT_TRUE(is_nan_bits<float>(to_bits(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(is_inf_bits<float>(to_bits(std::numeric_limits<float>::infinity())));
  EXPECT_TRUE(is_inf_bits<float>(to_bits(-std::numeric_limits<float>::infinity())));
  EXPECT_FALSE(is_nan_bits<float>(to_bits(1.0f)));
  EXPECT_TRUE(is_finite_bits<float>(to_bits(1.0f)));
  EXPECT_FALSE(is_finite_bits<double>(to_bits(std::numeric_limits<double>::infinity())));
  // The denormal limit really is the boundary of the denormal patterns.
  EXPECT_EQ(FloatTraits<float>::denormal_limit, to_bits(FloatTraits<float>::min_normal));
  EXPECT_EQ(FloatTraits<double>::denormal_limit, to_bits(FloatTraits<double>::min_normal));
}
