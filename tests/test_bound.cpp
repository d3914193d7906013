// The exact error-bound predicate (fpmath/bound.hpp) against the integer
// oracle of bound_oracle.hpp, on values aimed at the predicate's decisions:
// both kinds of tie, products in the subnormal range, operands near DBL_MAX,
// eps >= 1, subnormal eps and eps = 1e30, for f32 and f64 under ABS, REL and
// NOA.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "bound_oracle.hpp"
#include "core/quantizers.hpp"
#include "fpmath/bound.hpp"

using namespace repro;

namespace {

/// Counts agreements and, per outcome, how many ties were decided.
struct Judge {
  std::size_t checked = 0, mismatches = 0;

  void operator()(double v, double r, double e, EbType eb, const std::string& what) {
    ++checked;
    const bool got = fpmath::bound_holds(v, r, e, eb), want = oracle::holds(v, r, e, eb);
    if (got != want && ++mismatches <= 10)
      ADD_FAILURE() << what << ": bound_holds=" << got << " oracle=" << want
                    << std::hexfloat << " v=" << v << " r=" << r << " e=" << e;
  }
};

/// A positive double with a random significand and an exponent in [lo, hi].
double random_double(std::mt19937_64& rng, int lo, int hi) {
  const double m = 1.0 + std::ldexp(static_cast<double>(rng() >> 12), -52);
  return std::ldexp(m, lo + static_cast<int>(rng() % static_cast<u64>(hi - lo + 1)));
}

/// `x` and its `k` neighbours on either side.
std::vector<double> around(double x, int k) {
  std::vector<double> out{x};
  double up = x, dn = x;
  for (int i = 0; i < k; ++i) {
    up = std::nextafter(up, HUGE_VAL);
    dn = std::nextafter(dn, -HUGE_VAL);
    out.push_back(up);
    out.push_back(dn);
  }
  return out;
}

/// REL pairs (lo, hi) around the tie fl(lo*eps) == fl(hi - lo) for one lo:
/// hi runs over the neighbours of fl(lo + fl(lo*eps)). Checks both orders
/// (|v| = hi, r = lo and |v| = lo, r = hi) and counts the ties by outcome.
void rel_ties(Judge& judge, double lo, double eps, std::size_t ties[2], const std::string& what) {
  const double p = lo * eps;
  for (double hi : around(lo + p, 4)) {
    if (!(hi >= lo) || !std::isfinite(hi)) continue;
    if (p == hi - lo) ++ties[oracle::rel_holds(hi, lo, eps)];
    judge(hi, lo, eps, EbType::REL, what);
    judge(-lo, -hi, eps, EbType::REL, what);
  }
}

}  // namespace

TEST(BoundOracle, KnownAnswers) {
  EXPECT_TRUE(oracle::abs_holds(1.0, 0.75, 0.25));
  EXPECT_FALSE(oracle::abs_holds(1.0, 0.75, std::nextafter(0.25, 0.0)));
  EXPECT_TRUE(oracle::abs_holds(-0.5, 0.5, 1.0));
  EXPECT_FALSE(oracle::abs_holds(-0.5, 0.5, 0.5));
  // 1 + 2^-60 rounds to 1, so the double difference hides a violation.
  EXPECT_FALSE(oracle::abs_holds(1.0, -0x1p-60, 1.0));
  EXPECT_TRUE(oracle::abs_holds(1.0, 0x1p-60, 1.0));
  EXPECT_FALSE(oracle::abs_holds(1.0, 0x1p-60, 1.0 - 0x1p-53));
  EXPECT_TRUE(oracle::rel_holds(3.0, 2.0, 0.5));
  EXPECT_FALSE(oracle::rel_holds(3.0, 2.0, std::nextafter(0.5, 0.0)));
  EXPECT_TRUE(oracle::rel_holds(-2.0, -3.0, 0.5));
  EXPECT_FALSE(oracle::rel_holds(2.0, -2.0, 1.0));
  EXPECT_TRUE(oracle::rel_holds(0.0, -0.0, 0.1));
  EXPECT_FALSE(oracle::rel_holds(DBL_MIN, 0.0, 1e300));
  EXPECT_TRUE(oracle::rel_holds(DBL_MAX, DBL_MAX / 1e30, 1e30));
  EXPECT_TRUE(oracle::rel_holds(0x1p-1074, 0x1p-1073, 1.0));
  EXPECT_FALSE(oracle::rel_holds(0x1p-1074, 0x1p-1073, 1.0 - 0x1p-53));
}

TEST(BoundPredicate, AbsRoundedTies) {
  // |fl(v - r)| == e while v - r is inexact: the exact error decides.
  std::mt19937_64 rng(1);
  Judge judge;
  std::size_t ties[2] = {0, 0};
  for (int i = 0; i < 20000; ++i) {
    const int ev = -40 + static_cast<int>(rng() % 80);
    double v = random_double(rng, ev, ev), r = random_double(rng, ev - 60, ev - 1);
    if (rng() & 1) r = -r;
    if (rng() & 2) v = -v;
    const double e = std::fabs(v - r);
    ++ties[oracle::abs_holds(v, r, e)];
    for (double b : around(e, 2)) {
      judge(v, r, b, EbType::ABS, "ABS tie");
      judge(v, r, b, EbType::NOA, "NOA tie");
    }
  }
  EXPECT_EQ(judge.mismatches, 0u) << judge.checked << " checked";
  EXPECT_GT(ties[0], 1000u);
  EXPECT_GT(ties[1], 1000u);
}

TEST(BoundPredicate, RelRoundedTies) {
  std::mt19937_64 rng(2);
  Judge judge;
  std::size_t ties[2] = {0, 0};
  for (double eps : {1e-1, 1e-3, 1e-4, 1e-5, 1e-7, 0.3, 0.999})
    for (int i = 0; i < 4000; ++i)
      rel_ties(judge, random_double(rng, -200, 200), eps, ties, "REL tie");
  EXPECT_EQ(judge.mismatches, 0u) << judge.checked << " checked";
  EXPECT_GT(ties[0], 100u);
  EXPECT_GT(ties[1], 100u);
}

TEST(BoundPredicate, RelSubnormalProducts) {
  // fl(lo*eps) below DBL_MIN: the tie path scales lo and hi by 2^600.
  std::mt19937_64 rng(3);
  Judge judge;
  std::size_t ties[2] = {0, 0};
  for (double eps : {1e-1, 1e-3, 0.5, 1.0, 3.0, 1e-300, 0x1p-1074, 1e-310})
    for (int i = 0; i < 3000; ++i) {
      double lo = random_double(rng, -1074, -900);
      if (i % 3 == 0) lo = std::ldexp(static_cast<double>(rng() % (u64{1} << 40)), -1074);
      if (lo == 0) continue;
      rel_ties(judge, lo, eps, ties, "REL subnormal p");
    }
  EXPECT_EQ(judge.mismatches, 0u) << judge.checked << " checked";
  EXPECT_GT(ties[0] + ties[1], 100u);
}

TEST(BoundPredicate, RelNearDblMax) {
  std::mt19937_64 rng(4);
  Judge judge;
  std::size_t ties[2] = {0, 0};
  for (double eps : {1e-3, 1e-9, 0.5, 1.0, 2.0, 1e30})
    for (int i = 0; i < 3000; ++i) {
      const double lo = random_double(rng, 1000, 1023);
      rel_ties(judge, lo, eps, ties, "REL near DBL_MAX");
      for (double hi : around(DBL_MAX, 3)) judge(hi, lo, eps, EbType::REL, "REL hi near DBL_MAX");
      judge(DBL_MAX, lo, eps, EbType::REL, "REL lo near DBL_MAX");
      judge(lo, HUGE_VAL, eps, EbType::REL, "REL r inf");
    }
  EXPECT_EQ(judge.mismatches, 0u) << judge.checked << " checked";
  EXPECT_GT(ties[0] + ties[1], 10u);
}

TEST(BoundPredicate, WideEpsilonRange) {
  // eps >= 1, subnormal eps and eps = 1e30, on pairs around the REL edges
  // lo*(1+eps) and the ABS edges v +- e.
  std::mt19937_64 rng(5);
  Judge judge;
  std::size_t ties[2] = {0, 0};
  for (double eps : {1.0, 1.5, 3.0, 1e3, 1e30, 0x1p-1074, 1e-310, DBL_MIN, 1e-200})
    for (int i = 0; i < 1500; ++i) {
      const double lo = random_double(rng, -1000, 900);
      rel_ties(judge, lo, eps, ties, "REL wide eps");
      for (double hi : around(lo * (1 + eps), 3)) judge(lo, hi, eps, EbType::REL, "REL edge");
      const double e = eps < 1 ? eps * lo : eps;
      for (double v : around(lo + e, 3)) {
        judge(v, lo, e, EbType::ABS, "ABS edge");
        judge(-v, -lo, e, EbType::ABS, "ABS edge");
      }
    }
  EXPECT_EQ(judge.mismatches, 0u) << judge.checked << " checked";
  EXPECT_GT(ties[0] + ties[1], 100u);
}

TEST(BoundPredicate, Float32Pairs) {
  // f32 data widens exactly; ties and edges with float operands.
  std::mt19937_64 rng(6);
  Judge judge;
  std::size_t ties[2] = {0, 0};
  for (double eps : {0.0625, 0.1, 1e-3, 0x1.8p-7, 2.0, 1e30})
    for (int i = 0; i < 4000; ++i) {
      const float lo = static_cast<float>(random_double(rng, -149, 127));
      if (!(lo > 0) || !std::isfinite(lo)) continue;
      const float h = static_cast<float>(lo + lo * eps);
      for (float hi : {h, std::nextafter(h, 0.0f), std::nextafter(h, HUGE_VALF)}) {
        if (!(hi >= lo) || !std::isfinite(hi)) continue;
        if (lo * eps == static_cast<double>(hi) - lo) ++ties[oracle::rel_holds(hi, lo, eps)];
        judge(hi, lo, eps, EbType::REL, "f32 REL");
        judge(lo, hi, eps, EbType::REL, "f32 REL");
        for (double b : around(static_cast<double>(hi) - lo, 1))
          if (b >= 0) judge(hi, lo, b, EbType::ABS, "f32 ABS");
      }
    }
  EXPECT_EQ(judge.mismatches, 0u) << judge.checked << " checked";
  EXPECT_GT(ties[0] + ties[1], 100u);
}

TEST(BoundPredicate, QuantizerRoundTripsHoldExactly) {
  // Every reconstruction the quantizers emit, f32 and f64, ABS, REL and
  // NOA, on values at the bin edges: the oracle accepts each one.
  std::mt19937_64 rng(7);
  std::vector<double> f64;
  std::vector<float> f32;
  for (int i = 0; i < 4000; ++i) {
    const double x = random_double(rng, -30, 30) * ((rng() & 1) ? 1 : -1);
    for (double y : around(x, 2)) {
      f64.push_back(y);
      f32.push_back(static_cast<float>(y));
    }
  }
  auto check = [](const auto& q, const auto& vals, double e, EbType eb, const char* what) {
    std::size_t bad = 0;
    for (const auto v : vals) {
      const auto r = q.decode(q.encode(v));
      if (!oracle::holds(v, r, e, eb) && ++bad <= 5)
        ADD_FAILURE() << what << " v=" << std::hexfloat << v << " r=" << r;
    }
  };
  for (double eps : {1e-1, 1e-3, 1e-4, 1e-5, 1e-6}) {
    check(pfpl::AbsQuantizer<double>(eps), f64, eps, EbType::ABS, "f64 ABS");
    check(pfpl::AbsQuantizer<float>(eps), f32, eps, EbType::ABS, "f32 ABS");
    check(pfpl::RelQuantizer<double>(eps), f64, eps, EbType::REL, "f64 REL");
    check(pfpl::RelQuantizer<float>(eps), f32, eps, EbType::REL, "f32 REL");
    const double noa64 = eps * fpmath::finite_range(std::span<const double>(f64));
    const double noa32 = eps * fpmath::finite_range(std::span<const float>(f32));
    check(pfpl::AbsQuantizer<double>(noa64), f64, noa64, EbType::NOA, "f64 NOA");
    check(pfpl::AbsQuantizer<float>(noa32), f32, noa32, EbType::NOA, "f32 NOA");
  }
}

TEST(BoundPredicate, X87AcceptedViolationIsStoredLosslessly) {
  // An f64 REL value whose bin the former 80-bit long double check accepted:
  // its reconstruction r exceeds |v|*(1+eps) by less than the rounding of
  // 1+eps and of the product in 64 significand bits. The encoder now stores
  // v itself.
  const double eps = 1e-4;
  const double v = 0x1.b704f89ef33eep+831, old_r = 0x1.b71035c74fc9dp+831;
  EXPECT_FALSE(oracle::rel_holds(v, old_r, eps));
  EXPECT_FALSE(fpmath::bound_holds(v, old_r, eps, EbType::REL));
  const pfpl::RelQuantizer<double> q(eps);
  const u64 w = q.encode(v);
  EXPECT_NE(w, 0x800000057fa68ull);  // the x87 build's bin word
  EXPECT_TRUE(oracle::rel_holds(v, q.decode(w), eps));
  EXPECT_EQ(fpmath::to_bits(q.decode(w)), fpmath::to_bits(v));
}
