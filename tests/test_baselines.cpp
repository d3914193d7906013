// Tests for the seven baseline re-implementations: round-trips, bound
// behaviour matching each compressor's Table III profile (guaranteed bounds
// hold; deliberately reproduced flaws actually misbehave where the paper says
// they do), and format robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "baselines/cuszp_like.hpp"
#include "baselines/fzgpu_like.hpp"
#include "baselines/mgard_like.hpp"
#include "baselines/registry.hpp"
#include "baselines/sperr_like.hpp"
#include "baselines/sz2.hpp"
#include "baselines/sz3.hpp"
#include "baselines/zfp_like.hpp"
#include "common/hash.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "metrics/error_stats.hpp"

using namespace repro;
using namespace repro::baselines;

namespace {

std::vector<float> smooth3d(std::array<std::size_t, 3> dims, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(dims[0] * dims[1] * dims[2]);
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims[0]; ++z)
    for (std::size_t y = 0; y < dims[1]; ++y)
      for (std::size_t x = 0; x < dims[2]; ++x)
        v[i++] = static_cast<float>(std::sin(0.1 * z) * std::cos(0.07 * y) +
                                    0.3 * std::sin(0.05 * x) + 0.001 * rng.gaussian());
  return v;
}

template <typename T>
double max_abs_err(std::span<const T> a, std::span<const T> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::isfinite(a[i]))
      m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  return m;
}

}  // namespace

// --- SZ2 ---------------------------------------------------------------------

TEST(Sz2, AbsRoundtripGuaranteed1D) {
  data::Rng rng(71);
  std::vector<float> v(50000);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.1 * rng.gaussian();
    x = static_cast<float>(acc);
  }
  Sz2Compressor sz2;
  for (double eps : {1e-1, 1e-3}) {
    Bytes c = sz2.compress(Field(v.data(), v.size()), eps, EbType::ABS);
    auto back = sz2.decompress_as<float>(c);
    EXPECT_EQ(metrics::count_violations(std::span<const float>(v),
                                        std::span<const float>(back), eps, EbType::ABS),
              0u);
  }
}

TEST(Sz2, AbsRoundtripGuaranteed3D) {
  auto v = smooth3d({16, 32, 32}, 72);
  Sz2Compressor sz2;
  Bytes c = sz2.compress(Field(v.data(), {16, 32, 32}), 1e-3, EbType::ABS);
  auto back = sz2.decompress_as<float>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-3, EbType::ABS),
            0u);
  EXPECT_LT(c.size(), v.size() * 4);  // it actually compresses smooth data
}

TEST(Sz2, NoaRoundtripGuaranteed) {
  auto v = smooth3d({8, 16, 16}, 73);
  Sz2Compressor sz2;
  Bytes c = sz2.compress(Field(v.data(), {8, 16, 16}), 1e-3, EbType::NOA);
  auto back = sz2.decompress_as<float>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-3, EbType::NOA),
            0u);
}

TEST(Sz2, RelMostlyBoundedButNotGuaranteed) {
  // SZ2's log-space REL: the overwhelming majority of values satisfy the
  // bound, but nothing re-checks the exp/log round-trip — the error is
  // small but the *guarantee* is absent (Table III '○').
  data::Rng rng(74);
  std::vector<float> v(100000);
  for (auto& x : v)
    x = static_cast<float>(rng.gaussian() * std::pow(10.0, rng.uniform(-6, 6)));
  Sz2Compressor sz2;
  double eps = 1e-3;
  Bytes c = sz2.compress(Field(v.data(), v.size()), eps, EbType::REL);
  auto back = sz2.decompress_as<float>(c);
  std::size_t bad = metrics::count_violations(std::span<const float>(v),
                                              std::span<const float>(back), eps, EbType::REL);
  // Loose REL (2x the bound) must hold for nearly everything; the strict
  // bound may be violated by a small fraction.
  std::size_t very_bad = metrics::count_violations(
      std::span<const float>(v), std::span<const float>(back), eps * 4, EbType::REL);
  EXPECT_LT(bad, v.size() / 100);
  EXPECT_EQ(very_bad, 0u);
}

TEST(Sz2, SpecialValuesSurviveRel) {
  std::vector<float> v{0.0f, -0.0f, 1.0f, -1.0f, std::numeric_limits<float>::infinity(),
                       std::numeric_limits<float>::quiet_NaN(), 42.0f, -42.0f};
  Sz2Compressor sz2;
  Bytes c = sz2.compress(Field(v.data(), v.size()), 1e-2, EbType::REL);
  auto back = sz2.decompress_as<float>(c);
  EXPECT_EQ(back[0], 0.0f);
  EXPECT_TRUE(std::isinf(back[4]));
  EXPECT_TRUE(std::isnan(back[5]));
  EXPECT_LT(std::abs(back[6] - 42.0f) / 42.0f, 1e-2 * 1.01);
}

// --- SZ3 ---------------------------------------------------------------------

TEST(Sz3, SerialRoundtripGuaranteed) {
  auto v = smooth3d({16, 32, 32}, 75);
  Sz3Compressor sz3(false);
  for (double eps : {1e-2, 1e-4}) {
    Bytes c = sz3.compress(Field(v.data(), {16, 32, 32}), eps, EbType::ABS);
    auto back = sz3.decompress_as<float>(c);
    EXPECT_EQ(metrics::count_violations(std::span<const float>(v),
                                        std::span<const float>(back), eps, EbType::ABS),
              0u);
  }
}

TEST(Sz3, OmpVariantRoundtripsAndCompressesLess) {
  // Paper: SZ3_OMP "compresses significantly less than serial SZ3".
  auto v = smooth3d({32, 64, 64}, 76);
  Sz3Compressor serial(false), omp(true);
  Bytes cs = serial.compress(Field(v.data(), {32, 64, 64}), 1e-3, EbType::ABS);
  Bytes co = omp.compress(Field(v.data(), {32, 64, 64}), 1e-3, EbType::ABS);
  auto back = omp.decompress_as<float>(co);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-3, EbType::ABS),
            0u);
  EXPECT_LE(cs.size(), co.size());
}

TEST(Sz3, BeatsSz2OnSmoothData) {
  // The interpolation predictor out-compresses Lorenzo on smooth inputs —
  // the reason the paper swaps SZ2 for SZ3 outside the REL section.
  auto v = smooth3d({16, 64, 64}, 77);
  Sz3Compressor sz3(false);
  Sz2Compressor sz2;
  Bytes c3 = sz3.compress(Field(v.data(), v.size()), 1e-3, EbType::ABS);
  Bytes c2 = sz2.compress(Field(v.data(), v.size()), 1e-3, EbType::ABS);
  EXPECT_LT(c3.size(), c2.size());
}

TEST(Sz3, RejectsRel) {
  std::vector<float> v(100, 1.0f);
  Sz3Compressor sz3(false);
  EXPECT_THROW(sz3.compress(Field(v.data(), v.size()), 1e-3, EbType::REL), CompressionError);
}

TEST(Sz3, DoublePrecisionRoundtrip) {
  data::Rng rng(78);
  std::vector<double> v(30000);
  double acc = 0;
  for (auto& x : v) {
    acc += rng.gaussian();
    x = acc;
  }
  Sz3Compressor sz3(false);
  Bytes c = sz3.compress(Field(v.data(), v.size()), 1e-4, EbType::ABS);
  auto back = sz3.decompress_as<double>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const double>(v), std::span<const double>(back),
                                      1e-4, EbType::ABS),
            0u);
}

// --- ZFP-like ------------------------------------------------------------------

TEST(ZfpLike, AbsRoundtripOverPreserves) {
  auto v = smooth3d({16, 32, 32}, 79);
  ZfpLikeCompressor zfp;
  Bytes c = zfp.compress(Field(v.data(), {16, 32, 32}), 1e-3, EbType::ABS);
  auto back = zfp.decompress_as<float>(c);
  double maxerr = max_abs_err(std::span<const float>(v), std::span<const float>(back));
  // '○' profile: close to the bound (here within 2x) but typically well
  // under it (over-preservation).
  EXPECT_LT(maxerr, 2e-3);
}

TEST(ZfpLike, RelModeTruncates) {
  auto v = smooth3d({8, 16, 16}, 80);
  for (auto& x : v) x += 2.0f;  // keep away from zero for relative checks
  ZfpLikeCompressor zfp;
  Bytes c = zfp.compress(Field(v.data(), {8, 16, 16}), 1e-3, EbType::REL);
  auto back = zfp.decompress_as<float>(c);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_LT(std::abs(v[i] - back[i]) / std::abs(v[i]), 0.05) << i;
}

TEST(ZfpLike, WorksOn1DAnd2D) {
  data::Rng rng(81);
  std::vector<float> v1(1000);
  for (std::size_t i = 0; i < v1.size(); ++i) v1[i] = static_cast<float>(std::sin(i * 0.01));
  ZfpLikeCompressor zfp;
  Bytes c1 = zfp.compress(Field(v1.data(), v1.size()), 1e-3, EbType::ABS);
  auto b1 = zfp.decompress_as<float>(c1);
  EXPECT_LT(max_abs_err(std::span<const float>(v1), std::span<const float>(b1)), 4e-3);

  std::vector<float> v2(64 * 48);
  for (std::size_t i = 0; i < v2.size(); ++i) v2[i] = static_cast<float>(std::cos(i * 0.001));
  Bytes c2 = zfp.compress(Field(v2.data(), {1, 48, 64}), 1e-3, EbType::ABS);
  auto b2 = zfp.decompress_as<float>(c2);
  EXPECT_LT(max_abs_err(std::span<const float>(v2), std::span<const float>(b2)), 4e-3);
}

TEST(ZfpLike, CompressesSmoothData) {
  auto v = smooth3d({32, 32, 32}, 82);
  ZfpLikeCompressor zfp;
  Bytes c = zfp.compress(Field(v.data(), {32, 32, 32}), 1e-2, EbType::ABS);
  EXPECT_LT(c.size(), v.size() * 4 / 3);  // > 3x ratio
}

/// libm-free ZFP_like inputs: a smooth polynomial field with small noise, and
/// values spread over 40 binades so the lifting transform sees wide blocks.
template <typename T>
std::vector<T> zfp_smooth(std::size_t n, u64 seed, double offset) {
  data::Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % 97) / 97.0, y = static_cast<double>(i % 31) / 31.0;
    v[i] = static_cast<T>(offset + x * x - 0.5 * y + 0.25 * x * y + 1e-3 * rng.uniform(-1, 1));
  }
  return v;
}

template <typename T>
std::vector<T> zfp_wide(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double m = rng.uniform(-1, 1);
    v[i] = static_cast<T>(std::ldexp(m, static_cast<int>(rng.next_u64() % 40) - 20));
  }
  return v;
}

struct ZfpDigest {
  const char* name;
  const char* stream;
  const char* values;
};

// Digests of ZFP_like streams and reconstructions, taken before the lifting
// transform moved to unsigned arithmetic; the "flips" rows decode 64
// single-bit corruptions of a stream, whose blocks overflow the transform.
const ZfpDigest kZfpGolden[] = {
    {"f32/smooth3d/ABS", "6d2f604e4a4064ce81fc953cc78c9237", "7e9a1c1329515481b37fa8b0605c2a66"},
    {"f32/smooth3d/REL", "7a78ea92fee2557a494a1543e660ddbc", "4b795e87961b4ac83a35d3060ee87025"},
    {"f32/smooth1d/ABS", "e98586af89f449af7ddd5312c97e6efc", "525c732a7a3b974595d855e33437551e"},
    {"f32/smooth2d/ABS", "56bdf1cc0f2d2760eab314a48cc0d471", "576bd0c310ddf6e46c85cc8f713642c0"},
    {"f64/wide3d/ABS", "210227686c6a5401e2286cdf723c84d2", "23ab4aab0e78ee0e3b5dbe7cbc114f76"},
    {"f64/wide3d/REL", "d3a960c792bcd359c9d7d671a9fed92c", "a1c992ccbe7fac2a99b45074f3147b6e"},
    {"f32/wide3d/flips", "6789eee54b7e5a0226e380d52dd2e6ae", "20414b5af6ed654f88ae0ed2e1fcae22"},
    {"f64/wide3d/flips", "a9fe58fcc01d06d79a432288dc1e290d", "cc9de286e80726ed3d793c63c69ee83c"},
};

void expect_zfp_digest(const std::string& name, const Bytes& stream,
                       const std::vector<u8>& values) {
  const ZfpDigest* want = nullptr;
  for (const auto& g : kZfpGolden)
    if (name == g.name) want = &g;
  const std::string sh = common::hash128(stream.data(), stream.size()).hex();
  const std::string vh = common::hash128(values.data(), values.size()).hex();
  ASSERT_NE(want, nullptr) << "missing golden entry: {\"" << name << "\", \"" << sh
                           << "\", \"" << vh << "\"},";
  EXPECT_EQ(sh, want->stream) << name;
  EXPECT_EQ(vh, want->values) << name;
}

template <typename T>
void check_zfp_golden(const std::string& name, const std::vector<T>& v,
                      std::array<std::size_t, 3> dims, double eps, EbType eb) {
  ZfpLikeCompressor zfp;
  const Bytes c = zfp.compress(Field(v.data(), dims), eps, eb);
  expect_zfp_digest(name, c, zfp.decompress(c));
}

template <typename T>
void check_zfp_flips(const std::string& name, const std::vector<T>& v,
                     std::array<std::size_t, 3> dims) {
  ZfpLikeCompressor zfp;
  const Bytes c = zfp.compress(Field(v.data(), dims), 1e-3, EbType::ABS);
  // Flips land past the 56-byte header, so the block decoder sees every
  // corruption; a rejected stream contributes one marker byte.
  data::Rng rng(97);
  std::vector<u8> decoded;
  for (int t = 0; t < 64; ++t) {
    Bytes bad = c;
    const std::size_t at = 64 + rng.next_u64() % (bad.size() - 64);
    bad[at] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
    try {
      const std::vector<u8> back = zfp.decompress(bad);
      decoded.insert(decoded.end(), back.begin(), back.end());
    } catch (const CompressionError&) {
      decoded.push_back(0xEE);
    }
  }
  expect_zfp_digest(name, c, decoded);
}

TEST(ZfpLike, GoldenDigests) {
  check_zfp_golden("f32/smooth3d/ABS", zfp_smooth<float>(16 * 32 * 32, 91, 0.0), {16, 32, 32},
                   1e-3, EbType::ABS);
  check_zfp_golden("f32/smooth3d/REL", zfp_smooth<float>(8 * 16 * 16, 92, 2.0), {8, 16, 16},
                   1e-3, EbType::REL);
  check_zfp_golden("f32/smooth1d/ABS", zfp_smooth<float>(1000, 93, 0.0), {1, 1, 1000}, 1e-2,
                   EbType::ABS);
  check_zfp_golden("f32/smooth2d/ABS", zfp_smooth<float>(48 * 64, 94, 0.0), {1, 48, 64}, 1e-3,
                   EbType::ABS);
  check_zfp_golden("f64/wide3d/ABS", zfp_wide<double>(8 * 16 * 16, 95), {8, 16, 16}, 1e-4,
                   EbType::ABS);
  check_zfp_golden("f64/wide3d/REL", zfp_wide<double>(8 * 16 * 16, 96), {8, 16, 16}, 1e-2,
                   EbType::REL);
  check_zfp_flips("f32/wide3d/flips", zfp_wide<float>(16 * 16 * 16, 98), {16, 16, 16});
  check_zfp_flips("f64/wide3d/flips", zfp_wide<double>(16 * 16 * 16, 99), {16, 16, 16});
}

// --- cuSZp-like -----------------------------------------------------------------

TEST(CuszpLike, AbsRoundtripWithinBoundOnNormalData) {
  data::Rng rng(83);
  std::vector<float> v(50000);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(acc);
  }
  CuszpLikeCompressor cu;
  Bytes c = cu.compress(Field(v.data(), v.size()), 1e-3, EbType::ABS);
  auto back = cu.decompress_as<float>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-3, EbType::ABS),
            0u);
}

TEST(CuszpLike, PrequantOverflowViolatesBound) {
  // The reproduced cuSZp flaw: |v|/(2 eps) beyond 2^31 wraps, producing a
  // major error-bound violation — exactly the paper's Section I complaint.
  std::vector<float> v(64, 0.0f);
  v[0] = 1e10f;  // bin ~5e12 >> 2^31 at eps = 1e-3
  CuszpLikeCompressor cu;
  Bytes c = cu.compress(Field(v.data(), v.size()), 1e-3, EbType::ABS);
  auto back = cu.decompress_as<float>(c);
  EXPECT_GT(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-3, EbType::ABS),
            0u);
}

TEST(CuszpLike, DoubleRoundtrip) {
  data::Rng rng(84);
  std::vector<double> v(20000);
  double acc = 100;
  for (auto& x : v) {
    acc += rng.gaussian();
    x = acc;
  }
  CuszpLikeCompressor cu;
  Bytes c = cu.compress(Field(v.data(), v.size()), 1e-2, EbType::NOA);
  auto back = cu.decompress_as<double>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const double>(v), std::span<const double>(back),
                                      1e-2, EbType::NOA),
            0u);
}

// --- FZ-GPU-like ----------------------------------------------------------------

TEST(FzGpuLike, NoaRoundtrip3D) {
  auto v = smooth3d({16, 32, 32}, 85);
  FzGpuLikeCompressor fz;
  Bytes c = fz.compress(Field(v.data(), {16, 32, 32}), 1e-3, EbType::NOA);
  auto back = fz.decompress_as<float>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-3, EbType::NOA),
            0u);
  EXPECT_LT(c.size(), v.size() * 4);
}

TEST(FzGpuLike, RejectsNon3DAndNonNoa) {
  std::vector<float> v(100, 1.0f);
  FzGpuLikeCompressor fz;
  EXPECT_THROW(fz.compress(Field(v.data(), v.size()), 1e-3, EbType::NOA), CompressionError);
  auto v3 = smooth3d({4, 8, 8}, 86);
  EXPECT_THROW(fz.compress(Field(v3.data(), {4, 8, 8}), 1e-3, EbType::ABS), CompressionError);
  std::vector<double> vd(64, 1.0);
  EXPECT_THROW(fz.compress(Field(vd.data(), {4, 4, 4}), 1e-3, EbType::NOA), CompressionError);
}

// --- MGARD-like -----------------------------------------------------------------

TEST(MgardLike, RoundtripCloseToBound) {
  auto v = smooth3d({8, 32, 32}, 87);
  MgardLikeCompressor mg;
  double eps = 1e-3;
  Bytes c = mg.compress(Field(v.data(), {8, 32, 32}), eps, EbType::ABS);
  auto back = mg.decompress_as<float>(c);
  double maxerr = max_abs_err(std::span<const float>(v), std::span<const float>(back));
  // Not guaranteed ('○'): error can exceed eps, but stays within the
  // hierarchy-depth multiple of it.
  EXPECT_LT(maxerr, eps * 32);
  EXPECT_GT(maxerr, 0.0);
}

TEST(MgardLike, ErrorAccumulationCanViolateBound) {
  // Rough data drives the hierarchical error accumulation past the bound on
  // at least some values — the reproduced MGARD-X misbehaviour.
  data::Rng rng(88);
  std::vector<double> v(1 << 16);
  for (auto& x : v) x = rng.gaussian();
  MgardLikeCompressor mg;
  double eps = 1e-2;
  Bytes c = mg.compress(Field(v.data(), v.size()), eps, EbType::ABS);
  auto back = mg.decompress_as<double>(c);
  double maxerr = max_abs_err(std::span<const double>(v), std::span<const double>(back));
  EXPECT_GT(maxerr, eps);  // violation present
  EXPECT_LT(maxerr, eps * 64);
}

// --- SPERR-like -----------------------------------------------------------------

TEST(SperrLike, AbsRoundtripWithCorrections) {
  auto v = smooth3d({16, 32, 32}, 89);
  SperrLikeCompressor sp;
  for (double eps : {1e-2, 1e-4}) {
    Bytes c = sp.compress(Field(v.data(), {16, 32, 32}), eps, EbType::ABS);
    auto back = sp.decompress_as<float>(c);
    double maxerr = max_abs_err(std::span<const float>(v), std::span<const float>(back));
    // '○' with minor violations: allow the paper's < 1.5x slack.
    EXPECT_LT(maxerr, eps * 1.5);
  }
}

TEST(SperrLike, Rejects1DAndRel) {
  std::vector<float> v(100, 1.0f);
  SperrLikeCompressor sp;
  EXPECT_THROW(sp.compress(Field(v.data(), v.size()), 1e-3, EbType::ABS), CompressionError);
  auto v3 = smooth3d({4, 8, 8}, 90);
  EXPECT_THROW(sp.compress(Field(v3.data(), {4, 8, 8}), 1e-3, EbType::REL), CompressionError);
}

// --- registry ---------------------------------------------------------------------

TEST(Registry, AllCompressorsPresent) {
  auto all = all_compressors();
  EXPECT_EQ(all.size(), 11u);  // 8 baselines (SZ3 x2) + PFPL x3
  EXPECT_EQ(find_compressor("PFPL_Serial")->name(), "PFPL_Serial");
  EXPECT_EQ(find_compressor("SZ2_Serial")->name(), "SZ2_Serial");
  EXPECT_THROW(find_compressor("nope"), CompressionError);
}

TEST(Registry, FeatureMatrixMatchesTable3) {
  // The exact feature rows of Table III (support + guarantee pattern).
  auto check = [](const std::string& name, bool abs, bool rel, bool noa, bool f32, bool f64,
                  bool cpu, bool gpu) {
    Features f = find_compressor(name)->features();
    EXPECT_EQ(f.abs, abs) << name;
    EXPECT_EQ(f.rel, rel) << name;
    EXPECT_EQ(f.noa, noa) << name;
    EXPECT_EQ(f.f32, f32) << name;
    EXPECT_EQ(f.f64, f64) << name;
    EXPECT_EQ(f.cpu, cpu) << name;
    EXPECT_EQ(f.gpu, gpu) << name;
  };
  check("ZFP_Serial", true, true, false, true, true, true, false);
  check("SZ2_Serial", true, true, true, true, true, true, false);
  check("SZ3_Serial", true, false, true, true, true, true, false);
  check("MGARD-X", true, false, true, true, true, true, true);
  check("SPERR_Serial", true, false, false, true, true, true, false);
  check("FZ-GPU_CUDAsim", false, false, true, true, false, false, true);
  check("cuSZp_CUDAsim", true, false, true, true, true, false, true);
  check("PFPL_Serial", true, true, true, true, true, true, false);
  // PFPL guarantees all three bound types — its headline feature.
  Features pf = find_compressor("PFPL_Serial")->features();
  EXPECT_TRUE(pf.guarantee_abs && pf.guarantee_rel && pf.guarantee_noa);
  // SZ2 supports REL but does not guarantee it.
  Features s2 = find_compressor("SZ2_Serial")->features();
  EXPECT_FALSE(s2.guarantee_rel);
  EXPECT_TRUE(s2.guarantee_abs);
}

TEST(Registry, EverySupportedComboRoundtrips) {
  // Smoke sweep: every compressor x supported bound type x dtype on a small
  // 3D field round-trips without throwing and with bounded error.
  auto vf = smooth3d({8, 16, 16}, 91);
  std::vector<double> vd(vf.begin(), vf.end());
  for (const auto& c : all_compressors()) {
    Features f = c->features();
    for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
      if (!f.supports(eb)) continue;
      if (f.f32) {
        Bytes s = c->compress(Field(vf.data(), {8, 16, 16}), 1e-3, eb);
        auto back = c->decompress_as<float>(s);
        ASSERT_EQ(back.size(), vf.size()) << c->name();
        if (f.guarantees(eb))
          EXPECT_EQ(metrics::count_violations(std::span<const float>(vf),
                                              std::span<const float>(back), 1e-3, eb),
                    0u)
              << c->name() << " " << to_string(eb);
      }
      if (f.f64) {
        Bytes s = c->compress(Field(vd.data(), {8, 16, 16}), 1e-3, eb);
        auto back = c->decompress_as<double>(s);
        ASSERT_EQ(back.size(), vd.size()) << c->name();
      }
    }
  }
}
