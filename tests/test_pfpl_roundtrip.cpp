// End-to-end PFPL tests: full compress/decompress round-trips on synthetic
// SDRBench-like data, bound verification via the external metrics judge, and
// container-format behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "common/hash.hpp"
#include "core/chunked.hpp"
#include "core/pfpl.hpp"
#include "data/rng.hpp"
#include "fpmath/traits.hpp"
#include "data/synthetic.hpp"
#include "metrics/error_stats.hpp"
#include "tiers.hpp"

using namespace repro;
using pfpl::Executor;
using pfpl::Params;

// Heap allocations through the global operator new in this binary, so a test
// can count what one call allocates. Not inlined: GCC's
// -Wmismatched-new-delete misreads an inlined free().
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_heap_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

template <typename T>
void roundtrip_and_verify(const std::vector<T>& data, double eps, EbType eb,
                          Executor exec = Executor::Serial) {
  Bytes c = pfpl::compress(Field(data.data(), data.size()), Params{eps, eb, exec});
  std::vector<T> back = pfpl::decompress_as<T>(c, exec);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_EQ(metrics::count_violations(std::span<const T>(data), std::span<const T>(back),
                                      eps, eb),
            0u);
}

std::vector<float> smooth_signal(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 0.01 * rng.gaussian();
    v[i] = static_cast<float>(std::sin(i * 0.001) + acc);
  }
  return v;
}

}  // namespace

TEST(PfplRoundtrip, EmptyInput) {
  std::vector<float> v;
  Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, EbType::ABS});
  EXPECT_TRUE(pfpl::decompress_as<float>(c).empty());
}

TEST(PfplRoundtrip, SingleValue) {
  std::vector<float> v{3.14159f};
  roundtrip_and_verify(v, 1e-3, EbType::ABS);
  roundtrip_and_verify(v, 1e-3, EbType::REL);
  roundtrip_and_verify(v, 1e-3, EbType::NOA);
}

TEST(PfplRoundtrip, SubChunkSizes) {
  for (std::size_t n : {1u, 31u, 32u, 33u, 100u, 4095u, 4096u, 4097u, 10000u}) {
    auto v = smooth_signal(n, n);
    roundtrip_and_verify(v, 1e-3, EbType::ABS);
  }
}

TEST(PfplRoundtrip, MultiChunkAllBoundTypes) {
  auto v = smooth_signal(100000, 5);
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA})
    for (double eps : {1e-1, 1e-2, 1e-3, 1e-4}) roundtrip_and_verify(v, eps, eb);
}

TEST(PfplRoundtrip, DoublePrecision) {
  data::Rng rng(6);
  std::vector<double> v(50000);
  double acc = 0;
  for (auto& x : v) {
    acc += rng.gaussian();
    x = acc;
  }
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA})
    roundtrip_and_verify(v, 1e-3, eb);
}

TEST(PfplRoundtrip, ConstantData) {
  std::vector<float> v(20000, 42.0f);
  roundtrip_and_verify(v, 1e-3, EbType::ABS);
  roundtrip_and_verify(v, 1e-3, EbType::REL);
  // NOA with zero range: bound is 0, must reconstruct exactly.
  Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, EbType::NOA});
  auto back = pfpl::decompress_as<float>(c);
  EXPECT_EQ(back, v);
}

TEST(PfplRoundtrip, SpecialValuesInline) {
  auto v = smooth_signal(10000, 7);
  v[5] = std::numeric_limits<float>::quiet_NaN();
  v[100] = std::numeric_limits<float>::infinity();
  v[4096] = -std::numeric_limits<float>::infinity();
  v[9999] = std::numeric_limits<float>::denorm_min();
  for (EbType eb : {EbType::ABS, EbType::REL}) {
    Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, eb});
    auto back = pfpl::decompress_as<float>(c);
    EXPECT_TRUE(std::isnan(back[5]));
    EXPECT_EQ(back[100], v[100]);
    EXPECT_EQ(back[4096], v[4096]);
    EXPECT_EQ(metrics::count_violations(std::span<const float>(v),
                                        std::span<const float>(back), 1e-3, eb),
              0u);
  }
}

TEST(PfplRoundtrip, IncompressibleDataUsesRawChunks) {
  // Random bit patterns (filtered to finite values) barely quantize; the
  // stream must stay close to the input size thanks to the raw-chunk cap.
  data::Rng rng(8);
  std::vector<float> v(65536);
  for (auto& x : v) {
    u32 b = static_cast<u32>(rng.next_u64());
    float f = fpmath::from_bits<float>(b);
    x = std::isfinite(f) ? f : 1.0f;
  }
  Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-10, EbType::REL});
  EXPECT_LT(c.size(), v.size() * sizeof(float) * 11 / 10 + 1024);
  auto back = pfpl::decompress_as<float>(c);
  EXPECT_EQ(metrics::count_violations(std::span<const float>(v), std::span<const float>(back),
                                      1e-10, EbType::REL),
            0u);
}

TEST(PfplGuaranteeCost, CountsLosslessWordsAndRawChunks) {
  // Multiples of 2*eps bin exactly, so only the NaN in chunk 0 and the value
  // beyond the bin range in chunk 2 are stored losslessly.
  const double eps = 0x1p-10;
  std::vector<float> v(4 * 4096);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<float>(i % 1000) * 0x1p-9f;
  v[5] = std::numeric_limits<float>::quiet_NaN();
  v[2 * 4096 + 7] = 1e30f;
  const Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{eps, EbType::ABS});
  pfpl::GuaranteeCost g = pfpl::guarantee_cost(c);
  EXPECT_EQ(g.values_lossless, 2u);
  EXPECT_EQ(g.first_lossless_chunk, 0);
  EXPECT_EQ(g.chunks_raw, 0u);
  // Random patterns barely quantize: most words are lossless, chunks raw.
  data::Rng rng(8);
  for (auto& x : v) x = fpmath::from_bits<float>(static_cast<u32>(rng.next_u64()) & 0x7F7FFFFFu);
  g = pfpl::guarantee_cost(pfpl::compress(Field(v.data(), v.size()), Params{1e-10, EbType::REL}));
  EXPECT_EQ(g.chunks_raw, 4u);
  EXPECT_GT(g.values_lossless, v.size() / 2);
  EXPECT_EQ(g.first_lossless_chunk, 0);
  // No lossless word: -1.
  std::vector<double> zeros(100, 0.0);
  g = pfpl::guarantee_cost(
      pfpl::compress(Field(zeros.data(), zeros.size()), Params{1e-3, EbType::REL}));
  EXPECT_EQ(g.values_lossless, 0u);
  EXPECT_EQ(g.first_lossless_chunk, -1);
}

TEST(PfplRoundtrip, SmoothDataCompressesWell) {
  auto v = smooth_signal(1 << 20, 9);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-2, EbType::ABS});
  double ratio = static_cast<double>(v.size() * 4) / static_cast<double>(c.size());
  EXPECT_GT(ratio, 4.0);  // smooth data must actually compress
}

TEST(PfplRoundtrip, HeaderRoundtrips) {
  auto v = smooth_signal(1000, 10);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, EbType::NOA});
  pfpl::Header h = pfpl::peek_header(c);
  EXPECT_EQ(h.dtype, DType::F32);
  EXPECT_EQ(h.eb_type, EbType::NOA);
  EXPECT_EQ(h.value_count, v.size());
  EXPECT_DOUBLE_EQ(h.eps, 1e-3);
  EXPECT_GT(h.recon_param, 0.0);  // eps * range
}

TEST(PfplRoundtrip, CorruptStreamsThrow) {
  auto v = smooth_signal(10000, 11);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, EbType::ABS});
  Bytes bad = c;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW(pfpl::decompress(bad), CompressionError);
  Bytes trunc(c.begin(), c.begin() + c.size() / 2);
  EXPECT_THROW(pfpl::decompress(trunc), CompressionError);
  Bytes tiny(c.begin(), c.begin() + 10);
  EXPECT_THROW(pfpl::decompress(tiny), CompressionError);
}

TEST(PfplRoundtrip, AllSyntheticSuitesAllBounds) {
  // The headline guarantee on every suite regime (small files for speed).
  auto suites = data::generate_all(1 << 14, 1);
  for (const auto& s : suites) {
    for (const auto& f : s.files) {
      for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
        for (double eps : {1e-2, 1e-4}) {
          Bytes c = pfpl::compress(f.field(), Params{eps, eb});
          if (f.dtype == DType::F32) {
            auto back = pfpl::decompress_as<float>(c);
            EXPECT_EQ(metrics::count_violations(std::span<const float>(f.f32),
                                                std::span<const float>(back), eps, eb),
                      0u)
                << s.spec.name << "/" << f.name << " " << to_string(eb) << " " << eps;
          } else {
            auto back = pfpl::decompress_as<double>(c);
            EXPECT_EQ(metrics::count_violations(std::span<const double>(f.f64),
                                                std::span<const double>(back), eps, eb),
                      0u)
                << s.spec.name << "/" << f.name << " " << to_string(eb) << " " << eps;
          }
        }
      }
    }
  }
}

// Parameterized executor sweep: every executor must satisfy the bound and
// interoperate with every other executor's streams.
class ExecutorSweep : public ::testing::TestWithParam<Executor> {};

TEST_P(ExecutorSweep, RoundtripAllBounds) {
  auto v = smooth_signal(50000, 12);
  for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA})
    roundtrip_and_verify(v, 1e-3, eb, GetParam());
}

TEST_P(ExecutorSweep, CrossExecutorDecode) {
  auto v = smooth_signal(50000, 13);
  Bytes c = pfpl::compress(Field(v.data(), v.size()),
                           Params{1e-3, EbType::ABS, GetParam()});
  auto serial = pfpl::decompress_as<float>(c, Executor::Serial);
  auto omp = pfpl::decompress_as<float>(c, Executor::OpenMP);
  auto gpu = pfpl::decompress_as<float>(c, Executor::GpuSim);
  EXPECT_EQ(serial, omp);
  EXPECT_EQ(serial, gpu);
}

INSTANTIATE_TEST_SUITE_P(Executors, ExecutorSweep,
                         ::testing::Values(Executor::Serial, Executor::OpenMP,
                                           Executor::GpuSim));

// ---------------------------------------------------------------------------
// Golden streams: pinned digests of compress() output and of its decompress()
// output. Any change to the quantizers or the lossless stages that alters a
// single stream byte or decoded bit fails here. The inputs are built from
// integer RNG bits and `+`/`*` only (no libm), so the digests do not depend on
// the host's math library; every executor must reproduce the same digests.
// ---------------------------------------------------------------------------

namespace {

using fpmath::FloatTraits;

// Two full 16 KiB chunks plus a ragged tail, for either word width.
template <typename T>
constexpr std::size_t kGoldenCount = 2 * 16384 / sizeof(T) + 1003;

/// Random bit patterns with every special class (±0, ±inf, ±NaN, denormals,
/// extreme normals) interleaved at a fixed stride.
template <typename T>
std::vector<T> golden_bits(u64 seed) {
  using FT = FloatTraits<T>;
  using Bits = typename FT::Bits;
  const Bits specials[] = {Bits{0},
                           FT::sign_mask,
                           FT::pos_inf,
                           FT::neg_inf,
                           static_cast<Bits>(FT::pos_inf | (FT::mantissa_mask >> 1) | 1),
                           static_cast<Bits>(FT::neg_inf | 1),
                           Bits{1},
                           static_cast<Bits>(FT::sign_mask | 1),
                           static_cast<Bits>(FT::denormal_limit - 1),
                           FT::denormal_limit,
                           static_cast<Bits>(FT::pos_inf - 1),
                           static_cast<Bits>(FT::neg_inf - 1)};
  constexpr std::size_t ns = sizeof(specials) / sizeof(specials[0]);
  data::Rng rng(seed);
  std::vector<T> v(kGoldenCount<T>);
  for (std::size_t i = 0; i < v.size(); ++i) {
    Bits b = static_cast<Bits>(rng.next_u64());
    if (i % 61 == 0) b = specials[(i / 61) % ns];
    v[i] = fpmath::from_bits<T>(b);
  }
  return v;
}

/// Normal values of random sign and mantissa with exponents within ±40 of
/// 2^0: the regime where REL bins and ABS bins/raw values both occur.
template <typename T>
std::vector<T> golden_wide(u64 seed) {
  using FT = FloatTraits<T>;
  using Bits = typename FT::Bits;
  constexpr Bits exp_bias = (Bits{1} << (FT::exponent_bits - 1)) - 1;
  data::Rng rng(seed);
  std::vector<T> v(kGoldenCount<T>);
  for (auto& x : v) {
    const u64 r = rng.next_u64();
    const Bits e = static_cast<Bits>(exp_bias - 40 + r % 81);
    const Bits sign = (r >> 7) & 1 ? FT::sign_mask : Bits{0};
    const Bits mant = static_cast<Bits>(rng.next_u64()) & FT::mantissa_mask;
    x = fpmath::from_bits<T>(static_cast<Bits>(sign | (e << FT::mantissa_bits) | mant));
  }
  return v;
}

/// A ramp with integer-valued noise plus a staircase, via `+`/`*` only.
template <typename T>
std::vector<T> golden_ramp(u64 seed) {
  data::Rng rng(seed);
  std::vector<T> v(kGoldenCount<T>);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double noise = static_cast<double>(static_cast<i64>(rng.next_u64() % 4096) - 2048);
    const double step = static_cast<double>(i / 257) * 0.37;
    v[i] = static_cast<T>(static_cast<double>(i) * 0.001 - 3.0 + noise * 1e-5 + step);
  }
  return v;
}

struct GoldenDigest {
  const char* name;
  const char* stream;  ///< hash128 of compress() output
  const char* values;  ///< hash128 of decompress() output
};

// Generated from the seed quantizer (per-value encode()/decode()).
const GoldenDigest kGolden[] = {
    {"f32/bits/ABS/1e-02", "61787b1219b854a7a1b4b7f4ce2e752a", "370fbcbee2a1e6569ada0da395344993"},
    {"f32/bits/ABS/1e-04", "0fde2bb6bcba67b0e214ea358ae88265", "9b44921ed71092de64950eb010e962d3"},
    {"f32/bits/REL/1e-02", "c4149b5b690db8ecba67cb8cab200254", "a53b499e6261a2fa9f85fce3240613d4"},
    {"f32/bits/REL/1e-04", "741c48a5ffcc0526d1bc6273d39b2ae5", "c83688be4d60592e2d582142571b8fb4"},
    {"f32/bits/NOA/1e-02", "35207165c315383207f6ad2724ab960e", "3ea1a0c09a849e3c505ada24c5f69181"},
    {"f32/bits/NOA/1e-04", "a70b350da63ece4d6ce10da5de015f28", "99b5d95a01eeef9137fc0ecc9cdcab8e"},
    {"f32/wide/ABS/1e-02", "d6084f8abf5c020bedc294f31e922ef6", "c50e86d58d4c1f26d9332d8328615db5"},
    {"f32/wide/ABS/1e-04", "3cd7f6638c874d4b1f0f503dbfc9af2c", "a2831effa924eb2ba8fee81ca5d18637"},
    {"f32/wide/REL/1e-02", "e4bbbfee9a3c797078bcd28053ccac34", "19c23834f41ecd36ee3e168aa56187a1"},
    {"f32/wide/REL/1e-04", "c455711517586252e0d339f11b333fe8", "a83d1333da5de91b2059497255173592"},
    {"f32/wide/NOA/1e-02", "cb9a0110e836dda0351ca016f3993e43", "0893ae2656008cde6da3f158ce1756bd"},
    {"f32/wide/NOA/1e-04", "dc2fccb4d18a70f2ff04d2fca1d352d9", "0098941afe27772c2e9448cd798f3e55"},
    {"f32/ramp/ABS/1e-02", "6d4c7c79a2ee4f9336c735274d05234b", "e7319868b00fd6d9ad5861475eb3e0c7"},
    {"f32/ramp/ABS/1e-04", "1aa57261a9fec5ca794cb6480ef7ed1f", "bea991bd4559619ab5d3a981922867d7"},
    {"f32/ramp/REL/1e-02", "cb0088140577cea95d9df871d2f24876", "422a625c5ce73d61729873541944050a"},
    {"f32/ramp/REL/1e-04", "4faef91ac2a75200026c8a58725d85e5", "77c54044a3467a8f5468cd73365ce6d2"},
    {"f32/ramp/NOA/1e-02", "c47b0d6c3e1c2819af4f2514afd61fb4", "50c144a821dd2105382178f4ce94d61a"},
    {"f32/ramp/NOA/1e-04", "df03bd26e39a0216bfa427cf2df37866", "0c08beefb43cdf9010b8178ab36e45fc"},
    {"f64/bits/ABS/1e-02", "085de41c09e64a039e60e5ee507716e2", "0f19cc1ab562387e8e97251ff6451a26"},
    {"f64/bits/ABS/1e-04", "1eab9116fb0a1986f57e5425aa468ea5", "82ee0ab18c690401fd180338d976506e"},
    {"f64/bits/REL/1e-02", "465314a6899f04d2aa406fcba44e53b5", "f1f545f3c227fdf507954a85f584bad5"},
    {"f64/bits/REL/1e-04", "b50c461ca6d961f7d85c589195e1344a", "87e417c0fbafd60085f9189c578306bf"},
    {"f64/bits/NOA/1e-02", "bb4f8314c768f416ec0ca0ed28e4904a", "21ce86bc5c3452452a940f7e5065d1d4"},
    {"f64/bits/NOA/1e-04", "57f4c65c572606be6c7b2605b5146848", "fcb7bfad9b54f686d483be88d7c49cad"},
    {"f64/wide/ABS/1e-02", "28f45a51bd05d06517d27f2a3e639d88", "fda0e1519cb9bb4b9b0ea40b24b41ba4"},
    {"f64/wide/ABS/1e-04", "a7fd9a8bbaab4dd2c9cd78a6df7a0aef", "cbfd92b2cb6d7fe8d2a5f6a9cffa7f6f"},
    {"f64/wide/REL/1e-02", "948c1d34ed793c4e617257cd6e8e5d8f", "b7d5477cfadab14aa840a02f80003cee"},
    {"f64/wide/REL/1e-04", "30b1b256d013acca79714f9cf8b86629", "55899ae8ccbd8c784811e2a0c214df47"},
    {"f64/wide/NOA/1e-02", "6bd8a6b3469b5f80ad034bf3d41f8d0d", "8f24ff3b431cee8fadfa9c41078fa606"},
    {"f64/wide/NOA/1e-04", "725f1b1c4c5a28abb5964e80182d53a6", "d8ecc575a7c6aba89498b765bc69571a"},
    {"f64/ramp/ABS/1e-02", "3f57c90b2a1fbe0981f4efee328b785a", "14d4757090d6e73e3d3dfcbbb59655ee"},
    {"f64/ramp/ABS/1e-04", "09836ddf7abf0fb19ccd892065b586c7", "80335c3ea5fcb44c57f0cea021197330"},
    {"f64/ramp/REL/1e-02", "bafa1f06bcfa63e771e8a92bbe16b2c1", "d3b316f58118356062ee378e14a60b75"},
    {"f64/ramp/REL/1e-04", "366f5e880083648c0ce66b4959a6868e", "80f30845deffc61c12e25a6828df5d4e"},
    {"f64/ramp/NOA/1e-02", "0a7f3263ce7def8c91e7427f95ae7b4f", "ca58497f1fc2c8f139e298251b5c037b"},
    {"f64/ramp/NOA/1e-04", "3658a35a02aaf40f7204e80ee96dfcf2", "8be937646c41f3be547817649bd598ea"},
    {"f32/bits/ABS/1e-40", "9c1693cd3de2ac143ba1d5c46f37dd22", "46e037eb09173326d9b6d8c956ee1eea"},
    {"f32/ramp/ABS/1e-40", "02f6f991019861c33801e9ef92856cc7", "71717ce8f34f60e4548d9d467b3b76c6"},
    {"f64/bits/ABS/1e-40", "44db83df2237b0c7ca96a39165643bde", "62c5828fc95165d1c6ef26eb16df487c"},
    {"f64/bits/ABS/1e-310", "23471ce3918903ca4513f01ddfeae442", "0e1531a3e8b1e15ac82fa019f45b82b0"},
    {"f64/ramp/ABS/1e-40", "bb7eeecfcf00de97cfccce72d310ab21", "e215994e50ba73cd2038635515c2112d"},
    {"f64/ramp/ABS/1e-310", "7e873698f04f3fcb14b063c1c7c473ab", "e215994e50ba73cd2038635515c2112d"},
    {"f32/const/NOA/1e-03", "a060c13d4dd81353e31a8d9f1eff1f4f", "2c3bd960e87b2a9aba42e10cccc4a080"},
    {"f64/const/NOA/1e-03", "98336f090636678225e216b1e19e3345", "ec47553a54aa266b70a43c6e3595f05d"},
    {"f32/zeros/NOA/1e-03", "0e8dea06dcc46a0cbc8dfc5258bdaf2b", "1b116409cbc373c2bde7689152d05d49"},
    {"f64/zeros/NOA/1e-03", "43cfc04a7cd26d93e3d249d2bc003e8f", "629527bf8e092cfd5040bec45f0bd3f1"},
};

template <typename T>
void check_golden(const std::string& name, const std::vector<T>& data, double eps, EbType eb) {
  const GoldenDigest* want = nullptr;
  for (const auto& g : kGolden)
    if (name == g.name) want = &g;
  // Every rung the CPU has must give the pinned bytes (tests/tiers.hpp).
  tiers::for_each_rung([&] {
    for (Executor exec : {Executor::Serial, Executor::OpenMP, Executor::GpuSim}) {
      Bytes c = pfpl::compress(Field(data.data(), data.size()), Params{eps, eb, exec});
      std::vector<u8> back = pfpl::decompress(c, exec);
      const std::string sh = common::hash128(c.data(), c.size()).hex();
      const std::string vh = common::hash128(back.data(), back.size()).hex();
      ASSERT_NE(want, nullptr) << "missing golden entry: {\"" << name << "\", \"" << sh
                               << "\", \"" << vh << "\"},";
      EXPECT_EQ(sh, want->stream) << name << " exec=" << static_cast<int>(exec);
      EXPECT_EQ(vh, want->values) << name << " exec=" << static_cast<int>(exec);
    }
  });
}

std::string eps_tag(double eps) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.0e", eps);
  return buf;
}

template <typename T>
void check_golden_inputs(const char* dtype) {
  const std::pair<const char*, std::vector<T>> inputs[] = {
      {"bits", golden_bits<T>(41)}, {"wide", golden_wide<T>(42)}, {"ramp", golden_ramp<T>(43)}};
  for (const auto& [iname, data] : inputs) {
    for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
      for (double eps : {1e-2, 1e-4})
        check_golden(std::string(dtype) + "/" + iname + "/" + to_string(eb) + "/" +
                         eps_tag(eps),
                     data, eps, eb);
    }
  }
}

}  // namespace

TEST(PfplGolden, F32AllBounds) { check_golden_inputs<float>("f32"); }

TEST(PfplGolden, F64AllBounds) { check_golden_inputs<double>("f64"); }

TEST(PfplGolden, DegenerateAbs) {
  // 1e-40 is below f32's smallest normal (degenerate mode); f64 needs 1e-310.
  for (auto [name, data] : {std::pair{"bits", golden_bits<float>(44)},
                            std::pair{"ramp", golden_ramp<float>(45)}})
    check_golden(std::string("f32/") + name + "/ABS/1e-40", data, 1e-40, EbType::ABS);
  for (auto [name, data] : {std::pair{"bits", golden_bits<double>(46)},
                            std::pair{"ramp", golden_ramp<double>(47)}}) {
    check_golden(std::string("f64/") + name + "/ABS/1e-40", data, 1e-40, EbType::ABS);
    check_golden(std::string("f64/") + name + "/ABS/1e-310", data, 1e-310, EbType::ABS);
  }
}

TEST(PfplGolden, ConstantFieldNoa) {
  check_golden("f32/const/NOA/1e-03", std::vector<float>(kGoldenCount<float>, 42.5f), 1e-3,
               EbType::NOA);
  check_golden("f64/const/NOA/1e-03", std::vector<double>(kGoldenCount<double>, -7.25), 1e-3,
               EbType::NOA);
}

TEST(PfplGolden, SignedZerosNoa) {
  // The only finite values are zeros of both signs, so NOA's range is the
  // field's first zero at both ends: -0 for f32, +0 for f64. noa_bound maps
  // either sign to a +0 recon_param, so the stream pins the bytes, and
  // QuantizerTiers.NoaRangeMatchesScalar pins the signs themselves.
  const auto field = [](auto first) {
    using T = decltype(first);
    const T inf = std::numeric_limits<T>::infinity();
    const T pattern[] = {std::numeric_limits<T>::quiet_NaN(), first, -first, inf, -first, -inf};
    std::vector<T> v(kGoldenCount<T>);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = pattern[i % 6];
    return v;
  };
  check_golden("f32/zeros/NOA/1e-03", field(-0.0f), 1e-3, EbType::NOA);
  check_golden("f64/zeros/NOA/1e-03", field(0.0), 1e-3, EbType::NOA);
}

// --- per-thread chunk scratch ------------------------------------------------

namespace {

/// Heap allocations made by f().
template <typename F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = g_heap_allocations.load();
  f();
  return g_heap_allocations.load() - before;
}

template <typename T>
void expect_chunk_buffers_reused(EbType eb, const std::string& what) {
  const std::size_t cw = pfpl::chunk_values(Field(static_cast<const T*>(nullptr), 0).dtype);
  std::vector<T> many(64 * cw);
  data::Rng rng(31);
  double acc = 0;
  for (auto& v : many) v = static_cast<T>(std::sin(acc += 0.01 * rng.gaussian()) * 100);
  const std::vector<T> one(many.begin(), many.begin() + static_cast<std::ptrdiff_t>(cw));
  const Params p{1e-3, eb};
  const Field f1(one.data(), one.size()), f64(many.data(), many.size());
  const Bytes c1 = pfpl::compress(f1, p), c64 = pfpl::compress(f64, p);
  pfpl::decompress(c64);  // this thread's scratch has grown to a chunk's needs

  // Serial compress allocates once more per chunk, for the chunk's payload.
  const std::size_t compress1 = allocations_of([&] { pfpl::compress(f1, p); });
  const std::size_t compress64 = allocations_of([&] { pfpl::compress(f64, p); });
  EXPECT_EQ(compress64, compress1 + 63) << what;
  // Serial decompress allocates nothing per chunk.
  const std::size_t decompress1 = allocations_of([&] { pfpl::decompress(c1); });
  const std::size_t decompress64 = allocations_of([&] { pfpl::decompress(c64); });
  EXPECT_EQ(decompress64, decompress1) << what;
}

}  // namespace

TEST(PfplAllocations, ChunkBuffersComeFromThreadScratch) {
  // From the Avx2 rung up; the scalar zero-byte reference allocates its
  // bitmaps on every call.
  tiers::for_each_rung(common::Isa::Avx2, [&] {
    for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
      expect_chunk_buffers_reused<float>(eb, "f32 " + std::string(to_string(eb)));
      expect_chunk_buffers_reused<double>(eb, "f64 " + std::string(to_string(eb)));
    }
  });
}
