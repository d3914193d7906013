// Tests for the streaming PFPL interface: incremental encode must be
// byte-identical to the one-shot API, and the pull-based decoder must
// reproduce values exactly under arbitrary read granularities.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#include "core/pfpl.hpp"
#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "data/rng.hpp"

using namespace repro;
using pfpl::StreamDecoder;
using pfpl::StreamEncoder;

// Live bytes allocated through the global operator new in this binary, so a
// test can measure what an object keeps allocated. Each block carries its
// size in a prefix that keeps the default new alignment.
namespace {
std::atomic<std::ptrdiff_t> g_live_heap_bytes{0};
constexpr std::size_t kSizePrefix = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n + kSizePrefix);
  if (!p) throw std::bad_alloc();
  *static_cast<std::size_t*>(p) = n;
  g_live_heap_bytes += static_cast<std::ptrdiff_t>(n);
  return static_cast<char*>(p) + kSizePrefix;
}

void operator delete(void* p) noexcept {
  if (!p) return;
  char* block = static_cast<char*>(p) - kSizePrefix;
  g_live_heap_bytes -= static_cast<std::ptrdiff_t>(*reinterpret_cast<std::size_t*>(block));
  std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

std::vector<float> wave(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(std::sin(acc) + acc);
  }
  return v;
}

}  // namespace

TEST(Stream, EncoderMatchesOneShotByteForByte) {
  auto v = wave(50000, 1);
  StreamEncoder enc(DType::F32, {.eps = 1e-3, .eb = EbType::ABS});
  // Append in awkward pieces.
  std::size_t i = 0;
  data::Rng rng(2);
  while (i < v.size()) {
    std::size_t take = std::min<std::size_t>(1 + rng.next_u64() % 7000, v.size() - i);
    enc.append(std::span<const float>(v.data() + i, take));
    i += take;
  }
  Bytes streamed = enc.finish();
  Bytes oneshot = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  EXPECT_EQ(streamed, oneshot);
}

TEST(Stream, RelAndNoaMatchOneShot) {
  auto v = wave(20000, 3);
  {
    StreamEncoder enc(DType::F32, {.eps = 1e-2, .eb = EbType::REL});
    enc.append(std::span<const float>(v));
    EXPECT_EQ(enc.finish(), pfpl::compress(Field(v.data(), v.size()), {1e-2, EbType::REL}));
  }
  {
    // NOA: feed the true range so the derived bound matches the one-shot.
    float mn = v[0], mx = v[0];
    for (float x : v) {
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
    StreamEncoder enc(DType::F32, {.eps = 1e-2,
                                   .eb = EbType::NOA,
                                   .noa_range = static_cast<double>(mx) - mn});
    enc.append(std::span<const float>(v));
    EXPECT_EQ(enc.finish(), pfpl::compress(Field(v.data(), v.size()), {1e-2, EbType::NOA}));
  }
}

TEST(Stream, NoaWithoutRangeThrows) {
  EXPECT_THROW(StreamEncoder(DType::F32, {.eps = 1e-2, .eb = EbType::NOA}),
               CompressionError);
}

TEST(Stream, NoaErrorPathFullCoverage) {
  // The missing-range rejection must hold for both dtypes ...
  EXPECT_THROW(StreamEncoder(DType::F64, {.eps = 1e-2, .eb = EbType::NOA}),
               CompressionError);
  // ... and supplying a range does not bypass bound validation: a negative
  // or non-finite derived bound is rejected by the quantizer.
  EXPECT_THROW(StreamEncoder(DType::F32,
                             {.eps = -1.0, .eb = EbType::NOA, .noa_range = 2.0}),
               CompressionError);
  EXPECT_THROW(
      StreamEncoder(DType::F64,
                    {.eps = std::numeric_limits<double>::infinity(),
                     .eb = EbType::NOA,
                     .noa_range = 2.0}),
      CompressionError);
  // A valid range constructs fine and zero values stay within bound.
  StreamEncoder enc(DType::F32, {.eps = 1e-2, .eb = EbType::NOA, .noa_range = 4.0});
  std::vector<float> zeros(10, 0.0f);
  enc.append(std::span<const float>(zeros));
  Bytes c = enc.finish();
  auto back = pfpl::decompress_as<float>(c);
  EXPECT_EQ(back, zeros);
}

TEST(Stream, DecoderReadsArbitraryGranularities) {
  auto v = wave(30000, 4);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  auto want = pfpl::decompress_as<float>(c);

  StreamDecoder dec(c);
  EXPECT_EQ(dec.header().value_count, v.size());
  std::vector<float> got;
  std::vector<float> buf(977);  // deliberately not chunk-aligned
  for (;;) {
    std::size_t n = dec.read(std::span<float>(buf));
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_EQ(got, want);
}

TEST(Stream, DecoderSingleValueReads) {
  auto v = wave(5000, 5);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  auto want = pfpl::decompress_as<float>(c);
  StreamDecoder dec(c);
  for (std::size_t i = 0; i < v.size(); ++i) {
    float x;
    ASSERT_EQ(dec.read(std::span<float>(&x, 1)), 1u);
    ASSERT_EQ(x, want[i]) << i;
  }
  float x;
  EXPECT_EQ(dec.read(std::span<float>(&x, 1)), 0u);
}

TEST(Stream, DoublePrecisionRoundtrip) {
  data::Rng rng(6);
  std::vector<double> v(10000);
  double acc = 0;
  for (auto& x : v) {
    acc += rng.gaussian();
    x = acc;
  }
  StreamEncoder enc(DType::F64, {.eps = 1e-4, .eb = EbType::ABS});
  enc.append(std::span<const double>(v.data(), 3000));
  enc.append(std::span<const double>(v.data() + 3000, 7000));
  Bytes c = enc.finish();
  EXPECT_EQ(c, pfpl::compress(Field(v.data(), v.size()), {1e-4, EbType::ABS}));

  StreamDecoder dec(c);
  std::vector<double> got(v.size());
  EXPECT_EQ(dec.read(std::span<double>(got)), v.size());
  EXPECT_EQ(got, pfpl::decompress_as<double>(c));
}

TEST(Stream, EmptyStream) {
  StreamEncoder enc(DType::F32, {.eps = 1e-3, .eb = EbType::ABS});
  Bytes c = enc.finish();
  StreamDecoder dec(c);
  EXPECT_EQ(dec.remaining(), 0u);
  float x;
  EXPECT_EQ(dec.read(std::span<float>(&x, 1)), 0u);
}

TEST(Stream, CompressedSizeGrowsMonotonically) {
  auto v = wave(40000, 7);
  StreamEncoder enc(DType::F32, {.eps = 1e-3, .eb = EbType::ABS});
  std::size_t last = 0;
  for (std::size_t i = 0; i < v.size(); i += 8192) {
    enc.append(std::span<const float>(v.data() + i, std::min<std::size_t>(8192, v.size() - i)));
    EXPECT_GE(enc.compressed_size_so_far(), last);
    last = enc.compressed_size_so_far();
  }
  EXPECT_GT(last, 0u);
}

TEST(Stream, EncoderRetainsCompressedNotRawBytes) {
  // The encoder appends every chunk to one growing buffer, so between
  // appends it holds about the compressed bytes, not the raw values: the
  // full dataset never has to exist in memory.
  auto v = wave(1 << 19, 13);
  const std::size_t raw = v.size() * sizeof(float);
  StreamEncoder enc(DType::F32, {.eps = 1e-2, .eb = EbType::ABS});
  const std::ptrdiff_t before = g_live_heap_bytes.load();
  for (std::size_t i = 0; i < v.size(); i += 10000)
    enc.append(std::span<const float>(v.data() + i, std::min<std::size_t>(10000, v.size() - i)));
  const std::ptrdiff_t retained = g_live_heap_bytes.load() - before;
  const std::size_t compressed = enc.compressed_size_so_far();
  ASSERT_LT(compressed, raw / 4) << "the input must compress for this check to mean anything";
  // Vector growth can double the buffer, and one chunk's encoder may reserve
  // its worst case; the chunk table adds 4 bytes a chunk.
  EXPECT_LE(retained, static_cast<std::ptrdiff_t>(2 * compressed + 4 * pfpl::kChunkBytes))
      << "raw bytes appended: " << raw;
  Bytes c = enc.finish();
  EXPECT_EQ(c, pfpl::compress(Field(v.data(), v.size()), {1e-2, EbType::ABS}));
}

namespace {

/// Reads all of `c` through StreamDecoder in `batch`-value pieces, and
/// through one-shot decompress(): both must throw CompressionError or both
/// must return the same bytes. Any other exception fails the test.
template <typename T>
void expect_stream_matches_oneshot(const Bytes& c, std::size_t batch) {
  bool stream_threw = false, oneshot_threw = false;
  std::vector<T> got;
  try {
    StreamDecoder dec(c);
    std::vector<T> buf(batch);
    while (std::size_t n = dec.read(std::span<T>(buf)))
      got.insert(got.end(), buf.begin(), buf.begin() + n);
  } catch (const CompressionError&) {
    stream_threw = true;
  }
  std::vector<u8> want;
  try {
    want = pfpl::decompress(c);
  } catch (const CompressionError&) {
    oneshot_threw = true;
  }
  ASSERT_EQ(stream_threw, oneshot_threw);
  if (stream_threw) return;
  ASSERT_EQ(got.size() * sizeof(T), want.size());
  // Bytewise: a damaged payload may decode to NaNs.
  EXPECT_EQ(0, want.empty() ? 0 : std::memcmp(got.data(), want.data(), want.size()));
}

template <typename T>
void corrupt_and_compare(const Bytes& c, u64 seed) {
  data::Rng rng(seed);
  // Truncations.
  for (int t = 0; t < 100; ++t) {
    Bytes cut(c.begin(), c.begin() + rng.next_u64() % c.size());
    SCOPED_TRACE("truncated to " + std::to_string(cut.size()) + " bytes");
    expect_stream_matches_oneshot<T>(cut, 1024);
  }
  // Bit flips.
  for (int t = 0; t < 200; ++t) {
    Bytes bad = c;
    const u8 bit = static_cast<u8>(1u << (rng.next_u64() % 8));
    const std::size_t at = rng.next_u64() % bad.size();
    bad[at] ^= bit;
    SCOPED_TRACE("bit flip in byte " + std::to_string(at));
    expect_stream_matches_oneshot<T>(bad, 4096);
  }
}

}  // namespace

TEST(Stream, CorruptStreamsThrowNotCrash) {
  // The stream reader and the one-shot decoder share the chunk-table reader
  // and chunk decoder, so on damaged bytes they must agree exactly.
  auto v = wave(30000, 9);
  corrupt_and_compare<float>(pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS}), 10);
  std::vector<double> d(v.begin(), v.end());
  corrupt_and_compare<double>(pfpl::compress(Field(d.data(), d.size()), {1e-3, EbType::REL}),
                              11);
}

TEST(Stream, HostileChunkCountRejected) {
  // Counts that agree, but a 4 GiB chunk table that is not there: the reader
  // must refuse the header before sizing anything from it.
  pfpl::Header h;
  h.dtype = DType::F32;
  h.eps = h.recon_param = 1e-3;
  h.chunk_count = u32{1} << 30;
  h.value_count = (u64{1} << 30) * 4096;
  Bytes c;
  pfpl::write_header(h, c);
  ASSERT_EQ(c.size(), 40u);
  EXPECT_THROW({ StreamDecoder dec(c); }, CompressionError);
  EXPECT_THROW(pfpl::decompress(c), CompressionError);
}

TEST(Stream, NoaBoundParityWithOneShot) {
  // The stream encoder plans with the one-shot planner: a NOA eps that
  // compress() rejects is rejected with the same error, whatever the range.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const float v[] = {0.0f, 1.0f};
  for (double eps : {-1.0, nan, inf}) {
    std::string oneshot;
    try {
      pfpl::compress(Field(v, 2), {eps, EbType::NOA});
    } catch (const CompressionError& e) {
      oneshot = e.what();
    }
    ASSERT_FALSE(oneshot.empty()) << "compress accepted NOA eps " << eps;
    for (double range : {0.0, -1.0, 1.0}) {
      try {
        StreamEncoder(DType::F32, {.eps = eps, .eb = EbType::NOA, .noa_range = range});
        ADD_FAILURE() << "StreamEncoder accepted NOA eps " << eps << " range " << range;
      } catch (const CompressionError& e) {
        EXPECT_EQ(e.what(), oneshot) << "eps " << eps << " range " << range;
      }
    }
  }
  // A one-shot range is always finite and >= 0; a streamed one must be too.
  for (double range : {-1.0, nan, inf, -inf})
    EXPECT_THROW(StreamEncoder(DType::F64, {.eps = 1e-2, .eb = EbType::NOA, .noa_range = range}),
                 CompressionError)
        << range;
}

TEST(Stream, DtypeMismatchThrows) {
  StreamEncoder enc(DType::F32, {.eps = 1e-3, .eb = EbType::ABS});
  std::vector<double> d(10, 1.0);
  EXPECT_THROW(enc.append(std::span<const double>(d)), CompressionError);
  std::vector<float> f(10, 1.0f);
  enc.append(std::span<const float>(f));
  Bytes c = enc.finish();
  StreamDecoder dec(c);
  std::vector<double> out(10);
  EXPECT_THROW(dec.read(std::span<double>(out)), CompressionError);
}

TEST(Stream, StreamedOutputDecodableByEveryExecutor) {
  auto v = wave(20000, 8);
  StreamEncoder enc(DType::F32, {.eps = 1e-3, .eb = EbType::REL});
  enc.append(std::span<const float>(v));
  Bytes c = enc.finish();
  auto serial = pfpl::decompress_as<float>(c, pfpl::Executor::Serial);
  auto omp = pfpl::decompress_as<float>(c, pfpl::Executor::OpenMP);
  auto gpu = pfpl::decompress_as<float>(c, pfpl::Executor::GpuSim);
  EXPECT_EQ(serial, omp);
  EXPECT_EQ(serial, gpu);
}
