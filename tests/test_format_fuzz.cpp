// Failure-injection tests: corrupted, truncated, and bit-flipped compressed
// streams must produce a clean CompressionError (or, where corruption lands
// in value payloads, decode to *something*) — never crash, hang, or read out
// of bounds. Every container format in the repository is fuzzed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "baselines/registry.hpp"
#include "baselines/sz_common.hpp"
#include "common/cpu.hpp"
#include "core/pfpl.hpp"
#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "lc/stage.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz.hpp"
#include "zerobyte_tiers.hpp"

using namespace repro;

namespace {

std::vector<float> field_3d(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(acc);
  }
  return v;
}

/// Decode must either succeed or throw CompressionError; anything else
/// (crash, other exception type) fails the test.
template <typename Fn>
void expect_graceful(Fn&& decode) {
  try {
    decode();
  } catch (const CompressionError&) {
    // fine
  }
}

/// The u32 size table of `nchunks` chunks at byte `table` of s, as stored:
/// PFPL entries keep their raw flag.
std::vector<u32> chunk_sizes(const Bytes& s, std::size_t table, std::size_t nchunks) {
  std::vector<u32> sizes(nchunks);
  std::memcpy(sizes.data(), s.data() + table, nchunks * sizeof(u32));
  return sizes;
}

/// Inserts one junk byte after chunk c's payload and adds 1 to its
/// size-table entry (`nchunks` u32 entries at byte `table`), leaving every
/// other chunk where the table says.
Bytes with_chunk_slack(const Bytes& s, std::size_t table, std::size_t nchunks, std::size_t c) {
  const std::vector<u32> sizes = chunk_sizes(s, table, nchunks);
  std::size_t end = table + sizes.size() * sizeof(u32);
  for (std::size_t i = 0; i <= c; ++i) end += sizes[i] & ~pfpl::kRawChunkFlag;
  Bytes bad(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(end));
  bad.push_back(0x5A);
  bad.insert(bad.end(), s.begin() + static_cast<std::ptrdiff_t>(end), s.end());
  const u32 grown = sizes[c] + 1;  // the raw flag is the top bit: unchanged
  std::memcpy(bad.data() + table + c * sizeof(u32), &grown, sizeof(u32));
  return bad;
}

/// with_chunk_slack for a PFPL stream.
Bytes with_pfpl_chunk_slack(const Bytes& s, std::size_t c) {
  return with_chunk_slack(s, sizeof(pfpl::Header), pfpl::peek_header(s).chunk_count, c);
}

}  // namespace

TEST(Fuzz, PfplChunkSlackRejected) {
  // A size-table entry longer than what its chunk's decoder consumes is
  // damage, not padding: every executor and the stream reader must refuse
  // it, for a compressed chunk (smooth data) and a raw one (random bits).
  std::vector<float> smooth = field_3d(20000, 14), noise(20000);
  data::Rng rng(15);
  for (auto& x : noise) {
    const u32 bits = static_cast<u32>(rng.next_u64());
    std::memcpy(&x, &bits, sizeof(x));
  }
  for (const auto* v : {&smooth, &noise}) {
    const Bytes c = pfpl::compress(Field(v->data(), v->size()), {1e-3, EbType::ABS});
    const pfpl::Header h = pfpl::peek_header(c);
    u32 first_entry;
    std::memcpy(&first_entry, c.data() + sizeof(pfpl::Header), sizeof(u32));
    ASSERT_EQ((first_entry & pfpl::kRawChunkFlag) != 0, v == &noise);
    for (std::size_t chunk : {std::size_t{0}, std::size_t{h.chunk_count - 1}}) {
      const Bytes bad = with_pfpl_chunk_slack(c, chunk);
      for (pfpl::Executor exec :
           {pfpl::Executor::Serial, pfpl::Executor::OpenMP, pfpl::Executor::GpuSim}) {
        EXPECT_NO_THROW(pfpl::decompress(c, exec));
        EXPECT_THROW(pfpl::decompress(bad, exec), CompressionError) << "chunk " << chunk;
      }
      std::vector<float> out(v->size());
      EXPECT_THROW(pfpl::StreamDecoder(bad).read(std::span<float>(out)), CompressionError);
      EXPECT_EQ(pfpl::StreamDecoder(c).read(std::span<float>(out)), out.size());
    }
  }
}

TEST(Fuzz, FzGpuChunkSlackRejected) {
  // The FZ-GPU-like baseline's chunks are bare zero-byte streams: a size
  // entry longer than its chunk's stream must be refused like PFPL's.
  auto v = field_3d(24 * 24 * 24, 16);
  const Field field(v.data(), {24, 24, 24});
  const auto fz = baselines::find_compressor("FZ-GPU_CUDAsim");
  const Bytes c = fz->compress(field, 1e-3, EbType::NOA);
  const std::size_t nchunks = (v.size() + 4095) / 4096;
  ASSERT_GT(nchunks, 1u);
  EXPECT_NO_THROW(fz->decompress(c));
  for (std::size_t chunk : {std::size_t{0}, nchunks - 1})
    EXPECT_THROW(fz->decompress(with_chunk_slack(c, sizeof(baselines::BaselineHeader), nchunks,
                                                 chunk)),
                 CompressionError)
        << "chunk " << chunk;
}

TEST(Fuzz, LcZeroByteStageSlackRejected) {
  // In an LC pipeline the last stage's payload is the rest of the buffer, so
  // one junk byte at the end lengthens the zbe stage's input by one.
  auto v = field_3d(8192, 17);
  std::vector<u8> raw(v.size() * sizeof(float));
  std::memcpy(raw.data(), v.data(), raw.size());
  const lc::Pipeline p(
      {lc::make_diff_negabinary(32), lc::make_bitshuffle(32), lc::make_zerobyte()});
  std::vector<u8> enc = p.encode(raw);
  EXPECT_EQ(p.decode(enc, raw.size()), raw);
  enc.push_back(0x5A);
  EXPECT_THROW(p.decode(enc, raw.size()), CompressionError);
}

TEST(Fuzz, ZeroByteTiersAgreeOnMutatedSuiteChunks) {
  if (!common::has_avx2()) GTEST_SKIP() << "this CPU has no AVX2";
  // Every compressed chunk of one small file per paper suite, under bounded
  // seeded damage: bit flips in the front of the chunk, where the top bitmap
  // and the repeat bytes sit; truncation by 1..8 bytes; one slack byte.
  data::Rng rng(18);
  const std::vector<data::SuiteSpec> specs = data::paper_suites();
  std::size_t compressed = 0;
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const data::Suite suite = data::generate(specs[si], 1 << 14, 1);
    const data::SyntheticFile& file = suite.files.at(0);
    const EbType eb = si % 3 == 0 ? EbType::ABS : si % 3 == 1 ? EbType::REL : EbType::NOA;
    const Bytes c = pfpl::compress(file.field(), {1e-3, eb});
    const pfpl::Header h = pfpl::peek_header(c);
    const std::size_t width = h.dtype == DType::F32 ? 4 : 8;
    const std::size_t per_chunk = pfpl::kChunkBytes / width;
    const std::size_t table = sizeof(pfpl::Header);
    const std::vector<u32> sizes = chunk_sizes(c, table, h.chunk_count);
    std::size_t off = table + sizes.size() * sizeof(u32);
    for (std::size_t ci = 0; ci < sizes.size(); ++ci) {
      const std::size_t at = off, csize = sizes[ci] & ~pfpl::kRawChunkFlag;
      off += csize;
      if (sizes[ci] & pfpl::kRawChunkFlag) continue;
      ++compressed;
      const std::vector<u8> payload(c.begin() + static_cast<std::ptrdiff_t>(at),
                                    c.begin() + static_cast<std::ptrdiff_t>(at + csize));
      const std::size_t k = std::min(per_chunk, h.value_count - ci * per_chunk);
      const std::size_t n = (width == 4 ? pfpl::padded_words<u32>(k)
                                        : pfpl::padded_words<u64>(k)) * width;
      const std::string what = specs[si].name + " chunk " + std::to_string(ci);
      tiers::expect_decode_agrees(payload, n, what);
      const std::size_t front = std::min<std::size_t>(payload.size(), 256);
      for (int t = 0; t < 8; ++t) {
        std::vector<u8> bad = payload;
        for (int f = 0; f <= t % 3; ++f)
          bad[rng.next_u64() % front] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
        tiers::expect_decode_agrees(bad, n, what + " flip " + std::to_string(t));
      }
      for (std::size_t cut = 1; cut <= std::min<std::size_t>(8, payload.size()); ++cut)
        tiers::expect_decode_agrees(std::vector<u8>(payload.begin(), payload.end() - cut), n,
                                    what + " cut " + std::to_string(cut));
      std::vector<u8> slack = payload;
      slack.push_back(static_cast<u8>(rng.next_u64()));
      tiers::expect_decode_agrees(slack, n, what + " slack");
    }
  }
  EXPECT_GE(compressed, specs.size()) << "too few compressed chunks to compare";
}

TEST(Fuzz, PfplTruncationsAllLengths) {
  auto v = field_3d(20000, 1);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  data::Rng rng(2);
  for (int t = 0; t < 200; ++t) {
    std::size_t len = rng.next_u64() % c.size();
    Bytes cut(c.begin(), c.begin() + len);
    expect_graceful([&] { pfpl::decompress(cut); });
  }
}

TEST(Fuzz, PfplRandomByteFlips) {
  auto v = field_3d(20000, 3);
  for (EbType eb : {EbType::ABS, EbType::REL}) {
    Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, eb});
    data::Rng rng(4);
    for (int t = 0; t < 300; ++t) {
      Bytes bad = c;
      int flips = 1 + static_cast<int>(rng.next_u64() % 8);
      for (int f = 0; f < flips; ++f)
        bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
      expect_graceful([&] { pfpl::decompress(bad); });
    }
  }
}

TEST(Fuzz, PfplHeaderFieldCorruption) {
  auto v = field_3d(5000, 5);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  // Exhaustively flip each byte of the header and the chunk table.
  std::size_t scan = std::min<std::size_t>(c.size(), 256);
  for (std::size_t i = 0; i < scan; ++i) {
    for (u8 bit = 0; bit < 8; ++bit) {
      Bytes bad = c;
      bad[i] ^= static_cast<u8>(1u << bit);
      expect_graceful([&] { pfpl::decompress(bad); });
    }
  }
}

TEST(Fuzz, PfplRandomGarbageInput) {
  data::Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    Bytes junk(rng.next_u64() % 4096);
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    expect_graceful([&] { pfpl::decompress(junk); });
  }
}

TEST(Fuzz, PfplGpuSimDecoderEquallyRobust) {
  auto v = field_3d(20000, 7);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  data::Rng rng(8);
  for (int t = 0; t < 100; ++t) {
    Bytes bad = c;
    bad[rng.next_u64() % bad.size()] ^= 0xFF;
    expect_graceful([&] { pfpl::decompress(bad, pfpl::Executor::GpuSim); });
  }
}

TEST(Fuzz, HuffmanStreams) {
  std::vector<u16> syms(5000);
  data::Rng rng(9);
  for (auto& s : syms) s = static_cast<u16>(rng.next_u64() % 300);
  Bytes enc = lossless::huffman_encode(syms);
  for (int t = 0; t < 300; ++t) {
    Bytes bad = enc;
    bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(rng.next_u64());
    expect_graceful([&] { lossless::huffman_decode(bad); });
  }
  for (std::size_t len = 0; len < std::min<std::size_t>(enc.size(), 64); ++len) {
    Bytes cut(enc.begin(), enc.begin() + len);
    expect_graceful([&] { lossless::huffman_decode(cut); });
  }
}

TEST(Fuzz, LzStreams) {
  std::vector<u8> data(5000);
  data::Rng rng(10);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64() % 5);
  Bytes enc = lossless::lz_encode(data);
  for (int t = 0; t < 300; ++t) {
    Bytes bad = enc;
    bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(rng.next_u64());
    expect_graceful([&] { lossless::lz_decode(bad); });
  }
}

TEST(Fuzz, AllBaselineDecodersSurviveCorruption) {
  auto v = field_3d(16 * 16 * 16, 11);
  Field field(v.data(), {16, 16, 16});
  data::Rng rng(12);
  for (const auto& comp : baselines::all_compressors()) {
    Features f = comp->features();
    EbType eb = f.abs ? EbType::ABS : (f.noa ? EbType::NOA : EbType::REL);
    if (!f.f32) continue;
    Bytes c;
    try {
      c = comp->compress(field, 1e-3, eb);
    } catch (const CompressionError&) {
      continue;  // shape-restricted compressor
    }
    for (int t = 0; t < 100; ++t) {
      Bytes bad = c;
      bad[rng.next_u64() % bad.size()] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
      expect_graceful([&] { comp->decompress(bad); });
      std::size_t len = rng.next_u64() % c.size();
      Bytes cut(c.begin(), c.begin() + len);
      expect_graceful([&] { comp->decompress(cut); });
    }
  }
}

TEST(Fuzz, WrongMagicCrossDecoding) {
  // Feeding one compressor's stream to another must throw, not misparse.
  auto v = field_3d(16 * 16 * 16, 13);
  Field field(v.data(), {16, 16, 16});
  auto all = baselines::all_compressors();
  Bytes pfpl_stream = baselines::find_compressor("PFPL_Serial")->compress(field, 1e-3,
                                                                          EbType::ABS);
  for (const auto& comp : all) {
    if (comp->name().rfind("PFPL", 0) == 0) continue;
    expect_graceful([&] { comp->decompress(pfpl_stream); });
  }
}
