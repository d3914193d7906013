// Failure-injection tests: corrupted, truncated, and bit-flipped compressed
// streams must produce a clean CompressionError (or, where corruption lands
// in value payloads, decode to *something*) — never crash, hang, or read out
// of bounds. Every container format in the repository is fuzzed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "baselines/registry.hpp"
#include "core/pfpl.hpp"
#include "core/stream.hpp"
#include "data/rng.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz.hpp"

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

/// Inserts one junk byte after chunk c's payload and adds 1 to its
/// size-table entry, leaving every other chunk where the table says.
Bytes with_chunk_slack(const Bytes& s, std::size_t c) {
  const pfpl::Header h = pfpl::peek_header(s);
  const std::size_t table = sizeof(pfpl::Header);
  std::vector<u32> sizes(h.chunk_count);
  std::memcpy(sizes.data(), s.data() + table, sizes.size() * sizeof(u32));
  std::size_t end = table + sizes.size() * sizeof(u32);
  for (std::size_t i = 0; i <= c; ++i) end += sizes[i] & ~pfpl::kRawChunkFlag;
  Bytes bad(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(end));
  bad.push_back(0x5A);
  bad.insert(bad.end(), s.begin() + static_cast<std::ptrdiff_t>(end), s.end());
  const u32 grown = sizes[c] + 1;  // the raw flag is the top bit: unchanged
  std::memcpy(bad.data() + table + c * sizeof(u32), &grown, sizeof(u32));
  return bad;
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
      const Bytes bad = with_chunk_slack(c, chunk);
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
