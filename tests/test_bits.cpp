// Tests for the bit-level kernels of the lossless pipeline (paper III-D).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>

#include "bits/bitshuffle.hpp"
#include "bits/delta.hpp"
#include "bits/negabinary.hpp"
#include "bits/zerobyte.hpp"
#include "data/rng.hpp"
#include "tiers.hpp"

using namespace repro;
using namespace repro::bits;
using repro::tiers::exact_copy;
using repro::tiers::expect_decode_agrees;
using repro::tiers::for_each_rung;
using Isa = repro::common::Isa;

// --- negabinary ------------------------------------------------------------

TEST(Negabinary, KnownSmallValues) {
  // Base -2: 1 = 1, -1 = 11b = 3, 2 = 110b = 6, -2 = 10b = 2, 3 = 111b = 7.
  EXPECT_EQ(to_negabinary<u32>(0u), 0u);
  EXPECT_EQ(to_negabinary<u32>(1u), 1u);
  EXPECT_EQ(to_negabinary<u32>(static_cast<u32>(-1)), 3u);
  EXPECT_EQ(to_negabinary<u32>(2u), 6u);
  EXPECT_EQ(to_negabinary<u32>(static_cast<u32>(-2)), 2u);
  EXPECT_EQ(to_negabinary<u32>(3u), 7u);
}

TEST(Negabinary, SmallMagnitudesHaveFewBits) {
  // The property the pipeline exploits: values in [-2^(k-1), 2^(k-1)) fit in
  // ~k negabinary bits whether positive or negative.
  for (i32 v = -128; v <= 127; ++v) {
    u32 nb = to_negabinary<u32>(static_cast<u32>(v));
    EXPECT_LT(nb, 1u << 9) << v;
  }
}

TEST(Negabinary, RoundTripExhaustive16Bit) {
  for (u32 v = 0; v <= 0xFFFFu; ++v) {
    u32 x = v << 13;  // spread across the word
    EXPECT_EQ(from_negabinary(to_negabinary(x)), x);
  }
}

TEST(Negabinary, RoundTripRandom64) {
  data::Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    u64 x = rng.next_u64();
    EXPECT_EQ(from_negabinary(to_negabinary(x)), x);
  }
}

// --- delta -----------------------------------------------------------------

TEST(Delta, EncodeMatchesPaperExample) {
  // Paper Figure 3: 3, 4, 4, 3 -> deltas 3, 1, 0, -1.
  std::vector<u32> w{3, 4, 4, 3};
  delta_negabinary_encode(w.data(), w.size());
  EXPECT_EQ(from_negabinary(w[0]), 3u);
  EXPECT_EQ(from_negabinary(w[1]), 1u);
  EXPECT_EQ(from_negabinary(w[2]), 0u);
  EXPECT_EQ(from_negabinary(w[3]), static_cast<u32>(-1));
}

template <typename U>
void delta_roundtrip_case(u64 seed, std::size_t n) {
  data::Rng rng(seed);
  std::vector<U> w(n), orig;
  for (auto& x : w) x = static_cast<U>(rng.next_u64());
  orig = w;
  delta_negabinary_encode(w.data(), n);
  delta_negabinary_decode(w.data(), n);
  EXPECT_EQ(w, orig);
}

TEST(Delta, RoundTrip32) { delta_roundtrip_case<u32>(5, 4096); }
TEST(Delta, RoundTrip64) { delta_roundtrip_case<u64>(6, 2048); }
TEST(Delta, RoundTripShort) {
  delta_roundtrip_case<u32>(7, 1);
  delta_roundtrip_case<u32>(8, 2);
  delta_roundtrip_case<u64>(9, 3);
}

// --- bit shuffle -------------------------------------------------------------

TEST(BitShuffle, Transpose32MovesSingleBitsToMirroredPosition) {
  // The masked-swap network maps bit (row r, bit position c) to
  // (row 31-c, bit position 31-r): verify exhaustively for single bits,
  // which pins down the exact permutation (population is preserved and the
  // map is an involution).
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 32; ++c) {
      u32 a[32] = {};
      a[r] = 1u << c;
      transpose_bits_32(a);
      int total = 0;
      for (int i = 0; i < 32; ++i) total += __builtin_popcount(a[i]);
      ASSERT_EQ(total, 1);
      EXPECT_EQ(a[31 - c], 1u << (31 - r)) << "r=" << r << " c=" << c;
      transpose_bits_32(a);
      for (int i = 0; i < 32; ++i) ASSERT_EQ(a[i], i == r ? (1u << c) : 0u);
    }
}

TEST(BitShuffle, SelfInverse32) {
  data::Rng rng(10);
  std::vector<u32> w(32 * 64), orig;
  for (auto& x : w) x = static_cast<u32>(rng.next_u64());
  orig = w;
  bitshuffle(w.data(), w.size());
  EXPECT_NE(w, orig);  // it really did something
  bitshuffle(w.data(), w.size());
  EXPECT_EQ(w, orig);
}

TEST(BitShuffle, SelfInverse64) {
  data::Rng rng(11);
  std::vector<u64> w(64 * 16), orig;
  for (auto& x : w) x = rng.next_u64();
  orig = w;
  bitshuffle(w.data(), w.size());
  bitshuffle(w.data(), w.size());
  EXPECT_EQ(w, orig);
}

TEST(BitShuffle, GroupsLeadingZeros) {
  // 32 words each with only low 4 bits set -> after shuffle, 28/32 of the
  // output words must be exactly zero (the high bit-planes).
  std::vector<u32> w(32);
  data::Rng rng(12);
  for (auto& x : w) x = static_cast<u32>(rng.next_u64()) & 0xFu;
  bitshuffle(w.data(), 32);
  int zeros = 0;
  for (u32 x : w) zeros += x == 0;
  EXPECT_GE(zeros, 28);
}

// --- zero-byte elimination --------------------------------------------------

void zb_roundtrip(const std::vector<u8>& data) {
  std::vector<u8> enc;
  zerobyte_encode(data.data(), data.size(), enc);
  std::vector<u8> dec(data.size(), 0xCD);
  std::size_t used = zerobyte_decode(enc.data(), enc.size(), dec.data(), data.size());
  EXPECT_EQ(used, enc.size());
  EXPECT_EQ(dec, data);
}

TEST(ZeroByte, AllZeros) {
  std::vector<u8> d(16384, 0);
  std::vector<u8> enc;
  zerobyte_encode(d.data(), d.size(), enc);
  // 16 KiB of zeros collapse to just the (few-byte) top bitmap.
  EXPECT_LE(enc.size(), 8u);
  zb_roundtrip(d);
}

TEST(ZeroByte, AllNonZero) {
  std::vector<u8> d(16384);
  data::Rng rng(13);
  for (auto& b : d) b = static_cast<u8>(rng.next_u64() | 1);
  std::vector<u8> enc;
  zerobyte_encode(d.data(), d.size(), enc);
  // Expansion is bounded by the bitmap chain (~ n/8 * 8/7 + levels).
  EXPECT_LE(enc.size(), d.size() + d.size() / 7 + 16);
  zb_roundtrip(d);
}

TEST(ZeroByte, SparseData) {
  std::vector<u8> d(16384, 0);
  data::Rng rng(14);
  for (int i = 0; i < 100; ++i) d[rng.next_u64() % d.size()] = static_cast<u8>(rng.next_u64());
  std::vector<u8> enc;
  zerobyte_encode(d.data(), d.size(), enc);
  EXPECT_LT(enc.size(), 2048u);  // far below the raw 16 KiB
  zb_roundtrip(d);
}

TEST(ZeroByte, OddSizes) {
  data::Rng rng(15);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{63}, std::size_t{65}, std::size_t{1000},
                        std::size_t{16383}}) {
    std::vector<u8> d(n);
    for (auto& b : d) b = static_cast<u8>(rng.next_u64() & (rng.uniform() < 0.5 ? 0 : 0xFF));
    zb_roundtrip(d);
  }
}

TEST(ZeroByte, TruncatedStreamThrows) {
  std::vector<u8> d(4096);
  data::Rng rng(16);
  for (auto& b : d) b = static_cast<u8>(rng.next_u64());
  std::vector<u8> enc;
  zerobyte_encode(d.data(), d.size(), enc);
  std::vector<u8> dec(d.size());
  EXPECT_THROW(zerobyte_decode(enc.data(), enc.size() / 2, dec.data(), d.size()),
               CompressionError);
}

// --- SIMD tier equivalence ------------------------------------------------------
// bitshuffle() and zerobyte_*() run the AVX2 tier from the Avx2 rung up; these
// compare them, at each such rung (tests/tiers.hpp), with the scalar::
// reference on inputs chosen to reach every branch of the tier:
// bit-permutation bases, every length around the vector widths, bitmaps that
// repeat across vector boundaries, and hostile streams for the decoder.

namespace {

/// Runs the transpose of one tile through both tiers and compares.
template <typename U>
void expect_tiers_agree(const std::vector<U>& w, const char* what) {
  std::vector<U> ref = w, got = w;
  scalar::bitshuffle(ref.data(), ref.size());
  bitshuffle(got.data(), got.size());
  ASSERT_EQ(got, ref) << what;
}

template <typename U>
void transpose_basis() {
  constexpr int kBits = sizeof(U) * 8;
  for (int r = 0; r < kBits; ++r)
    for (int c = 0; c < kBits; ++c) {
      std::vector<U> w(kBits, U{0});
      w[r] = U{1} << c;
      expect_tiers_agree(w, ("r=" + std::to_string(r) + " c=" + std::to_string(c)).c_str());
    }
}

/// `n` bytes of which about `zeros` (a fraction) are zero.
std::vector<u8> sparse_bytes(data::Rng& rng, std::size_t n, double zeros) {
  std::vector<u8> d(n);
  for (auto& b : d) b = rng.uniform() < zeros ? u8{0} : static_cast<u8>(rng.next_u64() | 1);
  return d;
}

/// Both encode tiers, appended to a non-empty prefix, must agree byte for
/// byte; the scalar decoder must then give back `d` and consume exactly the
/// encoded bytes.
void expect_encode_agrees(const std::vector<u8>& d, const std::string& what) {
  const std::size_t n = d.size();
  const std::unique_ptr<u8[]> src = exact_copy(d);
  std::vector<u8> ref{0xAB, 0xCD}, got{0xAB, 0xCD};
  scalar::zerobyte_encode(src.get(), n, ref);
  zerobyte_encode(src.get(), n, got);
  ASSERT_EQ(got, ref) << what;

  const std::vector<u8> enc(got.begin() + 2, got.end());
  const std::unique_ptr<u8[]> in = exact_copy(enc);
  const std::unique_ptr<u8[]> back(new u8[n]);
  ASSERT_EQ(scalar::zerobyte_decode(in.get(), enc.size(), back.get(), n), enc.size()) << what;
  ASSERT_TRUE(std::equal(d.begin(), d.end(), back.get())) << what;
}

std::vector<u8> scalar_encoding(const std::vector<u8>& d) {
  std::vector<u8> enc;
  scalar::zerobyte_encode(d.data(), d.size(), enc);
  return enc;
}

}  // namespace

TEST(BitsTiers, Transpose32SingleBitBasis) {
  for_each_rung(Isa::Avx2, [&] {
    transpose_basis<u32>();  // 1,024 inputs: fixes the bit permutation
  });
}

TEST(BitsTiers, Transpose64SingleBitBasis) {
  for_each_rung(Isa::Avx2, [&] {
    transpose_basis<u64>();  // 4,096 inputs
  });
}

TEST(BitsTiers, TransposeRandomTiles) {
  for_each_rung(Isa::Avx2, [&] {
    data::Rng rng(20);
    for (int t = 0; t < 200; ++t) {
      std::vector<u32> w32(32 * (1 + t % 5));
      for (auto& x : w32) x = static_cast<u32>(rng.next_u64());
      expect_tiers_agree(w32, "u32");
      std::vector<u64> w64(64 * (1 + t % 3));
      for (auto& x : w64) x = rng.next_u64() & (t % 2 ? ~u64{0} : u64{0xFFFF});
      expect_tiers_agree(w64, "u64");
    }
  });
}

TEST(BitsTiers, ZeroByteEncodeEveryLengthAndDensity) {
  for_each_rung(Isa::Avx2, [&] {
    data::Rng rng(21);
    std::vector<std::size_t> sizes(1101);
    std::iota(sizes.begin(), sizes.end(), std::size_t{0});
    // Past 64 KiB, with a tail that fills no vector: whole buffers, as LC's
    // zbe stage passes them.
    for (std::size_t n : {16383, 16384, 16385, 65536 + 4097}) sizes.push_back(n);
    for (std::size_t n : sizes)
      for (double zeros : {0.0, 0.5, 0.9, 1.0}) {
        const std::vector<u8> d = sparse_bytes(rng, n, zeros);
        const std::string what = "n=" + std::to_string(n) + " zeros=" + std::to_string(zeros);
        expect_encode_agrees(d, what);
        expect_decode_agrees(scalar_encoding(d), n, what);
      }
  });
}

TEST(BitsTiers, ZeroByteEncodeRepeatingBitmaps) {
  for_each_rung(Isa::Avx2, [&] {
    // Periodic zero patterns make bitmap bytes repeat, so the upper levels keep
    // few bytes; runs of one bitmap byte cross the 32-byte vector boundaries.
    data::Rng rng(22);
    for (std::size_t period : {1, 3, 8, 16, 24, 64, 200, 512, 4096})
      for (std::size_t n : {1000, 4096, 16384, 16385}) {
        std::vector<u8> d(n);
        for (std::size_t i = 0; i < n; ++i)
          d[i] = (i % period) < period / 2 ? u8{0} : static_cast<u8>(1 + rng.next_u64() % 255);
        const std::string what = "period=" + std::to_string(period) + " n=" + std::to_string(n);
        expect_encode_agrees(d, what);
        expect_decode_agrees(scalar_encoding(d), n, what);
      }
  });
}

TEST(BitsTiers, ZeroByteDecodeEveryTruncation) {
  for_each_rung(Isa::Avx2, [&] {
    data::Rng rng(23);
    for (std::size_t n : {std::size_t{37}, std::size_t{1001}, std::size_t{16384}}) {
      const std::vector<u8> enc = scalar_encoding(sparse_bytes(rng, n, 0.6));
      for (std::size_t len = 0; len <= enc.size(); ++len)
        expect_decode_agrees(std::vector<u8>(enc.begin(), enc.begin() + len), n,
                             "n=" + std::to_string(n) + " len=" + std::to_string(len));
    }
  });
}

TEST(BitsTiers, ZeroByteDecodeRandomFlips) {
  for_each_rung(Isa::Avx2, [&] {
    data::Rng rng(24);
    for (std::size_t n : {std::size_t{100}, std::size_t{1003}, std::size_t{16384},
                          std::size_t{65536 + 4097}}) {
      const std::vector<u8> enc = scalar_encoding(sparse_bytes(rng, n, 0.7));
      for (int t = 0; t < 1000; ++t) {
        std::vector<u8> bad = enc;
        // Most flips land in the bitmaps at the front, which change the parse.
        const std::size_t span = t % 2 ? bad.size() : std::min<std::size_t>(bad.size(), 300);
        for (int f = 0; f < 1 + t % 4; ++f)
          bad[rng.next_u64() % span] ^= static_cast<u8>(1u << (rng.next_u64() % 8));
        // Slack or shortfall at the end, as a damaged chunk table would give.
        if (t % 3 == 1) bad.push_back(static_cast<u8>(rng.next_u64()));
        if (t % 3 == 2) bad.resize(bad.size() - 1);
        expect_decode_agrees(bad, n, "n=" + std::to_string(n) + " t=" + std::to_string(t));
      }
    }
  });
}

TEST(BitsTiers, ZeroByteDecodeIgnoresPaddingBits) {
  for_each_rung(Isa::Avx2, [&] {
    // All-ones input: every bitmap bit is set, including the bits of each
    // level's last byte that lie beyond the level (or beyond n). Both tiers
    // must ignore those bits and consume the same count.
    data::Rng rng(25);
    for (std::size_t n : {1, 7, 9, 63, 65, 1001, 16383, 16385}) {
      std::size_t need = n, s = n;
      for (int k = 0; k <= kZeroByteLevels; ++k) need += s = (s + 7) / 8;
      std::vector<u8> ones(need + 5, 0xFF);
      expect_decode_agrees(ones, n, "ones n=" + std::to_string(n));
      std::vector<u8> junk(need + 5);
      for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
      expect_decode_agrees(junk, n, "junk n=" + std::to_string(n));
      for (std::size_t len : {std::size_t{0}, need / 2, need - 1, need})
        expect_decode_agrees(std::vector<u8>(ones.begin(), ones.begin() + len), n,
                             "ones n=" + std::to_string(n) + " len=" + std::to_string(len));
    }
  });
}
