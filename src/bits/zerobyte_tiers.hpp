// What the SIMD tiers of zero-byte elimination (bits/lossless_avx2.cpp,
// bits/lossless_avx512.cpp) share: the bitmap-level bookkeeping, and the
// Avx512 tier's entry points of every lossless stage, which the dispatch at
// the bottom of lossless_avx2.cpp calls. The level functions carry no target
// attribute; they are always inlined into the tiers' kernels and compiled
// for their ISA there.
#pragma once

#include <array>
#include <bit>
#include <cstring>
#include <vector>

#include "bits/zerobyte.hpp"

namespace repro::bits::levels {

constexpr int kLevels = kZeroByteLevels;
using LevelSizes = std::array<std::size_t, kLevels + 1>;

constexpr std::size_t round_up(std::size_t x, std::size_t m) { return (x + m - 1) / m * m; }

/// Bytes of bitmap B_k for n data bytes, k = 0..kLevels.
[[gnu::always_inline]] inline LevelSizes sizes(std::size_t n) {
  LevelSizes s{};
  s[0] = (n + 7) / 8;
  for (int k = 1; k <= kLevels; ++k) s[k] = (s[k - 1] + 7) / 8;
  return s;
}

/// Places the levels in one scratch buffer: B_k starts at at[k], after
/// `lead` spare bytes, and is padded to a multiple of `pad` bytes. Returns
/// the buffer size.
[[gnu::always_inline]] inline std::size_t layout(const LevelSizes& size, std::size_t lead,
                                                 std::size_t pad, LevelSizes& at) {
  std::size_t total = 0;
  for (int k = 0; k <= kLevels; ++k) {
    at[k] = total + lead;
    total += lead + round_up(size[k], pad);
  }
  return total;
}

/// Set bits among the first `bits` bits of b. Reads whole words:
/// round_up(bits, 64) / 8 bytes.
[[gnu::always_inline]] inline std::size_t count_bits(const u8* b, std::size_t bits) {
  std::size_t c = 0, i = 0;
  u64 w;
  for (; i + 64 <= bits; i += 64) {
    std::memcpy(&w, b + i / 8, 8);
    c += static_cast<std::size_t>(std::popcount(w));
  }
  if (i < bits) {
    std::memcpy(&w, b + i / 8, 8);
    c += static_cast<std::size_t>(std::popcount(w & ((u64{1} << (bits - i)) - 1)));
  }
  return c;
}

}  // namespace repro::bits::levels

namespace repro::bits::avx512 {

/// zerobyte_encode/zerobyte_decode at the Avx512 rung; call only there.
void encode(const u8* data, std::size_t n, std::vector<u8>& out);
std::size_t decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);

/// bitshuffle and delta_negabinary_* at the Avx512 rung (x86 only).
void shuffle_tiles(u32* w, std::size_t n);
void shuffle_tiles(u64* w, std::size_t n);
void delta_encode(u32* w, std::size_t n);
void delta_encode(u64* w, std::size_t n);
void delta_decode(u32* w, std::size_t n);
void delta_decode(u64* w, std::size_t n);

}  // namespace repro::bits::avx512
