#include "bits/zerobyte.hpp"

#include <array>

#include "bits/avx2.hpp"
#include "common/cpu.hpp"

namespace repro::bits {
namespace {

inline std::size_t bitmap_bytes(std::size_t n) { return (n + 7) / 8; }

// Build the zero-byte bitmap of `data` (bit set = byte nonzero) and collect
// the nonzero bytes.
void build_zero_bitmap(const u8* data, std::size_t n, std::vector<u8>& bitmap,
                       std::vector<u8>& survivors) {
  bitmap.assign(bitmap_bytes(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != 0) {
      bitmap[i >> 3] |= static_cast<u8>(1u << (i & 7));
      survivors.push_back(data[i]);
    }
  }
}

// Build the repeat bitmap of `data` (bit set = byte differs from its
// predecessor; predecessor of byte 0 is 0x00) and collect non-repeating bytes.
void build_repeat_bitmap(const u8* data, std::size_t n, std::vector<u8>& bitmap,
                         std::vector<u8>& survivors) {
  bitmap.assign(bitmap_bytes(n), 0);
  u8 prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != prev) {
      bitmap[i >> 3] |= static_cast<u8>(1u << (i & 7));
      survivors.push_back(data[i]);
      prev = data[i];
    }
  }
}

}  // namespace

void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  if (common::has_avx2()) return avx2::zerobyte_encode(data, n, out);
  scalar::zerobyte_encode(data, n, out);
}

std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  if (common::has_avx2()) return avx2::zerobyte_decode(in, in_size, data, n);
  return scalar::zerobyte_decode(in, in_size, data, n);
}

void scalar::zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  // Level 0: zero-byte bitmap over the data.
  std::array<std::vector<u8>, kZeroByteLevels + 1> bitmaps;
  std::array<std::vector<u8>, kZeroByteLevels> repeats;  // R_k = survivors of B_k
  std::vector<u8> nonzero;
  build_zero_bitmap(data, n, bitmaps[0], nonzero);
  for (int lvl = 0; lvl < kZeroByteLevels; ++lvl) {
    build_repeat_bitmap(bitmaps[lvl].data(), bitmaps[lvl].size(), bitmaps[lvl + 1],
                        repeats[lvl]);
  }
  // Emit top-level bitmap, then R_{levels-1} .. R_0, then the nonzero bytes —
  // the order the decoder unwinds them.
  const std::vector<u8>& top = bitmaps[kZeroByteLevels];
  out.insert(out.end(), top.begin(), top.end());
  for (int lvl = kZeroByteLevels - 1; lvl >= 0; --lvl)
    out.insert(out.end(), repeats[lvl].begin(), repeats[lvl].end());
  out.insert(out.end(), nonzero.begin(), nonzero.end());
}

std::size_t scalar::zerobyte_decode(const u8* in, std::size_t in_size, u8* data,
                                     std::size_t n) {
  // Sizes of every bitmap level are derivable from n alone.
  std::array<std::size_t, kZeroByteLevels + 1> sizes;
  sizes[0] = bitmap_bytes(n);
  for (int lvl = 1; lvl <= kZeroByteLevels; ++lvl) sizes[lvl] = bitmap_bytes(sizes[lvl - 1]);

  std::size_t pos = 0;
  auto take = [&](std::size_t k) {
    if (pos + k > in_size) throw CompressionError("zerobyte_decode: truncated stream");
    const u8* p = in + pos;
    pos += k;
    return p;
  };

  // Read the top-level bitmap, then reconstruct each lower bitmap in turn.
  const u8* top = take(sizes[kZeroByteLevels]);
  std::vector<u8> upper(top, top + sizes[kZeroByteLevels]);
  for (int lvl = kZeroByteLevels - 1; lvl >= 0; --lvl) {
    std::vector<u8> cur(sizes[lvl]);
    // First pass: count survivors so we can take them in one slice.
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < sizes[lvl]; ++i)
      survivors += (upper[i >> 3] >> (i & 7)) & 1u;
    const u8* r = take(survivors);
    u8 prev = 0;
    std::size_t ri = 0;
    for (std::size_t i = 0; i < sizes[lvl]; ++i) {
      if ((upper[i >> 3] >> (i & 7)) & 1u) prev = r[ri++];
      cur[i] = prev;
    }
    upper = std::move(cur);
  }

  // `upper` is now the zero-byte bitmap B0; expand the data bytes.
  std::size_t nz = 0;
  for (std::size_t i = 0; i < n; ++i) nz += (upper[i >> 3] >> (i & 7)) & 1u;
  const u8* z = take(nz);
  std::size_t zi = 0;
  for (std::size_t i = 0; i < n; ++i)
    data[i] = ((upper[i >> 3] >> (i & 7)) & 1u) ? z[zi++] : u8{0};
  return pos;
}

}  // namespace repro::bits
