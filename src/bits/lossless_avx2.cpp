// AVX2 tier of the lossless stages: the bit-shuffle tile transpose and
// zero-byte elimination, encode and decode (bitshuffle.hpp, zerobyte.hpp),
// and the entry points at the bottom, which run it from the Avx2 rung of
// common::isa() up and the scalar:: functions below it. From the Avx512 rung
// the zero-byte entry points run lossless_avx512.cpp instead. Bitmap levels
// live in this thread's ChunkScratch (chunk_scratch.hpp).
//
// The scalar:: functions are the specification. For every input these
// kernels write the same bytes, return the same consumed count and throw the
// same CompressionError, so streams stay identical on every host and tier.
// The kernels carry target("avx2") and no other ISA extension (the entry
// points carry none). The transpose is self-inverse, so the decoder's
// unshuffle runs this kernel too.
//
// Bit shuffle. A 32x32 tile is first transposed bytewise: plane b holds byte
// b of rows 31..0. Bit 7-s of plane b's byte j is then bit 8b+7-s of row
// 31-j, which is bit j of output row 31-8b-s, so every output word is one
// movemask of a plane after s doublings. A 64x64 tile is four 32x32 tiles
// on the 32-bit halves of its rows (see tile64). Both kernels only move bits,
// so they are fixed by where each single bit goes; the tests compare them
// with the scalar transpose on every single-bit input.
//
// Zero-byte encode. Bitmaps come from cmpeq + movemask over 32 bytes:
// against zero for the data, against the input shifted by one byte for the
// repeat levels. Survivors are packed 8 bytes at a time with a pshufb table
// indexed by the bitmap byte, straight into the output. BMI2 pext would do
// the same but is microcoded on AMD Zen 1/2, and the tier asks for AVX2 only.
//
// Zero-byte decode. Each level's survivor count is a popcount over exactly
// the bitmap bits the scalar loop visits, and the survivors are taken with
// the scalar bounds check and message, so a hostile stream fails at the same
// point. Levels and data are then rebuilt 8 bytes at a time with two more
// pshufb tables (kUnpackRepeat, kUnpackZero), the inverse of pack; pdep would
// do the same and is microcoded on the same CPUs. A vector step reads 8
// survivor bytes only while 8 remain before in + in_size and writes 8 bytes
// only while 8 remain before the level's (or the data's) end; the rest of a
// level runs the scalar loop. DESIGN.md §8.2 has the proof obligations.
#include "bits/bitshuffle.hpp"
#include "bits/chunk_scratch.hpp"
#include "bits/zerobyte.hpp"
#include "bits/zerobyte_tiers.hpp"
#include "common/cpu.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#define BITS_AVX2 __attribute__((target("avx2")))
#define BITS_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

namespace repro::bits::avx2 {
namespace {

// --- bit shuffle --------------------------------------------------------------

/// Byte planes of a 32x32 tile: rows[k] holds rows 8k..8k+7, and plane[b]
/// byte j becomes byte b of row 31-j.
BITS_AVX2_INLINE void byte_planes(const __m256i rows[4], __m256i plane[4]) {
  // Per 128-bit lane (four rows): dword b := byte b of the rows, highest first.
  const __m256i by_byte = _mm256_setr_epi8(12, 8, 4, 0, 13, 9, 5, 1, 14, 10, 6, 2, 15, 11, 7, 3,
                                           12, 8, 4, 0, 13, 9, 5, 1, 14, 10, 6, 2, 15, 11, 7, 3);
  // Qword b := byte b of the vector's eight rows, highest first.
  const __m256i join_lanes = _mm256_setr_epi32(4, 0, 5, 1, 6, 2, 7, 3);
  __m256i q[4];
  for (int k = 0; k < 4; ++k)
    q[k] = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(rows[k], by_byte), join_lanes);
  // 4x4 transpose of qwords, row blocks in descending order.
  const __m256i even_hi = _mm256_unpacklo_epi64(q[3], q[2]);  // bytes 0 | 2 of rows 31..16
  const __m256i odd_hi = _mm256_unpackhi_epi64(q[3], q[2]);   // bytes 1 | 3 of rows 31..16
  const __m256i even_lo = _mm256_unpacklo_epi64(q[1], q[0]);  // bytes 0 | 2 of rows 15..0
  const __m256i odd_lo = _mm256_unpackhi_epi64(q[1], q[0]);   // bytes 1 | 3 of rows 15..0
  plane[0] = _mm256_permute2x128_si256(even_hi, even_lo, 0x20);
  plane[1] = _mm256_permute2x128_si256(odd_hi, odd_lo, 0x20);
  plane[2] = _mm256_permute2x128_si256(even_hi, even_lo, 0x31);
  plane[3] = _mm256_permute2x128_si256(odd_hi, odd_lo, 0x31);
}

/// Next output word of a plane (its sign bits), then shift the plane's bytes
/// left by one so the next bit down becomes the sign bit.
BITS_AVX2_INLINE u32 take_sign_bits(__m256i& plane) {
  const u32 w = static_cast<u32>(_mm256_movemask_epi8(plane));
  plane = _mm256_add_epi8(plane, plane);
  return w;
}

/// transpose_bits_32, in place.
BITS_AVX2_INLINE void tile32(u32* a) {
  __m256i rows[4], plane[4];
  for (int k = 0; k < 4; ++k)
    rows[k] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 8 * k));
  byte_planes(rows, plane);
  // Output row 8q+s is bit 7-s of plane 3-q.
  for (int q = 0; q < 4; ++q)
    for (int s = 0; s < 8; ++s) a[8 * q + s] = take_sign_bits(plane[3 - q]);
}

/// transpose_bits_64, in place. Block (R, C) of the tile is rows 32R..32R+31,
/// bits 32C..32C+31. Bit c of row r moves to bit 63-r of row 63-c, so block
/// (R, C) lands, transposed as a 32x32 tile, in block (1-C, 1-R): output row
/// 32(1-C)+i takes its low half from block (1, C) and its high half from
/// block (0, C).
BITS_AVX2_INLINE void tile64(u64* a) {
  const __m256i split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  __m256i rows[2][2][4];  // [R][C][k]: halves C of rows 32R+8k .. 32R+8k+7
  for (int r = 0; r < 2; ++r)
    for (int k = 0; k < 4; ++k) {
      const u64* p = a + 32 * r + 8 * k;
      const __m256i x = _mm256_permutevar8x32_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), split);
      const __m256i y = _mm256_permutevar8x32_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4)), split);
      rows[r][0][k] = _mm256_permute2x128_si256(x, y, 0x20);
      rows[r][1][k] = _mm256_permute2x128_si256(x, y, 0x31);
    }
  __m256i plane[2][2][4];
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) byte_planes(rows[r][c], plane[r][c]);
  for (int c = 0; c < 2; ++c) {
    u64* out = a + 32 * (1 - c);
    for (int q = 0; q < 4; ++q)
      for (int s = 0; s < 8; ++s) {
        const u64 lo = take_sign_bits(plane[1][c][3 - q]);
        const u64 hi = take_sign_bits(plane[0][c][3 - q]);
        out[8 * q + s] = lo | hi << 32;
      }
  }
}

// --- zero-byte elimination ------------------------------------------------------

/// One 8-byte pshufb control per bitmap byte.
struct ShuffleTable {
  u8 v[256][8];
};

/// Pack: lane c takes the position of the c-th set bit, so the survivors of
/// 8 bytes move to the front in order.
constexpr ShuffleTable make_pack() {
  ShuffleTable t{};
  for (int m = 0; m < 256; ++m)
    for (int j = 0, c = 0; j < 8; ++j)
      if ((m >> j) & 1) t.v[m][c++] = static_cast<u8>(j);
  return t;
}

/// Unpack zeros: lane j takes the next survivor where bit j is set and 0
/// (index 0x80) elsewhere.
constexpr ShuffleTable make_unpack_zero() {
  ShuffleTable t{};
  for (int m = 0; m < 256; ++m)
    for (int j = 0, c = 0; j < 8; ++j) t.v[m][j] = (m >> j) & 1 ? static_cast<u8>(c++) : 0x80;
  return t;
}

/// Unpack repeats, from [prev, r0, r1, ...]: lane j takes entry
/// popcount(bits 0..j), the last byte taken at or before j.
constexpr ShuffleTable make_unpack_repeat() {
  ShuffleTable t{};
  for (int m = 0; m < 256; ++m)
    for (int j = 0, c = 0; j < 8; ++j) t.v[m][j] = static_cast<u8>(c += (m >> j) & 1);
  return t;
}

constexpr ShuffleTable kPack = make_pack();
constexpr ShuffleTable kUnpackZero = make_unpack_zero();
constexpr ShuffleTable kUnpackRepeat = make_unpack_repeat();

using levels::kLevels;
using levels::LevelSizes;

BITS_AVX2_INLINE __m128i load8(const u8* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

BITS_AVX2_INLINE void store8(u8* p, __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
}

BITS_AVX2_INLINE u32 nonzero_mask(__m256i v) {
  return ~static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, _mm256_setzero_si256())));
}

/// B0: bit i set iff data[i] != 0. Writes 4 * ceil(n / 32) bytes of b.
BITS_AVX2_INLINE void zero_bitmap(const u8* data, std::size_t n, u8* b) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const u32 m = nonzero_mask(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)));
    std::memcpy(b + i / 8, &m, 4);
  }
  if (i < n) {  // zero padding leaves the bits beyond n clear
    alignas(32) u8 tail[32] = {};
    std::memcpy(tail, data + i, n - i);
    const u32 m = nonzero_mask(_mm256_load_si256(reinterpret_cast<const __m256i*>(tail)));
    std::memcpy(b + i / 8, &m, 4);
  }
}

/// B_{k+1} of src[0, m): bit i set iff src[i] != src[i-1]. src[-1] must be 0
/// and src readable up to round_up(m, 32). Writes 4 * ceil(m / 32) bytes.
BITS_AVX2_INLINE void repeat_bitmap(const u8* src, std::size_t m, u8* b) {
  for (std::size_t i = 0; i < m; i += 32) {
    const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i prev = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i - 1));
    u32 bits = ~static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(cur, prev)));
    if (m - i < 32) bits &= (u32{1} << (m - i)) - 1;
    std::memcpy(b + i / 8, &bits, 4);
  }
}

/// Writes src[i] for every i < m whose bit is set in `keep`, in order, from
/// dst on; returns the end. Stores whole 8-byte groups, but none reaches
/// dst + m: group g starts at most 8g bytes after dst.
BITS_AVX2_INLINE u8* pack(const u8* src, std::size_t m, const u8* keep, u8* dst) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const unsigned k = keep[i / 8];
    store8(dst, _mm_shuffle_epi8(load8(src + i), load8(kPack.v[k])));
    dst += std::popcount(k);
  }
  for (; i < m; ++i)
    if ((keep[i >> 3] >> (i & 7)) & 1u) *dst++ = src[i];
  return dst;
}

/// Rebuilds bitmap level `cur` (m bytes) from its repeat bitmap `keep` and
/// its non-repeating bytes r: byte i is the last r byte taken at or before i,
/// 0 before the first. Reads r only below r + avail.
BITS_AVX2_INLINE void unpack_repeat(const u8* keep, std::size_t m, const u8* r, std::size_t avail,
                                    u8* cur) {
  std::size_t i = 0, ri = 0;
  for (; i + 8 <= m && ri + 8 <= avail; i += 8) {
    const unsigned k = keep[i / 8];
    const u8 prev = ri ? r[ri - 1] : u8{0};
    const __m128i from = _mm_insert_epi8(_mm_slli_si128(load8(r + ri), 1), prev, 0);
    store8(cur + i, _mm_shuffle_epi8(from, load8(kUnpackRepeat.v[k])));
    ri += static_cast<std::size_t>(std::popcount(k));
  }
  u8 prev = ri ? r[ri - 1] : u8{0};
  for (; i < m; ++i) {
    if ((keep[i >> 3] >> (i & 7)) & 1u) prev = r[ri++];
    cur[i] = prev;
  }
}

/// Rebuilds n data bytes from B0 (`keep`) and the nonzero bytes z. Reads z
/// only below z + avail.
BITS_AVX2_INLINE void unpack_zero(const u8* keep, std::size_t n, const u8* z, std::size_t avail,
                                  u8* data) {
  std::size_t i = 0, zi = 0;
  for (; i + 8 <= n && zi + 8 <= avail; i += 8) {
    const unsigned k = keep[i / 8];
    store8(data + i, _mm_shuffle_epi8(load8(z + zi), load8(kUnpackZero.v[k])));
    zi += static_cast<std::size_t>(std::popcount(k));
  }
  for (; i < n; ++i) data[i] = ((keep[i >> 3] >> (i & 7)) & 1u) ? z[zi++] : u8{0};
}

BITS_AVX2 void shuffle_tiles(u32* w, std::size_t n) {
  for (std::size_t i = 0; i + 32 <= n; i += 32) tile32(w + i);
}

BITS_AVX2 void shuffle_tiles(u64* w, std::size_t n) {
  for (std::size_t i = 0; i + 64 <= n; i += 64) tile64(w + i);
}

BITS_AVX2 void encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  const LevelSizes size = levels::sizes(n);
  // Bitmap B_k starts at at[k], after one zero byte (the predecessor of its
  // byte 0), and is padded to a multiple of 32 bytes. The vector steps mask
  // every bit beyond a level, so the padding needs no zeroing.
  LevelSizes at{};
  u8* const base = chunk_scratch().bitmaps(levels::layout(size, 1, 32, at));
  for (int k = 0; k <= kLevels; ++k) base[at[k] - 1] = 0;
  zero_bitmap(data, n, base + at[0]);
  for (int k = 0; k < kLevels; ++k) repeat_bitmap(base + at[k], size[k], base + at[k + 1]);

  // Worst case: every byte of every level survives. The levels are packed
  // into this thread's payload scratch, which pack() never writes past, and
  // appended to `out` once, so `out` grows by exactly the encoded size.
  std::size_t worst = n;
  for (std::size_t s : size) worst += s;
  u8* const staged = chunk_scratch().payload(worst);
  u8* p = std::copy_n(base + at[kLevels], size[kLevels], staged);
  for (int k = kLevels - 1; k >= 0; --k)
    p = pack(base + at[k], size[k], base + at[k + 1], p);
  p = pack(data, n, base + at[0], p);
  out.insert(out.end(), staged, p);
}

BITS_AVX2 std::size_t decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  const LevelSizes size = levels::sizes(n);
  std::size_t pos = 0;
  auto take = [&](std::size_t k) {
    if (pos + k > in_size) throw CompressionError("zerobyte_decode: truncated stream");
    const u8* p = in + pos;
    pos += k;
    return p;
  };
  // Bitmap B_k starts at at[k], padded to a multiple of 8 bytes so that
  // count_bits may read whole words; it masks the bits beyond the level.
  LevelSizes at{};
  u8* const base = chunk_scratch().bitmaps(levels::layout(size, 0, 8, at));

  const u8* top = take(size[kLevels]);
  std::copy_n(top, size[kLevels], base + at[kLevels]);
  for (int k = kLevels - 1; k >= 0; --k) {
    const u8* r = take(levels::count_bits(base + at[k + 1], size[k]));
    unpack_repeat(base + at[k + 1], size[k], r, in_size - static_cast<std::size_t>(r - in),
                  base + at[k]);
  }
  const u8* z = take(levels::count_bits(base + at[0], n));
  unpack_zero(base + at[0], n, z, in_size - static_cast<std::size_t>(z - in), data);
  return pos;
}

}  // namespace
}  // namespace repro::bits::avx2

namespace repro::bits {

void bitshuffle(u32* w, std::size_t n) {
  assert(n % 32 == 0);
  if (common::isa() >= common::Isa::Avx2) return avx2::shuffle_tiles(w, n);
  scalar::bitshuffle(w, n);
}

void bitshuffle(u64* w, std::size_t n) {
  assert(n % 64 == 0);
  if (common::isa() >= common::Isa::Avx2) return avx2::shuffle_tiles(w, n);
  scalar::bitshuffle(w, n);
}

void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  const common::Isa rung = common::isa();
  if (rung >= common::Isa::Avx512) return avx512::encode(data, n, out);
  if (rung >= common::Isa::Avx2) return avx2::encode(data, n, out);
  scalar::zerobyte_encode(data, n, out);
}

std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  const common::Isa rung = common::isa();
  if (rung >= common::Isa::Avx512) return avx512::decode(in, in_size, data, n);
  if (rung >= common::Isa::Avx2) return avx2::decode(in, in_size, data, n);
  return scalar::zerobyte_decode(in, in_size, data, n);
}

}  // namespace repro::bits

#else  // no x86: the scalar loops are the only tier

namespace repro::bits {

void bitshuffle(u32* w, std::size_t n) { scalar::bitshuffle(w, n); }
void bitshuffle(u64* w, std::size_t n) { scalar::bitshuffle(w, n); }
void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  scalar::zerobyte_encode(data, n, out);
}
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  return scalar::zerobyte_decode(in, in_size, data, n);
}

}  // namespace repro::bits

#endif
