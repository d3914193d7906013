// AVX-512 tier of the lossless stages: delta + negabinary (delta.hpp), the
// bit-shuffle tile transpose (bitshuffle.hpp) and zero-byte elimination
// (zerobyte.hpp), run by the entry points at the bottom of lossless_avx2.cpp
// from the Avx512 rung of common::isa() up. Its contract is the AVX2 tier's:
// for every input it writes the same bytes, returns the same consumed count
// and throws the same CompressionError as the scalar:: reference. The
// kernels carry the rung's targets (AVX-512 F/BW/VL/DQ/VBMI/VBMI2, GFNI) and
// nothing else, start on a 64-byte boundary like the lane kernels, and use
// the zero-masking forms of permutes and aligns under an all-ones mask
// (GCC 12's unmasked forms trip -Wmaybe-uninitialized). DESIGN.md §8.2 has
// each kernel's derivation and proof obligations.
//
// Delta. Encode subtracts each vector's one-lane shift (valignd/valignq
// against the previous vector) and maps d to (d + M) ^ M. Decode maps x to
// (x ^ M) - M, scans the vector in log2(lanes) shift-adds and adds the
// carry, the broadcast sum of every earlier word. Words wrap, so any
// grouping of the sum is the scalar loop's.
//
// Bit shuffle. Bit (r, c) of a W x W tile moves to (W-1-c, W-1-r), so the
// 8x8 block (q, b), byte b of rows 8q..8q+7, lands anti-transposed in block
// (W/8-1-b, W/8-1-q). vpermb gathers each block into a qword,
// vgf2p8affineqb with the blocks as matrices and the data qword
// 0x0102040810204080 anti-transposes eight at once, and byte permutes place
// them (vpermi2b for u32; a qword transpose, then vpermb, for u64).
//
// Zero-byte elimination. Bitmaps come from vptestmb (B0) and from vpcmpneqb
// of a level against itself one byte earlier; survivors are packed by the
// register form of vpcompressb (the memory form is microcoded on Zen 4) and
// rebuilt by vpexpandb, the repeat levels through a rank prefix max and a
// masked vpermb. Counts and takes are the AVX2 tier's. Bitmap levels live in
// this thread's ChunkScratch (chunk_scratch.hpp), padded to whole 64-byte
// groups; every bit past a level's end is masked off where it is read, and
// the last group of every level and of the data is read and written under a
// byte mask, so nothing outside the input, the output or the scratch is
// touched.
#include "bits/chunk_scratch.hpp"
#include "bits/zerobyte.hpp"
#include "bits/zerobyte_tiers.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#define BITS_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512dq,avx512vbmi,avx512vbmi2,gfni"
#define BITS_AVX512_KERNEL __attribute__((target(BITS_AVX512_TARGET), aligned(64)))
#define BITS_AVX512_INLINE __attribute__((target(BITS_AVX512_TARGET), always_inline)) inline

namespace repro::bits::avx512 {
namespace {

using levels::kLevels;
using levels::LevelSizes;

/// The low min(n, 64) bits.
BITS_AVX512_INLINE u64 low_bits(std::size_t n) { return n >= 64 ? ~u64{0} : (u64{1} << n) - 1; }

/// The 64 bitmap bits at b.
BITS_AVX512_INLINE u64 load_bits(const u8* b) {
  u64 w;
  std::memcpy(&w, b, 8);
  return w;
}

/// The first min(len, 64) bytes at p, zero beyond; reads nothing past them.
BITS_AVX512_INLINE __m512i load_upto(const u8* p, std::size_t len) {
  return len >= 64 ? _mm512_loadu_si512(p) : _mm512_maskz_loadu_epi8(low_bits(len), p);
}

/// Writes the first min(len, 64) bytes of v at p, and nothing past them.
BITS_AVX512_INLINE void store_upto(u8* p, __m512i v, std::size_t len) {
  if (len >= 64)
    _mm512_storeu_si512(p, v);
  else
    _mm512_mask_storeu_epi8(p, low_bits(len), v);
}

/// B0: bit i set iff data[i] != 0. Writes 8 * ceil(n / 64) bytes of b.
BITS_AVX512_INLINE void zero_bitmap(const u8* data, std::size_t n, u8* b) {
  for (std::size_t i = 0; i < n; i += 64) {
    const __m512i v = load_upto(data + i, n - i);
    const u64 m = _mm512_test_epi8_mask(v, v);
    std::memcpy(b + i / 8, &m, 8);
  }
}

/// B_{k+1} of src[0, m): bit i set iff src[i] != src[i-1]. src[-1] must be 0
/// and src readable up to round_up(m, 64). Writes 8 * ceil(m / 64) bytes.
BITS_AVX512_INLINE void repeat_bitmap(const u8* src, std::size_t m, u8* b) {
  for (std::size_t i = 0; i < m; i += 64) {
    const __m512i cur = _mm512_loadu_si512(src + i);
    const __m512i prev = _mm512_loadu_si512(src + i - 1);
    const u64 bits = _mm512_cmpneq_epi8_mask(cur, prev) & low_bits(m - i);
    std::memcpy(b + i / 8, &bits, 8);
  }
}

/// Writes src[i] for every i < m whose bit is set in `keep` (clear at and
/// past m), in order, from dst on; returns the end. Reads src only below
/// src + m and writes nothing at or past dst + m.
BITS_AVX512_INLINE u8* pack(const u8* src, std::size_t m, const u8* keep, u8* dst) {
  for (std::size_t i = 0; i < m; i += 64) {
    const u64 k = load_bits(keep + i / 8);
    const auto c = static_cast<std::size_t>(std::popcount(k));
    const __m512i v = _mm512_maskz_compress_epi8(k, load_upto(src + i, m - i));
    store_upto(dst, v, m - i >= 64 ? 64 : c);
    dst += c;
  }
  return dst;
}

constexpr std::array<u8, 64> kIota = [] {
  std::array<u8, 64> a{};
  for (int j = 0; j < 64; ++j) a[j] = static_cast<u8>(j);
  return a;
}();

/// Rebuilds bitmap level `cur` (m bytes, room for round_up(m, 64)) from its
/// repeat bitmap `keep` and its non-repeating bytes r, exactly
/// count_bits(keep, m) of them: byte i is the last r byte taken at or before
/// i, 0 before the first.
BITS_AVX512_INLINE void unpack_repeat(const u8* keep, std::size_t m, const u8* r, u8* cur) {
  const __m512i iota = _mm512_loadu_si512(kIota.data());
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i ramp = _mm512_add_epi8(iota, one);
  __m512i back[6];  // byte j takes byte j - 2^t
  for (int t = 0; t < 6; ++t) back[t] = _mm512_sub_epi8(iota, _mm512_set1_epi8(char(1 << t)));
  u8 prev = 0;
  for (std::size_t i = 0; i < m; i += 64) {
    const u64 k = load_bits(keep + i / 8) & low_bits(m - i);
    const auto c = static_cast<std::size_t>(std::popcount(k));
    __m512i rank = _mm512_maskz_expand_epi8(k, ramp);
    for (int t = 0; t < 6; ++t) {
      const __m512i earlier = _mm512_maskz_permutexvar_epi8(~u64{0} << (1 << t), back[t], rank);
      rank = _mm512_max_epu8(rank, earlier);
    }
    const __m512i taken = load_upto(r, c);
    const __m512i v = _mm512_mask_permutexvar_epi8(
        _mm512_set1_epi8(static_cast<char>(prev)), _mm512_test_epi8_mask(rank, rank),
        _mm512_sub_epi8(rank, one), taken);
    _mm512_storeu_si512(cur + i, v);
    if (c) prev = r[c - 1];
    r += c;
  }
}

/// Rebuilds n data bytes from B0 (`keep`) and the nonzero bytes z, exactly
/// count_bits(keep, n) of them.
BITS_AVX512_INLINE void unpack_zero(const u8* keep, std::size_t n, const u8* z, u8* data) {
  for (std::size_t i = 0; i < n; i += 64) {
    const u64 k = load_bits(keep + i / 8) & low_bits(n - i);
    const auto c = static_cast<std::size_t>(std::popcount(k));
    store_upto(data + i, _mm512_maskz_expand_epi8(k, load_upto(z, c)), n - i);
    z += c;
  }
}

// --- delta + negabinary ----------------------------------------------------------

template <typename U>
BITS_AVX512_INLINE __m512i add(__m512i a, __m512i b) {
  return sizeof(U) == 4 ? _mm512_add_epi32(a, b) : _mm512_add_epi64(a, b);
}

template <typename U>
BITS_AVX512_INLINE __m512i sub(__m512i a, __m512i b) {
  return sizeof(U) == 4 ? _mm512_sub_epi32(a, b) : _mm512_sub_epi64(a, b);
}

/// Lane j takes x[j - k]; lanes j < k take the top k lanes of `below`.
template <typename U, int k>
BITS_AVX512_INLINE __m512i shift_up(__m512i x, __m512i below) {
  if constexpr (sizeof(U) == 4) return _mm512_maskz_alignr_epi32(0xFFFF, x, below, 16 - k);
  return _mm512_maskz_alignr_epi64(0xFF, x, below, 8 - k);
}

/// Every lane takes the top lane of x.
template <typename U>
BITS_AVX512_INLINE __m512i top_lane(__m512i x) {
  if constexpr (sizeof(U) == 4)
    return _mm512_maskz_permutexvar_epi32(0xFFFF, _mm512_set1_epi32(15), x);
  return _mm512_maskz_permutexvar_epi64(0xFF, _mm512_set1_epi64(7), x);
}

template <typename U>
BITS_AVX512_INLINE void encode_words(U* w, std::size_t n) {
  const __m512i m = _mm512_set1_epi8(static_cast<char>(0xAA));  // negabinary_mask<U>()
  __m512i prev = _mm512_setzero_si512();
  for (std::size_t i = 0; i < n; i += 64 / sizeof(U)) {
    u8* const p = reinterpret_cast<u8*>(w + i);
    const std::size_t len = (n - i) * sizeof(U);
    const __m512i cur = load_upto(p, len);
    const __m512i d = sub<U>(cur, shift_up<U, 1>(cur, prev));
    store_upto(p, _mm512_xor_si512(add<U>(d, m), m), len);
    prev = cur;
  }
}

template <typename U>
BITS_AVX512_INLINE void decode_words(U* w, std::size_t n) {
  const __m512i m = _mm512_set1_epi8(static_cast<char>(0xAA)), zero = _mm512_setzero_si512();
  __m512i carry = zero;  // every lane: the last word decoded so far
  for (std::size_t i = 0; i < n; i += 64 / sizeof(U)) {
    u8* const p = reinterpret_cast<u8*>(w + i);
    const std::size_t len = (n - i) * sizeof(U);
    __m512i x = sub<U>(_mm512_xor_si512(load_upto(p, len), m), m);
    x = add<U>(x, shift_up<U, 1>(x, zero));
    x = add<U>(x, shift_up<U, 2>(x, zero));
    x = add<U>(x, shift_up<U, 4>(x, zero));
    if constexpr (sizeof(U) == 4) x = add<U>(x, shift_up<U, 8>(x, zero));
    store_upto(p, add<U>(x, carry), len);
    // Off the scan's path: the chain from one vector to the next is one add.
    carry = add<U>(carry, top_lane<U>(x));
  }
}

// --- bit shuffle --------------------------------------------------------------

/// The byte permutes of the GFNI tiles (see the file comment).
struct TileTables {
  alignas(64) u8 gather32[64];    // qword s of vector h: block (2h + s / 4, s % 4)
  alignas(64) u8 place32[128];    // output byte g from the two block vectors
  alignas(64) u8 gather64[64];    // qword b of vector q: block (q, b)
  alignas(64) u8 place64[64];     // output byte 8k + s: byte k of qword 7 - s
  alignas(64) u64 swap[3][2][8];  // qword transpose step d = 1, 2, 4: low, high vector
};

constexpr TileTables kTiles = [] {
  TileTables t{};
  for (int s = 0; s < 8; ++s)
    for (int j = 0; j < 8; ++j) {
      t.gather32[8 * s + j] = static_cast<u8>(32 * (s / 4) + 4 * j + s % 4);
      t.gather64[8 * s + j] = static_cast<u8>(8 * j + s);
      t.place64[8 * j + s] = static_cast<u8>(8 * (7 - s) + j);
    }
  // Output byte g is byte B of row 8Q + k: it comes from block (q, b) =
  // (3 - B, 3 - Q), byte k, which sits in block vector q / 2, qword 4(q % 2) + b.
  for (int g = 0; g < 128; ++g) {
    const int q = 3 - g % 4, b = 3 - g / 32, k = g % 32 / 4;
    t.place32[g] = static_cast<u8>(64 * (q / 2) + 8 * (4 * (q % 2) + b) + k);
  }
  for (int d = 1, st = 0; d < 8; d *= 2, ++st)
    for (int j = 0; j < 8; ++j) {
      t.swap[st][0][j] = static_cast<u64>(j & d ? 8 + j - d : j);
      t.swap[st][1][j] = static_cast<u64>(j & d ? 8 + j : j + d);
    }
  return t;
}();

/// vpermb: byte j takes byte idx[j] of x.
BITS_AVX512_INLINE __m512i permute_bytes(__m512i idx, __m512i x) {
  return _mm512_maskz_permutexvar_epi8(~u64{0}, idx, x);
}

/// Anti-transposes the 8x8 bit block in each qword: bit (j, i) to (7-i, 7-j).
BITS_AVX512_INLINE __m512i anti_transpose_blocks(__m512i blocks) {
  return _mm512_gf2p8affine_epi64_epi8(_mm512_set1_epi64(0x0102040810204080), blocks, 0);
}

/// transpose_bits_32, in place.
BITS_AVX512_INLINE void tile32(u32* a) {
  const __m512i gather = _mm512_load_si512(kTiles.gather32);
  const __m512i r0 = anti_transpose_blocks(permute_bytes(gather, _mm512_loadu_si512(a)));
  const __m512i r1 = anti_transpose_blocks(permute_bytes(gather, _mm512_loadu_si512(a + 16)));
  for (int o = 0; o < 2; ++o)
    _mm512_storeu_si512(a + 16 * o, _mm512_permutex2var_epi8(
                                        r0, _mm512_load_si512(kTiles.place32 + 64 * o), r1));
}

/// transpose_bits_64, in place. x[q] qword b is block (q, b); after the
/// qword transpose x[m] qword n is block (n, m), whose bytes go to output
/// vector 7 - m.
BITS_AVX512_INLINE void tile64(u64* a) {
  const __m512i gather = _mm512_load_si512(kTiles.gather64);
  __m512i x[8];
  for (int q = 0; q < 8; ++q)
    x[q] = anti_transpose_blocks(permute_bytes(gather, _mm512_loadu_si512(a + 8 * q)));
  for (int d = 1, st = 0; d < 8; d *= 2, ++st)
    for (int q = 0; q < 8; ++q)
      if (!(q & d)) {
        const __m512i lo = _mm512_permutex2var_epi64(x[q], _mm512_load_si512(kTiles.swap[st][0]),
                                                     x[q + d]);
        x[q + d] = _mm512_permutex2var_epi64(x[q], _mm512_load_si512(kTiles.swap[st][1]), x[q + d]);
        x[q] = lo;
      }
  const __m512i place = _mm512_load_si512(kTiles.place64);
  for (int m = 0; m < 8; ++m) _mm512_storeu_si512(a + 8 * (7 - m), permute_bytes(place, x[m]));
}

}  // namespace

BITS_AVX512_KERNEL void encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  const LevelSizes size = levels::sizes(n);
  // Bitmap B_k starts at at[k], after one zero byte (the predecessor of its
  // byte 0), and is padded to whole 64-byte groups.
  LevelSizes at{};
  u8* const base = chunk_scratch().bitmaps(levels::layout(size, 1, 64, at));
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

BITS_AVX512_KERNEL std::size_t decode(const u8* in, std::size_t in_size, u8* data,
                                      std::size_t n) {
  const LevelSizes size = levels::sizes(n);
  std::size_t pos = 0;
  auto take = [&](std::size_t k) {
    if (pos + k > in_size) throw CompressionError("zerobyte_decode: truncated stream");
    const u8* p = in + pos;
    pos += k;
    return p;
  };
  // Bitmap B_k starts at at[k], padded to whole 64-byte groups.
  LevelSizes at{};
  u8* const base = chunk_scratch().bitmaps(levels::layout(size, 0, 64, at));

  const u8* top = take(size[kLevels]);
  std::copy_n(top, size[kLevels], base + at[kLevels]);
  for (int k = kLevels - 1; k >= 0; --k) {
    const u8* r = take(levels::count_bits(base + at[k + 1], size[k]));
    unpack_repeat(base + at[k + 1], size[k], r, base + at[k]);
  }
  const u8* z = take(levels::count_bits(base + at[0], n));
  unpack_zero(base + at[0], n, z, data);
  return pos;
}

BITS_AVX512_KERNEL void shuffle_tiles(u32* w, std::size_t n) {
  for (std::size_t i = 0; i + 32 <= n; i += 32) tile32(w + i);
}

BITS_AVX512_KERNEL void shuffle_tiles(u64* w, std::size_t n) {
  for (std::size_t i = 0; i + 64 <= n; i += 64) tile64(w + i);
}

BITS_AVX512_KERNEL void delta_encode(u32* w, std::size_t n) { encode_words(w, n); }
BITS_AVX512_KERNEL void delta_encode(u64* w, std::size_t n) { encode_words(w, n); }
BITS_AVX512_KERNEL void delta_decode(u32* w, std::size_t n) { decode_words(w, n); }
BITS_AVX512_KERNEL void delta_decode(u64* w, std::size_t n) { decode_words(w, n); }

}  // namespace repro::bits::avx512

#endif  // no x86: the dispatch never names this tier
