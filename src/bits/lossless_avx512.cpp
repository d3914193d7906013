// AVX-512 tier of zero-byte elimination (zerobyte.hpp): the entry points at
// the bottom of lossless_avx2.cpp run it from the Avx512 rung of
// common::isa() up. Its contract is the AVX2 tier's: for every input it
// writes the same bytes, returns the same consumed count and throws the same
// CompressionError as the scalar:: reference. The kernels carry AVX-512
// F/BW/VL/DQ/VBMI/VBMI2 target attributes, the Avx512 rung, and nothing else.
// Bitmap levels live in this thread's ChunkScratch (chunk_scratch.hpp),
// padded to whole 64-byte groups; every bit past a level's end is masked off
// where it is read, so the padding is never zeroed.
//
// Encode. B0 is one vptestmb per 64 data bytes; B_{k+1} is one vpcmpneqb of
// 64 bytes of B_k against the same bytes loaded one byte earlier (a zero
// byte sits before each level). The survivors of 64 bytes are packed by the
// register form of vpcompressb under their bitmap word and written with one
// 64-byte store; the memory-destination form is microcoded on Zen 4 and is
// never used. A full group's store ends before dst + m, since group g starts
// at most 64g bytes after dst; a level's last, partial group stores only its
// survivors, under a byte mask. The data are read with a masked load at
// their end, so nothing at or past data + n is read.
//
// Decode. Survivor counts and takes are the AVX2 tier's: popcounts over
// exactly the bitmap bits the scalar loop visits, taken with its bounds
// check and message. Data: each 64-byte group is a vpexpandb of a masked load
// of exactly its popcount survivors, which take() has checked lie inside the
// stream. Repeat levels: vpexpandb of the ramp 1..64 under the group's bitmap
// word puts at each kept byte its 1-based rank among the group's survivors;
// a prefix max (six vpermb shifts and vpmaxub) carries it to the bytes that
// repeat; a masked vpermb then picks survivor rank-1, or the last byte taken
// before the group (0 at the start) where the rank is 0. The data's last
// group is written under a byte mask, so nothing at or past data + n is
// written. DESIGN.md §8.2 has the proof obligations of both tiers.
#include "bits/chunk_scratch.hpp"
#include "bits/zerobyte.hpp"
#include "bits/zerobyte_tiers.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#define BITS_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512dq,avx512vbmi,avx512vbmi2"
#define BITS_AVX512 __attribute__((target(BITS_AVX512_TARGET)))
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

}  // namespace

BITS_AVX512 void encode(const u8* data, std::size_t n, std::vector<u8>& out) {
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

BITS_AVX512 std::size_t decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
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

}  // namespace repro::bits::avx512

#else  // no x86: never called, since the rung is Scalar

namespace repro::bits::avx512 {

void encode(const u8* data, std::size_t n, std::vector<u8>& out) {
  scalar::zerobyte_encode(data, n, out);
}
std::size_t decode(const u8* in, std::size_t in_size, u8* data, std::size_t n) {
  return scalar::zerobyte_decode(in, in_size, data, n);
}

}  // namespace repro::bits::avx512

#endif
