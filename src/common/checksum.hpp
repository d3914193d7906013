// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) — the one integrity
// checksum of the repository, shared by the PFPA archive (src/svc), the PFPS
// chunk store (src/store), the PFPV frame-sequence stream (src/temporal) and
// the PFPN wire protocol (src/net). Header-only; the table is built once per
// process.
//
// Two tiers compute the same value. `scalar::crc32`, one table lookup per
// byte, is the specification. `crc32` folds every whole 16-byte block of an
// input of 64 bytes or more with carry-less multiplies on PCLMULQDQ hosts
// (`has_pclmul()`, the only switch) and hands the rest to the scalar loop
// (DESIGN.md §8.3).
#pragma once

#include <array>
#include <cstddef>

#include "common/cpu.hpp"
#include "common/types.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace repro::common {

inline const std::array<u32, 256>& crc32_table() {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  return table;
}

namespace scalar {

/// The reference CRC-32. Incremental: pass the previous return value as
/// `seed` to continue.
inline u32 crc32(const void* data, std::size_t n, u32 seed = 0) {
  const auto& t = crc32_table();
  const u8* p = static_cast<const u8*>(data);
  u32 c = ~seed;
  for (std::size_t i = 0; i < n; ++i) c = t[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return ~c;
}

}  // namespace scalar

#if defined(__x86_64__) || defined(__i386__)
namespace pclmul {

#define REPRO_PCLMUL __attribute__((target("pclmul,sse4.1")))

REPRO_PCLMUL inline __m128i load(const u8* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds the 128-bit remainder `a` forward onto the block `next`:
/// lo(a)·lo(k) ^ hi(a)·hi(k) ^ next.
REPRO_PCLMUL inline __m128i fold16(__m128i a, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11)), next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) of
/// [p, p + n) into the CRC register `c` (the un-inverted state of the scalar
/// loop). `n` is a multiple of 16 and at least 64. Each k is x^d mod P,
/// bit-reflected and shifted left by one, for the fold distance d beside it;
/// P′ is P and μ is floor(x^64 / P), both as 33-bit reflections.
REPRO_PCLMUL inline u32 fold(const u8* p, std::size_t n, u32 c) {
  // _mm_set_epi64x takes (high, low).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // k2, k1: d = 4·128 ∓ 32
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // k4, k3: d = 128 ∓ 32
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // k5: d = 64
  const __m128i mu_poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // μ, P′
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four accumulators, 64 bytes per step.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16), x2 = load(p + 32), x3 = load(p + 48);
  std::size_t at = 64;
  for (; at + 64 <= n; at += 64) {
    x0 = fold16(x0, k1k2, load(p + at));
    x1 = fold16(x1, k1k2, load(p + at + 16));
    x2 = fold16(x2, k1k2, load(p + at + 32));
    x3 = fold16(x3, k1k2, load(p + at + 48));
  }
  // Down to one accumulator, then the remaining 16-byte blocks.
  __m128i x = fold16(fold16(fold16(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; at < n; at += 16) x = fold16(x, k3k4, load(p + at));

  // 128 → 64 bits, then 64 → 32 + 32 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_poly, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#undef REPRO_PCLMUL

}  // namespace pclmul
#endif

/// Incremental form: pass the previous return value as `seed` to continue.
/// Equal to `scalar::crc32` for every input.
inline u32 crc32(const void* data, std::size_t n, u32 seed = 0) {
#if defined(__x86_64__) || defined(__i386__)
  if (n >= 64 && has_pclmul()) {
    const u8* p = static_cast<const u8*>(data);
    const std::size_t blocks = n & ~std::size_t{15};
    const u32 c = pclmul::fold(p, blocks, ~seed);
    return scalar::crc32(p + blocks, n - blocks, ~c);
  }
#endif
  return scalar::crc32(data, n, seed);
}

}  // namespace repro::common
