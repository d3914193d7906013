// 128-bit content hash — the identity of a chunk in the PFPS tiered store.
//
// The store (src/store) keys every cached/persisted result by a 128-bit hash
// over (payload bytes, dtype, error-bound mode, bound), so two requests with
// the same bytes but different bounds never collide on one entry, while the
// same request always dedups onto one. 128 bits keep the birthday collision
// probability negligible at any realistic entry count (~2^-64 per pair).
//
// The mixer is the MurmurHash3 x64/128 finalization scheme with explicit
// little-endian loads, so a hash computed on any host names the same chunk —
// the store's on-disk segment frames carry these keys verbatim.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <string>

#include "common/types.hpp"

namespace repro::common {

struct Hash128 {
  u64 hi = 0;
  u64 lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;

  bool is_zero() const { return hi == 0 && lo == 0; }

  /// 32 lowercase hex characters, high word first (the spelling the CLI
  /// prints and `pfpl store get` parses).
  std::string hex() const {
    static const char* digits = "0123456789abcdef";
    std::string s(32, '0');
    for (int i = 0; i < 16; ++i) s[i] = digits[(hi >> (60 - 4 * i)) & 0xF];
    for (int i = 0; i < 16; ++i) s[16 + i] = digits[(lo >> (60 - 4 * i)) & 0xF];
    return s;
  }

  /// Parse the hex() spelling (exactly 32 hex chars, case-insensitive).
  static bool parse(const std::string& s, Hash128& out) {
    if (s.size() != 32) return false;
    u64 w[2] = {0, 0};
    for (int i = 0; i < 32; ++i) {
      const char c = s[static_cast<std::size_t>(i)];
      u64 v;
      if (c >= '0' && c <= '9') v = static_cast<u64>(c - '0');
      else if (c >= 'a' && c <= 'f') v = static_cast<u64>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v = static_cast<u64>(c - 'A' + 10);
      else return false;
      w[i / 16] = (w[i / 16] << 4) | v;
    }
    out.hi = w[0];
    out.lo = w[1];
    return true;
  }
};

/// std::unordered_map hasher: the key is already uniformly mixed, so folding
/// the words is enough.
struct Hash128Hasher {
  std::size_t operator()(const Hash128& h) const noexcept {
    return static_cast<std::size_t>(h.hi ^ (h.lo * 0x9E3779B97F4A7C15ull));
  }
};

namespace detail {

inline u64 rotl64(u64 x, int r) { return (x << r) | (x >> (64 - r)); }

inline u64 fmix64(u64 k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

/// Little-endian 64-bit load from any alignment: one word load, byte-swapped
/// on big-endian hosts (GCC compiles a byte loop to eight loads per word).
inline u64 load_le64(const u8* p) {
  u64 v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

}  // namespace detail

/// One-shot 128-bit hash (MurmurHash3 x64/128 with little-endian loads).
inline Hash128 hash128(const void* data, std::size_t n, u64 seed = 0) {
  using detail::fmix64;
  using detail::load_le64;
  using detail::rotl64;
  const u8* p = static_cast<const u8*>(data);
  const std::size_t nblocks = n / 16;
  u64 h1 = seed, h2 = seed;
  constexpr u64 c1 = 0x87C37B91114253D5ull;
  constexpr u64 c2 = 0x4CF5AD432745937Full;

  for (std::size_t b = 0; b < nblocks; ++b) {
    u64 k1 = load_le64(p + b * 16);
    u64 k2 = load_le64(p + b * 16 + 8);
    k1 *= c1; k1 = rotl64(k1, 31); k1 *= c2; h1 ^= k1;
    h1 = rotl64(h1, 27); h1 += h2; h1 = h1 * 5 + 0x52DCE729u;
    k2 *= c2; k2 = rotl64(k2, 33); k2 *= c1; h2 ^= k2;
    h2 = rotl64(h2, 31); h2 += h1; h2 = h2 * 5 + 0x38495AB5u;
  }

  const u8* tail = p + nblocks * 16;
  u64 k1 = 0, k2 = 0;
  switch (n & 15) {
    case 15: k2 ^= static_cast<u64>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<u64>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<u64>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<u64>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<u64>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<u64>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<u64>(tail[8]);
      k2 *= c2; k2 = rotl64(k2, 33); k2 *= c1; h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<u64>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<u64>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<u64>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<u64>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<u64>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<u64>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<u64>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<u64>(tail[0]);
      k1 *= c1; k1 = rotl64(k1, 31); k1 *= c2; h1 ^= k1;
      break;
    case 0: break;
  }

  h1 ^= static_cast<u64>(n);
  h2 ^= static_cast<u64>(n);
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

}  // namespace repro::common
