#include "bits/bitshuffle.hpp"

#include <cassert>

namespace repro::bits {

void transpose_bits_32(u32* a) {
  u32 m = 0x0000FFFFu;
  for (u32 j = 16; j != 0; j >>= 1, m ^= (m << j)) {
    for (u32 k = 0; k < 32; k = (k + j + 1) & ~j) {
      u32 t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= (t << j);
    }
  }
}

void transpose_bits_64(u64* a) {
  u64 m = 0x00000000FFFFFFFFull;
  for (u32 j = 32; j != 0; j >>= 1, m ^= (m << j)) {
    for (u32 k = 0; k < 64; k = (k + j + 1) & ~j) {
      u64 t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= (t << j);
    }
  }
}

namespace scalar {

void bitshuffle(u32* w, std::size_t n) {
  assert(n % 32 == 0);
  for (std::size_t i = 0; i < n; i += 32) transpose_bits_32(w + i);
}

void bitshuffle(u64* w, std::size_t n) {
  assert(n % 64 == 0);
  for (std::size_t i = 0; i < n; i += 64) transpose_bits_64(w + i);
}

}  // namespace scalar

}  // namespace repro::bits
