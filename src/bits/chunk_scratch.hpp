// Per-thread scratch of the chunk pipeline.
//
// Encoding or decoding one chunk needs a few buffers of at most a chunk's
// size: the chunk's quantized words (core/pfpl.cpp), the tile-padded words
// the lossless stages transform in place (core/pipeline.hpp), and the
// bitmap levels and worst-case output of the zero-byte SIMD tiers
// (bits/lossless_avx2.cpp, bits/lossless_avx512.cpp). Each thread owns one
// ChunkScratch, so after its first chunk a thread allocates none of these:
// the serial driver, OpenMP workers, the ingest pool, stream encoders and
// server workers each reuse their own. No two users hold the same buffer at
// once. Buffers only grow, and what they hold between uses is stale, never
// zeroed.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace repro::bits {

class ChunkScratch {
 public:
  /// Room for one chunk's n quantized words.
  template <typename U>
  U* quantized(std::size_t n) {
    return grow(of<U>().quantized, n);
  }
  /// Room for n tile-padded words for the lossless stages.
  template <typename U>
  U* padded(std::size_t n) {
    return grow(of<U>().padded, n);
  }
  /// Room for n bytes of zero-byte bitmap levels.
  u8* bitmaps(std::size_t n) { return grow(bitmaps_, n); }
  /// Room for one zero-byte encoding's n worst-case bytes.
  u8* payload(std::size_t n) { return grow(payload_, n); }

 private:
  template <typename U>
  struct Words {
    std::vector<U> quantized, padded;
  };

  template <typename U>
  Words<U>& of() {
    if constexpr (sizeof(U) == 4)
      return w32_;
    else
      return w64_;
  }

  template <typename E>
  static E* grow(std::vector<E>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
  }

  Words<u32> w32_;
  Words<u64> w64_;
  std::vector<u8> bitmaps_, payload_;
};

/// This thread's scratch.
inline ChunkScratch& chunk_scratch() {
  thread_local ChunkScratch s;
  return s;
}

}  // namespace repro::bits
