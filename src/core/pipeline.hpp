// Per-chunk lossless pipeline (paper Section III-D/E).
//
// The input stream of quantized words is split into 16 KiB chunks (4096 u32
// words or 2048 u64 words). Each chunk independently runs the fused pipeline
//   delta -> negabinary -> tile bit-shuffle -> zero-byte elimination
// so chunks can be compressed by different threads / thread blocks and the
// result is identical regardless of the execution order. A chunk whose
// compressed form would not shrink is stored raw and flagged, capping the
// worst-case expansion (paper: "the original chunk data is emitted and the
// chunk is flagged as uncompressed").
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "bits/bitshuffle.hpp"
#include "bits/chunk_scratch.hpp"
#include "bits/delta.hpp"
#include "bits/zerobyte.hpp"
#include "common/types.hpp"
#include "obs/kernels.hpp"
#include "obs/trace.hpp"

namespace repro::pfpl {

/// Chunk size in bytes (paper Section III-E: "16 kB chunks").
inline constexpr std::size_t kChunkBytes = 16 * 1024;

template <typename U>
inline constexpr std::size_t chunk_words() {
  return kChunkBytes / sizeof(U);
}

/// Bit-shuffle tile size: 32 words for u32, 64 for u64 (warp granularity in
/// the CUDA code, Section III-E).
template <typename U>
inline constexpr std::size_t tile_words() {
  return sizeof(U) * 8;
}

template <typename U>
inline constexpr std::size_t padded_words(std::size_t k) {
  constexpr std::size_t t = tile_words<U>();
  return (k + t - 1) / t * t;
}

/// Compress `k` quantized words into `out` (appended). Returns true if the
/// chunk was stored compressed, false if stored raw (caller records the flag
/// in the chunk-size table).
template <typename U>
bool chunk_encode(const U* words, std::size_t k, std::vector<u8>& out) {
  const std::size_t padded = padded_words<U>(k);
  // Kernel attribution charges each stage the logical chunk bytes (k words),
  // not the tile-padded footprint, so per-kernel MB/s is comparable across
  // stages and sums against core.bytes_in.
  const std::size_t kbytes = k * sizeof(U);
  U* const buf = bits::chunk_scratch().padded<U>(padded);
  std::memcpy(buf, words, kbytes);
  std::fill(buf + k, buf + padded, U{0});
  {
    OBS_SPAN("pfpl.delta_nb");
    obs::KernelTimer kt(obs::Kernel::DeltaNb, kbytes);
    bits::delta_negabinary_encode(buf, padded);
  }
  {
    OBS_SPAN("pfpl.bitshuffle");
    obs::KernelTimer kt(obs::Kernel::Bitshuffle, kbytes);
    bits::bitshuffle(buf, padded);
  }
  const std::size_t start = out.size();
  {
    OBS_SPAN("pfpl.zerobyte");
    obs::KernelTimer kt(obs::Kernel::Zerobyte, kbytes);
    bits::zerobyte_encode(reinterpret_cast<const u8*>(buf), padded * sizeof(U), out);
  }
  if (out.size() - start >= k * sizeof(U)) {
    // Incompressible: replace with the raw words.
    out.resize(start);
    out.insert(out.end(), reinterpret_cast<const u8*>(words),
               reinterpret_cast<const u8*>(words) + k * sizeof(U));
    return false;
  }
  return true;
}

/// Decompress one chunk of `k` words from `in` (`in_size` bytes available,
/// `compressed` from the chunk-size-table flag). Returns bytes consumed.
template <typename U>
std::size_t chunk_decode(const u8* in, std::size_t in_size, bool compressed, U* words,
                         std::size_t k) {
  if (!compressed) {
    if (in_size < k * sizeof(U)) throw CompressionError("chunk_decode: truncated raw chunk");
    std::memcpy(words, in, k * sizeof(U));
    return k * sizeof(U);
  }
  const std::size_t padded = padded_words<U>(k);
  const std::size_t kbytes = k * sizeof(U);
  // A whole number of tiles decodes in place; a partial last tile through
  // the padded scratch.
  U* const buf = padded == k ? words : bits::chunk_scratch().padded<U>(padded);
  std::size_t used;
  {
    OBS_SPAN("pfpl.zerobyte");
    obs::KernelTimer kt(obs::Kernel::ZerobyteDec, kbytes);
    used = bits::zerobyte_decode(in, in_size, reinterpret_cast<u8*>(buf), padded * sizeof(U));
  }
  {
    OBS_SPAN("pfpl.bitshuffle");
    obs::KernelTimer kt(obs::Kernel::BitshuffleDec, kbytes);
    bits::bitshuffle(buf, padded);
  }
  {
    OBS_SPAN("pfpl.delta_nb");
    obs::KernelTimer kt(obs::Kernel::DeltaNbDec, kbytes);
    bits::delta_negabinary_decode(buf, padded);
  }
  if (buf != words) std::memcpy(words, buf, kbytes);
  return used;
}

}  // namespace repro::pfpl
