// Zero-byte elimination with iterated bitmap compression — final lossless
// stage (paper, Section III-D / Figure 5).
//
// A bitmap marks which input bytes are nonzero; zero bytes are dropped. The
// bitmap itself is then compressed by a similar scheme: a second bitmap marks
// which bitmap bytes differ from their predecessor ("non-repeating"), and
// only those are kept. This is iterated until the surviving bitmap is only a
// few bytes long (for a full 16 KiB chunk: 2048 -> 256 -> 32 -> 4 bytes).
//
// Stream layout, matching the order the decoder consumes it:
//   [top-level bitmap B3] [R2] [R1] [R0] [NZ]
// where B_{k+1} is the repeat-bitmap of B_k, R_k holds the non-repeating
// bytes of B_k, and NZ holds the nonzero data bytes.
//
// zerobyte_encode() and zerobyte_decode() (defined in lossless_avx2.cpp) run
// the AVX-512 tier from the Avx512 rung of common::isa(), the AVX2 tier from
// Avx2, and the scalar:: functions below it. All tiers write the same bytes,
// return the same consumed count and throw the same CompressionError for
// every input; the scalar functions are the reference.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace repro::bits {

/// Number of bitmap-compression iterations applied on top of the zero-byte
/// bitmap (paper: "iteratively applied ... until the bitmap is only a few
/// bytes long").
inline constexpr int kZeroByteLevels = 3;

/// Encode `n` bytes; appends the compressed representation to `out`.
/// Worst case output is ~n * (1 + 1/8 + ...) bytes; callers cap expansion at
/// the chunk level by falling back to raw storage.
void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out);

/// Decode exactly `n` bytes into `data` from `in` (at most `in_size` bytes
/// available). Returns the number of input bytes consumed; the stream holds
/// no length of its own, so a caller that knows its size must compare the
/// two. Throws CompressionError if the stream is truncated.
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);

namespace scalar {

/// The reference tier, one byte and one bitmap bit at a time.
void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out);
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);

}  // namespace scalar

}  // namespace repro::bits
