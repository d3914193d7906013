// Bit shuffling (bit transposition) — second lossless stage.
//
// Paper, Section III-D / Figure 4: output the most significant bit of all
// residuals, then the next bit, and so on. On the GPU this is done at warp
// granularity over tiles of 32 (float) or 64 (double) values using
// log2(wordsize) warp-shuffle steps (Section III-E); the CPU code performs
// the identical tile-wise transposition so both devices produce the same
// bytes. A tile is a square bit matrix (32x32 or 64x64) and transposition is
// its own inverse.
//
// bitshuffle() runs the AVX2 tier (lossless_avx2.cpp) when the CPU has AVX2
// and scalar::bitshuffle() otherwise; both write the same words for every
// input. The scalar functions are the reference the tier is tested against.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace repro::bits {

/// Transpose a 32x32 bit matrix held as 32 u32 words, in place: bit c of
/// row r moves to bit 31-r of row 31-c. Self-inverse. (Hacker's
/// Delight-style masked swap, log2(32) = 5 steps — the CPU mirror of the
/// warp-shuffle implementation.)
void transpose_bits_32(u32* a);

/// Transpose a 64x64 bit matrix held as 64 u64 words, in place. Self-inverse.
void transpose_bits_64(u64* a);

/// Tile-wise bit shuffle over `n` words; `n` must be a multiple of the tile
/// size (32 for u32, 64 for u64). Self-inverse, so the same call performs
/// the unshuffle.
void bitshuffle(u32* w, std::size_t n);
void bitshuffle(u64* w, std::size_t n);

namespace scalar {

/// The reference tier: transpose_bits_32/64 over every tile.
void bitshuffle(u32* w, std::size_t n);
void bitshuffle(u64* w, std::size_t n);

}  // namespace scalar

}  // namespace repro::bits
