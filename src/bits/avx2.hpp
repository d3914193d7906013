// The AVX2 tier of the lossless stages (lossless_avx2.cpp). Private to
// repro_bits: callers use the dispatching bitshuffle()/zerobyte_*() entry
// points, which call these only when common::has_avx2() is true. Each
// function has the contract of its scalar:: namesake, byte for byte.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace repro::bits::avx2 {

void bitshuffle(u32* w, std::size_t n);
void bitshuffle(u64* w, std::size_t n);
void zerobyte_encode(const u8* data, std::size_t n, std::vector<u8>& out);
std::size_t zerobyte_decode(const u8* in, std::size_t in_size, u8* data, std::size_t n);

}  // namespace repro::bits::avx2
