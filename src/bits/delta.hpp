// Word-wise difference coding (delta modulation) — first lossless stage.
//
// Each word is replaced by itself minus the previous word (the first word is
// kept, i.e. differenced against 0), with wraparound arithmetic so the
// transform is a bijection regardless of the word values. Combined with
// negabinary conversion this turns slowly varying bin-number sequences into
// words with long runs of leading zero bits (paper Figure 3).
//
// The entry points (bottom of lossless_avx2.cpp) run lossless_avx512.cpp
// from the Avx512 rung up and the scalar:: reference loops below it.
#pragma once

#include <cstddef>

#include "bits/negabinary.hpp"
#include "common/types.hpp"

namespace repro::bits {

/// In-place forward delta + negabinary over `n` words.
void delta_negabinary_encode(u32* w, std::size_t n);
void delta_negabinary_encode(u64* w, std::size_t n);

/// In-place inverse: negabinary decode + prefix-sum reconstruction.
void delta_negabinary_decode(u32* w, std::size_t n);
void delta_negabinary_decode(u64* w, std::size_t n);

namespace scalar {

template <typename U>
inline void delta_negabinary_encode(U* w, std::size_t n) {
  U prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    U cur = w[i];
    w[i] = to_negabinary<U>(static_cast<U>(cur - prev));
    prev = cur;
  }
}

template <typename U>
inline void delta_negabinary_decode(U* w, std::size_t n) {
  U prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev = static_cast<U>(prev + from_negabinary<U>(w[i]));
    w[i] = prev;
  }
}

}  // namespace scalar

}  // namespace repro::bits
