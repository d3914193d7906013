// Compares the two zero-byte decoder tiers (bits::zerobyte_decode, which runs
// the AVX2 tier on CPUs that have it, and bits::scalar::zerobyte_decode, the
// reference) on one input. Shared by test_bits and test_format_fuzz.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bits/zerobyte.hpp"

namespace repro::tiers {

/// A heap copy of exactly v.size() bytes, so a sanitizer build reports any
/// read past its end.
inline std::unique_ptr<u8[]> exact_copy(const std::vector<u8>& v) {
  std::unique_ptr<u8[]> p(new u8[v.size()]);
  std::copy(v.begin(), v.end(), p.get());
  return p;
}

/// What a decode did: threw (with its message), or consumed `used` bytes and
/// wrote `bytes`.
struct Decoded {
  bool threw = false;
  std::string error;
  std::size_t used = 0;
  std::vector<u8> bytes;
};

/// Decodes from an input buffer of exactly in.size() bytes into one of
/// exactly n bytes, so a sanitizer build reports any access outside them.
template <typename Fn>
Decoded run_decode(Fn decode, const std::vector<u8>& in, std::size_t n) {
  const std::unique_ptr<u8[]> src = exact_copy(in);
  const std::unique_ptr<u8[]> dst(new u8[n]);
  std::fill_n(dst.get(), n, u8{0xA5});
  Decoded r;
  try {
    r.used = decode(src.get(), in.size(), dst.get(), n);
    r.bytes.assign(dst.get(), dst.get() + n);
  } catch (const CompressionError& e) {
    r.threw = true;
    r.error = e.what();
  }
  return r;
}

/// Both decode tiers must throw the same error, or consume the same count
/// and write the same bytes.
inline void expect_decode_agrees(const std::vector<u8>& in, std::size_t n,
                                 const std::string& what) {
  const Decoded ref = run_decode(bits::scalar::zerobyte_decode, in, n);
  const Decoded got = run_decode(bits::zerobyte_decode, in, n);
  ASSERT_EQ(got.threw, ref.threw) << what;
  ASSERT_EQ(got.error, ref.error) << what;
  ASSERT_EQ(got.used, ref.used) << what;
  ASSERT_EQ(got.bytes, ref.bytes) << what;
}

}  // namespace repro::tiers
