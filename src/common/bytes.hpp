// Little-endian wire primitives and the one bounds-checked reader behind
// every container parser (PFPL, PFPA, PFPS, PFPV, PFPN; docs/FORMAT.md).
// ByteReader checks every read against the bytes that remain; a failed check
// throws a CompressionError naming the container and the byte offset reached.
#pragma once

#include <bit>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/types.hpp"

namespace repro::common {

/// Store `v` (an unsigned integer or a double) at `p`, low byte first.
template <typename T>
void put_le(u8* p, T v) {
  if constexpr (std::is_same_v<T, double>) {
    put_le(p, std::bit_cast<u64>(v));
  } else if constexpr (std::endian::native == std::endian::little) {
    static_assert(std::is_unsigned_v<T>);
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) p[i] = static_cast<u8>(v >> (8 * i));
  }
}

template <typename T>
T get_le(const u8* p) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<double>(get_le<u64>(p));
  } else {
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) std::memcpy(&v, p, sizeof v);
    else for (std::size_t i = 0; i < sizeof v; ++i) v |= static_cast<T>(T{p[i]} << (8 * i));
    return v;
  }
}

template <typename T>
void append_le(Bytes& out, T v) {
  out.resize(out.size() + sizeof v);
  put_le(out.data() + out.size() - sizeof v, v);
}

/// Front-to-back reader over untrusted bytes. `base` is the offset of
/// `data` within the container, so errors report container offsets.
class ByteReader {
 public:
  ByteReader(const u8* data, std::size_t size, std::string container, std::size_t base = 0)
      : data_(data), size_(size), base_(base), container_(std::move(container)) {}
  ByteReader(const Bytes& b, std::string container)
      : ByteReader(b.data(), b.size(), std::move(container)) {}

  std::size_t offset() const { return base_ + pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  void need(std::size_t n, const char* what = "truncated") const {
    if (n > remaining()) fail(what);
  }
  template <typename T>
  T take() {
    return get_le<T>(take_bytes(sizeof(T)));
  }
  const u8* take_bytes(std::size_t n, const char* what = "truncated") {
    need(n, what);
    pos_ += n;
    return data_ + pos_ - n;
  }

  /// Bytes taken by `count` elements of at least `elem_bytes` each; throws
  /// when the remaining bytes cannot hold them, so a hostile count never
  /// sizes an allocation larger than the input that claims it.
  std::size_t size_for(u64 count, std::size_t elem_bytes,
                       const char* what = "count exceeds the bytes present") const {
    if (count > remaining() / elem_bytes) fail(what);
    return static_cast<std::size_t>(count) * elem_bytes;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw CompressionError(container_ + ": " + what + " at byte " + std::to_string(offset()));
  }

 private:
  const u8* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t base_;
  std::string container_;
};

}  // namespace repro::common
