// Core shared types for the PFPL reproduction.
//
// Everything in this repository speaks in terms of:
//   - DType:  the scalar precision of a field (f32 / f64)
//   - EbType: the point-wise error-bound type (ABS / REL / NOA), Section II
//   - Field:  a non-owning view of a 1D/2D/3D scalar field
//   - Bytes:  an owning compressed byte buffer
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace repro {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Scalar precision of a data field.
enum class DType : u8 { F32 = 0, F64 = 1 };

/// Point-wise error-bound type (paper Section II).
enum class EbType : u8 {
  ABS = 0,  ///< point-wise absolute error
  REL = 1,  ///< point-wise relative error
  NOA = 2,  ///< point-wise normalized absolute error (ABS scaled by range)
};

inline const char* to_string(DType t) { return t == DType::F32 ? "f32" : "f64"; }

inline const char* to_string(EbType t) {
  switch (t) {
    case EbType::ABS: return "ABS";
    case EbType::REL: return "REL";
    case EbType::NOA: return "NOA";
  }
  return "?";
}

inline std::size_t dtype_size(DType t) { return t == DType::F32 ? 4 : 8; }

/// Owning compressed-byte buffer.
using Bytes = std::vector<u8>;

/// Non-owning view of a scalar field with up to 3 dimensions.
///
/// Dimensions are stored slowest-varying first (dims[0] = z, dims[1] = y,
/// dims[2] = x). A 1D stream of n values is {1, 1, n}; a 2D field of
/// h x w is {1, h, w}. This matches the layout of the SDRBench files the
/// paper evaluates on (Table II).
struct Field {
  const void* data = nullptr;
  DType dtype = DType::F32;
  std::array<std::size_t, 3> dims{1, 1, 0};

  Field() = default;

  Field(const float* p, std::size_t n) : data(p), dtype(DType::F32), dims{1, 1, n} {}
  Field(const double* p, std::size_t n) : data(p), dtype(DType::F64), dims{1, 1, n} {}
  Field(const float* p, std::array<std::size_t, 3> d) : data(p), dtype(DType::F32), dims(d) {}
  Field(const double* p, std::array<std::size_t, 3> d) : data(p), dtype(DType::F64), dims(d) {}

  explicit Field(std::span<const float> s) : Field(s.data(), s.size()) {}
  explicit Field(std::span<const double> s) : Field(s.data(), s.size()) {}

  std::size_t count() const { return dims[0] * dims[1] * dims[2]; }
  std::size_t byte_size() const { return count() * dtype_size(dtype); }

  /// Number of dimensions with extent > 1 (at least 1).
  int rank() const {
    int r = 0;
    for (std::size_t d : dims)
      if (d > 1) ++r;
    return r == 0 ? 1 : r;
  }

  bool is_3d() const { return dims[0] > 1 && dims[1] > 1 && dims[2] > 1; }

  template <typename T>
  std::span<const T> as() const {
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>);
    if ((std::is_same_v<T, float> && dtype != DType::F32) ||
        (std::is_same_v<T, double> && dtype != DType::F64))
      throw std::logic_error("Field::as: dtype mismatch");
    return {static_cast<const T*>(data), count()};
  }
};

/// Error type thrown on invalid compression parameters or corrupt streams.
class CompressionError : public std::runtime_error {
 public:
  explicit CompressionError(const std::string& what) : std::runtime_error(what) {}
};

/// The 1-D field over `bytes` raw bytes at `p`. Throws CompressionError when
/// `bytes` is not a whole number of `dtype` scalars, so no trailing byte is
/// ever dropped silently.
inline Field raw_field(const void* p, std::size_t bytes, DType dtype) {
  const std::size_t width = dtype_size(dtype);
  if (bytes % width)
    throw CompressionError("input of " + std::to_string(bytes) +
                           " bytes is not a whole number of " + to_string(dtype) + " values (" +
                           std::to_string(width) + " bytes each)");
  if (dtype == DType::F32) return Field(static_cast<const float*>(p), bytes / width);
  return Field(static_cast<const double*>(p), bytes / width);
}

}  // namespace repro
