// Shared machinery for the SZ-class baselines (SZ2, SZ3): prediction +
// linear-scaling quantization with an outlier list, Huffman + LZ backend.
//
// This is the "prediction-based" compressor family of the paper's related
// work (Section VI): predict each value from already-decompressed neighbours,
// quantize the residual into 2^16 bins, entropy-code the bin indices, and
// store unpredictable values in a separate outlier list — the design PFPL
// explicitly deviates from (PFPL inlines outliers to stay parallel).
#pragma once

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz.hpp"

namespace repro::baselines {

/// Linear-scaling quantizer with radius 2^15 (SZ's default 65536 bins).
/// Code 0 is reserved for outliers (stored exactly in a side list).
template <typename T>
class SzQuantizer {
 public:
  static constexpr i32 radius = 1 << 15;

  explicit SzQuantizer(double eps) : eps_(eps), two_eps_(2.0 * eps) {}

  /// Quantize `val` against `pred`; returns the code and sets `recon` to the
  /// decompressor's value. Appends to `outliers` when unpredictable.
  u16 quantize(T pred, T val, T& recon, std::vector<T>& outliers) {
    double diff = static_cast<double>(val) - static_cast<double>(pred);
    double qd = std::nearbyint(diff / two_eps_);
    if (std::isfinite(diff) && std::abs(qd) < radius - 1) {
      i32 q = static_cast<i32>(qd);
      T r = static_cast<T>(static_cast<double>(pred) + static_cast<double>(q) * two_eps_);
      // SZ double-checks the reconstruction (guaranteed ABS bound).
      if (std::abs(static_cast<double>(val) - static_cast<double>(r)) <= eps_) {
        recon = r;
        return static_cast<u16>(q + radius);
      }
    }
    outliers.push_back(val);
    recon = val;
    return 0;
  }

  /// Decompressor side: reconstruct from code (code != 0).
  T reconstruct(T pred, u16 code) const {
    i32 q = static_cast<i32>(code) - radius;
    return static_cast<T>(static_cast<double>(pred) + static_cast<double>(q) * two_eps_);
  }

 private:
  double eps_;
  double two_eps_;
};

/// Serialized SZ-family payload: Huffman(codes) + LZ, then the outlier list.
struct SzPayload {
  std::vector<u16> codes;
  std::vector<u8> outlier_bytes;
};

inline Bytes sz_pack(const SzPayload& p) {
  Bytes body = lossless::lz_encode(lossless::huffman_encode(p.codes));
  Bytes out;
  common::append_le(out, u64{body.size()});
  common::append_le(out, u64{p.outlier_bytes.size()});
  out.insert(out.end(), body.begin(), body.end());
  out.insert(out.end(), p.outlier_bytes.begin(), p.outlier_bytes.end());
  return out;
}

inline SzPayload sz_unpack(const u8* data, std::size_t size, std::size_t* consumed = nullptr) {
  common::ByteReader r(data, size, "sz");
  const u64 body_size = r.take<u64>(), outlier_size = r.take<u64>();
  const u8* body = r.take_bytes(body_size, "truncated payload");
  const u8* outliers = r.take_bytes(outlier_size, "truncated payload");
  SzPayload p;
  p.codes = lossless::huffman_decode(lossless::lz_decode(body, body_size));
  p.outlier_bytes.assign(outliers, outliers + outlier_size);
  if (consumed) *consumed = r.offset();
  return p;
}

template <typename T>
void append_scalar(std::vector<u8>& out, T v) {
  const u8* p = reinterpret_cast<const u8*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T take_scalar(std::span<const u8> bytes, std::size_t index) {
  T v;
  if ((index + 1) * sizeof(T) > bytes.size()) throw CompressionError("sz: outlier underrun");
  std::memcpy(&v, bytes.data() + index * sizeof(T), sizeof(T));
  return v;
}

/// Common compressed-stream header for all baselines (each adds its own
/// payload after it).
struct BaselineHeader {
  u32 magic = 0;
  DType dtype = DType::F32;
  EbType eb = EbType::ABS;
  u16 pad = 0;
  double eps = 0.0;
  double derived = 0.0;  ///< eb-derived parameter (e.g. NOA absolute bound)
  u64 count = 0;
  u64 dims[3] = {1, 1, 1};
};

inline void write_bheader(const BaselineHeader& h, Bytes& out) {
  std::size_t off = out.size();
  out.resize(off + sizeof(BaselineHeader));
  std::memcpy(out.data() + off, &h, sizeof(BaselineHeader));
}

inline BaselineHeader read_bheader(const Bytes& in, u32 expect_magic) {
  if (in.size() < sizeof(BaselineHeader)) throw CompressionError("baseline: truncated header");
  BaselineHeader h;
  std::memcpy(&h, in.data(), sizeof(BaselineHeader));
  if (h.magic != expect_magic) throw CompressionError("baseline: bad magic");
  // Sanity-cap the value count so corrupted headers cannot drive giant
  // allocations: no baseline represents a value in less than 1/4096 of a
  // byte, and the dims product must match the count.
  if (h.count > in.size() * 4096)
    throw CompressionError("baseline: implausible value count");
  if (h.dims[0] * h.dims[1] * h.dims[2] != h.count)
    throw CompressionError("baseline: dims/count mismatch");
  return h;
}

/// NOA -> ABS bound conversion shared by every baseline that supports NOA.
template <typename T>
double noa_to_abs(std::span<const T> v, double eps) {
  bool any = false;
  double mn = 0, mx = 0;
  for (T x : v) {
    if (!std::isfinite(x)) continue;
    double d = static_cast<double>(x);
    if (!any) {
      mn = mx = d;
      any = true;
    } else {
      mn = std::min(mn, d);
      mx = std::max(mx, d);
    }
  }
  return any ? eps * (mx - mn) : 0.0;
}

}  // namespace repro::baselines
