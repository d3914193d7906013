#include "baselines/fzgpu_like.hpp"

#include <cmath>
#include <exception>

#include "baselines/sz_common.hpp"
#include "bits/bitshuffle.hpp"
#include "bits/zerobyte.hpp"

namespace repro::baselines {
namespace {

constexpr u32 kMagic = 0x55475A46u;  // "FZGU"
constexpr std::size_t kChunk = 4096;  // u32 words per fused kernel chunk

/// FZ-GPU prequantizes like cuSZp (wrapping cast — same overflow flaw, hence
/// the '○' in Table III) but then bit-shuffles the delta words and removes
/// zero regions instead of fixed-length packing.
i32 prequant(float v, double recip) {
  double q = std::nearbyint(static_cast<double>(v) * recip);
  if (!std::isfinite(q)) q = 0.0;
  return static_cast<i32>(static_cast<u32>(static_cast<i64>(q)));
}

Bytes compress_f32(const Field& in, double eps, EbType eb) {
  auto d = in.as<float>();
  if (eb != EbType::NOA) throw CompressionError("FZ-GPU only supports NOA bounds");
  if (!in.is_3d()) throw CompressionError("FZ-GPU requires 3D inputs");
  BaselineHeader h;
  h.magic = kMagic;
  h.dtype = DType::F32;
  h.eb = eb;
  h.eps = eps;
  h.count = d.size();
  for (int i = 0; i < 3; ++i) h.dims[i] = in.dims[i];
  double abs_eps = noa_to_abs(d, eps);
  if (!(abs_eps > 0)) abs_eps = 1e-300;
  h.derived = abs_eps;
  const double recip = 0.5 / abs_eps;

  const std::size_t n = d.size();
  const std::size_t nchunks = (n + kChunk - 1) / kChunk;
  Bytes out;
  write_bheader(h, out);
  std::vector<u32> sizes(nchunks);
  std::vector<Bytes> payloads(nchunks);
#pragma omp parallel for schedule(dynamic)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(nchunks); ++c) {
    std::size_t beg = static_cast<std::size_t>(c) * kChunk;
    std::size_t len = std::min(kChunk, n - beg);
    std::size_t padded = (len + 31) / 32 * 32;
    std::vector<u32> w(padded, 0);
    i32 prev = 0;
    for (std::size_t i = 0; i < len; ++i) {
      i32 q = prequant(d[beg + i], recip);
      w[i] = static_cast<u32>(q - prev);
      prev = q;
    }
    bits::bitshuffle(w.data(), padded);
    bits::zerobyte_encode(reinterpret_cast<const u8*>(w.data()), padded * 4, payloads[c]);
    sizes[c] = static_cast<u32>(payloads[c].size());
  }
  const u8* sp = reinterpret_cast<const u8*>(sizes.data());
  out.insert(out.end(), sp, sp + nchunks * 4);
  for (const Bytes& p : payloads) out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::vector<u8> decompress_f32(const Bytes& in, const BaselineHeader& h) {
  const std::size_t n = h.count;
  const std::size_t nchunks = (n + kChunk - 1) / kChunk;
  std::size_t pos = sizeof(BaselineHeader);
  if (pos + nchunks * 4 > in.size()) throw CompressionError("fzgpu: truncated size table");
  std::vector<u32> sizes(nchunks);
  std::memcpy(sizes.data(), in.data() + pos, nchunks * 4);
  pos += nchunks * 4;
  std::vector<u64> offsets(nchunks, 0);
  for (std::size_t c = 1; c < nchunks; ++c) offsets[c] = offsets[c - 1] + sizes[c - 1];
  std::vector<u8> out(n * 4);
  float* values = reinterpret_cast<float*>(out.data());
  const double two_eps = 2.0 * h.derived;
  std::exception_ptr err;  // exceptions must not escape the parallel region
#pragma omp parallel for schedule(dynamic)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(nchunks); ++c) {
    try {
      std::size_t beg = static_cast<std::size_t>(c) * kChunk;
      std::size_t len = std::min(kChunk, n - beg);
      std::size_t padded = (len + 31) / 32 * 32;
      std::size_t off = pos + offsets[c];
      if (off + sizes[c] > in.size()) throw CompressionError("fzgpu: truncated chunk");
      std::vector<u32> w(padded);
      if (bits::zerobyte_decode(in.data() + off, sizes[c], reinterpret_cast<u8*>(w.data()),
                                padded * 4) != sizes[c])
        throw CompressionError("fzgpu: chunk size table disagrees with chunk payload");
      bits::bitshuffle(w.data(), padded);
      i32 q = 0;
      for (std::size_t i = 0; i < len; ++i) {
        q += static_cast<i32>(w[i]);
        values[beg + i] = static_cast<float>(static_cast<double>(q) * two_eps);
      }
    } catch (...) {
#pragma omp critical
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
  return out;
}

}  // namespace

Bytes FzGpuLikeCompressor::compress(const Field& in, double eps, EbType eb) const {
  if (in.dtype != DType::F32) throw CompressionError("FZ-GPU only supports float data");
  return compress_f32(in, eps, eb);
}

std::vector<u8> FzGpuLikeCompressor::decompress(const Bytes& stream) const {
  BaselineHeader h = read_bheader(stream, kMagic);
  return decompress_f32(stream, h);
}

}  // namespace repro::baselines
