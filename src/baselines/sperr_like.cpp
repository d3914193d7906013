#include "baselines/sperr_like.hpp"

#include <cmath>

#include "baselines/sz_common.hpp"

namespace repro::baselines {
namespace {

constexpr u32 kMagic = 0x52455053u;  // "SPER"
constexpr int kLevels = 3;

// --- CDF 5/3 wavelet lifting on a contiguous array (double precision) ------
//
// forward: predict d_i = x_{2i+1} - (x_{2i} + x_{2i+2})/2,
//          update  s_i = x_{2i} + (d_{i-1} + d_i)/4,
// with symmetric boundary extension; coefficients are deinterleaved into
// [approx | detail] so levels can recurse on the approx half.

void wavelet_fwd(std::vector<double>& x, std::size_t n) {
  if (n < 4) return;
  std::size_t half = (n + 1) / 2;
  std::vector<double> s(half), d(n - half);
  for (std::size_t i = 0; i < n - half; ++i) {
    double left = x[2 * i];
    double right = 2 * i + 2 < n ? x[2 * i + 2] : x[2 * i];
    d[i] = x[2 * i + 1] - 0.5 * (left + right);
  }
  for (std::size_t i = 0; i < half; ++i) {
    double dl = i > 0 ? d[i - 1] : (n - half > 0 ? d[0] : 0.0);
    double dr = i < n - half ? d[i] : (n - half > 0 ? d[n - half - 1] : 0.0);
    s[i] = x[2 * i] + 0.25 * (dl + dr);
  }
  std::copy(s.begin(), s.end(), x.begin());
  std::copy(d.begin(), d.end(), x.begin() + half);
}

void wavelet_inv(std::vector<double>& x, std::size_t n) {
  if (n < 4) return;
  std::size_t half = (n + 1) / 2;
  std::vector<double> out(n);
  const double* s = x.data();
  const double* d = x.data() + half;
  for (std::size_t i = 0; i < half; ++i) {
    double dl = i > 0 ? d[i - 1] : (n - half > 0 ? d[0] : 0.0);
    double dr = i < n - half ? d[i] : (n - half > 0 ? d[n - half - 1] : 0.0);
    out[2 * i] = s[i] - 0.25 * (dl + dr);
  }
  for (std::size_t i = 0; i < n - half; ++i) {
    double left = out[2 * i];
    double right = 2 * i + 2 < n ? out[2 * i + 2] : out[2 * i];
    out[2 * i + 1] = d[i] + 0.5 * (left + right);
  }
  std::copy(out.begin(), out.end(), x.begin());
}

void multilevel_fwd(std::vector<double>& x) {
  std::size_t n = x.size();
  for (int l = 0; l < kLevels && n >= 8; ++l) {
    wavelet_fwd(x, n);
    n = (n + 1) / 2;
  }
}

void multilevel_inv(std::vector<double>& x) {
  std::size_t sizes[kLevels];
  std::size_t n = x.size();
  int levels = 0;
  for (int l = 0; l < kLevels && n >= 8; ++l) {
    sizes[levels++] = n;
    n = (n + 1) / 2;
  }
  for (int l = levels - 1; l >= 0; --l) wavelet_inv(x, sizes[l]);
}

template <typename T>
Bytes compress_typed(const Field& in, double eps, EbType eb) {
  auto d = in.as<T>();
  if (eb != EbType::ABS) throw CompressionError("SPERR only supports ABS bounds");
  if (!in.is_3d()) throw CompressionError("SPERR-3D requires 3D inputs");
  BaselineHeader h;
  h.magic = kMagic;
  h.dtype = in.dtype;
  h.eb = eb;
  h.eps = eps;
  h.count = d.size();
  for (int i = 0; i < 3; ++i) h.dims[i] = in.dims[i];
  h.derived = eps;

  const std::size_t n = d.size();
  std::vector<double> coeffs(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = static_cast<double>(d[i]);
    coeffs[i] = std::isfinite(v) ? v : 0.0;
  }
  multilevel_fwd(coeffs);
  // Uniform quantization with a transform-gain guard; the inverse transform
  // can still amplify a little more on unlucky inputs (-> minor violations).
  const double step = eps / 2.0;
  SzQuantizer<double> q(step / 2.0);
  SzPayload p;
  p.codes.resize(n);
  std::vector<double> recon(n), outliers;
  for (std::size_t i = 0; i < n; ++i)
    p.codes[i] = q.quantize(0.0, coeffs[i], recon[i], outliers);
  for (double o : outliers) append_scalar(p.outlier_bytes, o);

  // SPERR's correction pass: decode, find values outside the bound, and
  // store exact corrections for them.
  multilevel_inv(recon);
  std::vector<u8> corrections;
  u64 ncorr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double orig = static_cast<double>(d[i]);
    if (!std::isfinite(orig) || std::abs(orig - recon[i]) > eps * 0.999) {
      append_scalar<u64>(corrections, i);
      append_scalar<T>(corrections, d[i]);
      ++ncorr;
    }
  }
  Bytes out;
  write_bheader(h, out);
  append_scalar<u64>(out, ncorr);
  out.insert(out.end(), corrections.begin(), corrections.end());
  Bytes payload = sz_pack(p);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

template <typename T>
std::vector<u8> decompress_typed(const Bytes& in, const BaselineHeader& h) {
  const std::size_t n = h.count;
  common::ByteReader r(in, "sperr");
  r.take_bytes(sizeof(BaselineHeader));
  const u64 ncorr = r.take<u64>();
  const u8* corr = r.take_bytes(r.size_for(ncorr, 8 + sizeof(T), "truncated corrections"));
  SzPayload p = sz_unpack(in.data() + r.offset(), r.remaining());
  if (p.codes.size() != n) throw CompressionError("sperr: code count mismatch");
  SzQuantizer<double> q(h.eps / 4.0);
  std::vector<double> coeffs(n);
  std::span<const u8> ob(p.outlier_bytes);
  std::size_t oi = 0;
  for (std::size_t i = 0; i < n; ++i)
    coeffs[i] = p.codes[i] == 0 ? take_scalar<double>(ob, oi++) : q.reconstruct(0.0, p.codes[i]);
  multilevel_inv(coeffs);
  std::vector<u8> out(n * sizeof(T));
  T* values = reinterpret_cast<T*>(out.data());
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<T>(coeffs[i]);
  for (u64 c = 0; c < ncorr; ++c) {
    const u64 idx = common::get_le<u64>(corr + c * (8 + sizeof(T)));
    T v;
    std::memcpy(&v, corr + c * (8 + sizeof(T)) + 8, sizeof(T));
    if (idx < n) values[idx] = v;
  }
  return out;
}

}  // namespace

Bytes SperrLikeCompressor::compress(const Field& in, double eps, EbType eb) const {
  if (in.dtype == DType::F32) return compress_typed<float>(in, eps, eb);
  return compress_typed<double>(in, eps, eb);
}

std::vector<u8> SperrLikeCompressor::decompress(const Bytes& stream) const {
  BaselineHeader h = read_bheader(stream, kMagic);
  if (h.dtype == DType::F32) return decompress_typed<float>(stream, h);
  return decompress_typed<double>(stream, h);
}

}  // namespace repro::baselines
