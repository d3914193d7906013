#include "baselines/sz2.hpp"

#include <cmath>

#include "baselines/sz_common.hpp"

namespace repro::baselines {
namespace {

constexpr u32 kMagic = 0x32325A53u;  // "SZ22"

// --- Lorenzo prediction (1D previous-value, 3D 7-neighbour) -----------------
//
// For 3D fields SZ2 additionally fits a per-block linear regression and
// chooses, block by block, whichever predictor fits the original data better
// (Liang et al. 2018). Blocks are 6x6x6; the regression coefficients are
// stored exactly so compressor and decompressor predict identically.

constexpr std::size_t kRegBlock = 6;

template <typename T>
struct RegressionCoeffs {
  double b0 = 0, bx = 0, by = 0, bz = 0;

  double predict(std::size_t z, std::size_t y, std::size_t x) const {
    return b0 + bz * static_cast<double>(z) + by * static_cast<double>(y) +
           bx * static_cast<double>(x);
  }
};

/// Closed-form least squares of v ~ b0 + bz*z + by*y + bx*x over a
/// rectangular sub-block. Centered coordinates over a rectangular grid are
/// mutually orthogonal, so each slope is an independent 1D projection.
template <typename T>
RegressionCoeffs<T> fit_block(const T* d, const std::array<std::size_t, 3>& dims,
                              std::size_t z0, std::size_t y0, std::size_t x0, std::size_t bz,
                              std::size_t by, std::size_t bx) {
  const std::size_t ny = dims[1], nx = dims[2];
  double n = static_cast<double>(bz * by * bx);
  double mz = (static_cast<double>(bz) - 1) / 2, my = (static_cast<double>(by) - 1) / 2,
         mx = (static_cast<double>(bx) - 1) / 2;
  double sum = 0, sz_ = 0, sy = 0, sx = 0, szz = 0, syy = 0, sxx = 0;
  for (std::size_t z = 0; z < bz; ++z)
    for (std::size_t y = 0; y < by; ++y)
      for (std::size_t x = 0; x < bx; ++x) {
        double v = static_cast<double>(d[((z0 + z) * ny + (y0 + y)) * nx + (x0 + x)]);
        if (!std::isfinite(v)) v = 0;
        double cz = static_cast<double>(z) - mz, cy = static_cast<double>(y) - my,
               cx = static_cast<double>(x) - mx;
        sum += v;
        sz_ += v * cz;
        sy += v * cy;
        sx += v * cx;
        szz += cz * cz;
        syy += cy * cy;
        sxx += cx * cx;
      }
  RegressionCoeffs<T> c;
  c.bz = szz > 0 ? sz_ / szz : 0;
  c.by = syy > 0 ? sy / syy : 0;
  c.bx = sxx > 0 ? sx / sxx : 0;
  c.b0 = sum / n - c.bz * (static_cast<double>(z0) + mz) - c.by * (static_cast<double>(y0) + my) -
         c.bx * (static_cast<double>(x0) + mx);
  // Express in global coordinates so predict() takes absolute indices.
  return c;
}

/// 3D encoder with per-block predictor selection (Lorenzo vs. regression).
/// `flags` gets one bit per block (set = regression) and `coeffs` the packed
/// coefficients of the regression blocks, in block raster order.
template <typename T>
SzPayload lorenzo_regression_encode(const T* d, std::array<std::size_t, 3> dims,
                                    double abs_eps, std::vector<u8>& flags,
                                    std::vector<u8>& coeff_bytes) {
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  const std::size_t n = nz * ny * nx;
  SzQuantizer<T> q(abs_eps);
  SzPayload p;
  p.codes.assign(n, 0);
  std::vector<T> outliers;
  std::vector<T> recon(n, T(0));
  auto at = [&](std::size_t k, std::size_t j, std::size_t i) -> T& {
    return recon[(k * ny + j) * nx + i];
  };
  auto lorenzo_pred = [&](auto&& src, std::size_t k, std::size_t j, std::size_t i) -> T {
    T f100 = i ? src(k, j, i - 1) : T(0);
    T f010 = j ? src(k, j - 1, i) : T(0);
    T f001 = k ? src(k - 1, j, i) : T(0);
    T f110 = (i && j) ? src(k, j - 1, i - 1) : T(0);
    T f101 = (i && k) ? src(k - 1, j, i - 1) : T(0);
    T f011 = (j && k) ? src(k - 1, j - 1, i) : T(0);
    T f111 = (i && j && k) ? src(k - 1, j - 1, i - 1) : T(0);
    return f100 + f010 + f001 - f110 - f101 - f011 + f111;
  };
  auto orig = [&](std::size_t k, std::size_t j, std::size_t i) -> T {
    return d[(k * ny + j) * nx + i];
  };
  std::size_t nblocks = ((nz + kRegBlock - 1) / kRegBlock) * ((ny + kRegBlock - 1) / kRegBlock) *
                        ((nx + kRegBlock - 1) / kRegBlock);
  flags.assign((nblocks + 7) / 8, 0);
  std::size_t block = 0;
  for (std::size_t z0 = 0; z0 < nz; z0 += kRegBlock)
    for (std::size_t y0 = 0; y0 < ny; y0 += kRegBlock)
      for (std::size_t x0 = 0; x0 < nx; x0 += kRegBlock, ++block) {
        std::size_t bz = std::min(kRegBlock, nz - z0), by = std::min(kRegBlock, ny - y0),
                    bx = std::min(kRegBlock, nx - x0);
        RegressionCoeffs<T> c = fit_block(d, dims, z0, y0, x0, bz, by, bx);
        // Predictor selection on the original data (SZ2 samples).
        double sse_reg = 0, sse_lor = 0;
        for (std::size_t z = z0; z < z0 + bz; ++z)
          for (std::size_t y = y0; y < y0 + by; ++y)
            for (std::size_t x = x0; x < x0 + bx; ++x) {
              double v = static_cast<double>(orig(z, y, x));
              double er = v - c.predict(z, y, x);
              double el = v - static_cast<double>(lorenzo_pred(orig, z, y, x));
              sse_reg += er * er;
              sse_lor += el * el;
            }
        bool use_reg = sse_reg < sse_lor;
        if (use_reg) {
          flags[block >> 3] |= static_cast<u8>(1u << (block & 7));
          append_scalar<double>(coeff_bytes, c.b0);
          append_scalar<double>(coeff_bytes, c.bz);
          append_scalar<double>(coeff_bytes, c.by);
          append_scalar<double>(coeff_bytes, c.bx);
        }
        for (std::size_t z = z0; z < z0 + bz; ++z)
          for (std::size_t y = y0; y < y0 + by; ++y)
            for (std::size_t x = x0; x < x0 + bx; ++x) {
              T pred = use_reg
                           ? static_cast<T>(c.predict(z, y, x))
                           : lorenzo_pred([&](std::size_t k, std::size_t j,
                                              std::size_t i) { return at(k, j, i); },
                                          z, y, x);
              std::size_t idx = (z * ny + y) * nx + x;
              p.codes[idx] = q.quantize(pred, d[idx], recon[idx], outliers);
            }
      }
  for (T o : outliers) append_scalar(p.outlier_bytes, o);
  return p;
}

/// Mirror of lorenzo_regression_encode.
template <typename T>
std::vector<T> lorenzo_regression_decode(const SzPayload& p, std::array<std::size_t, 3> dims,
                                         double abs_eps, std::span<const u8> flags,
                                         std::span<const u8> coeff_bytes) {
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  const std::size_t n = nz * ny * nx;
  if (p.codes.size() != n) throw CompressionError("sz2: code count mismatch");
  SzQuantizer<T> q(abs_eps);
  std::vector<T> recon(n, T(0));
  std::span<const u8> ob(p.outlier_bytes);
  std::size_t oi = 0, ci = 0;
  auto at = [&](std::size_t k, std::size_t j, std::size_t i) -> T& {
    return recon[(k * ny + j) * nx + i];
  };
  std::size_t block = 0;
  for (std::size_t z0 = 0; z0 < nz; z0 += kRegBlock)
    for (std::size_t y0 = 0; y0 < ny; y0 += kRegBlock)
      for (std::size_t x0 = 0; x0 < nx; x0 += kRegBlock, ++block) {
        std::size_t bz = std::min(kRegBlock, nz - z0), by = std::min(kRegBlock, ny - y0),
                    bx = std::min(kRegBlock, nx - x0);
        if (block >= flags.size() * 8) throw CompressionError("sz2: flag table underrun");
        bool use_reg = (flags[block >> 3] >> (block & 7)) & 1u;
        RegressionCoeffs<T> c;
        if (use_reg) {
          c.b0 = take_scalar<double>(coeff_bytes, ci++);
          c.bz = take_scalar<double>(coeff_bytes, ci++);
          c.by = take_scalar<double>(coeff_bytes, ci++);
          c.bx = take_scalar<double>(coeff_bytes, ci++);
        }
        for (std::size_t z = z0; z < z0 + bz; ++z)
          for (std::size_t y = y0; y < y0 + by; ++y)
            for (std::size_t x = x0; x < x0 + bx; ++x) {
              std::size_t idx = (z * ny + y) * nx + x;
              u16 code = p.codes[idx];
              if (code == 0) {
                recon[idx] = take_scalar<T>(ob, oi++);
                continue;
              }
              T pred;
              if (use_reg) {
                pred = static_cast<T>(c.predict(z, y, x));
              } else {
                T f100 = x ? at(z, y, x - 1) : T(0);
                T f010 = y ? at(z, y - 1, x) : T(0);
                T f001 = z ? at(z - 1, y, x) : T(0);
                T f110 = (x && y) ? at(z, y - 1, x - 1) : T(0);
                T f101 = (x && z) ? at(z - 1, y, x - 1) : T(0);
                T f011 = (y && z) ? at(z - 1, y - 1, x) : T(0);
                T f111 = (x && y && z) ? at(z - 1, y - 1, x - 1) : T(0);
                pred = f100 + f010 + f001 - f110 - f101 - f011 + f111;
              }
              recon[idx] = q.reconstruct(pred, code);
            }
      }
  return recon;
}

template <typename T>
SzPayload lorenzo_encode(const T* d, std::array<std::size_t, 3> dims, double abs_eps) {
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  const std::size_t n = nz * ny * nx;
  SzQuantizer<T> q(abs_eps);
  SzPayload p;
  p.codes.reserve(n);
  std::vector<T> outliers;
  std::vector<T> recon(n, T(0));
  const bool use3d = nz > 1 && ny > 1 && nx > 1;
  auto at = [&](std::size_t k, std::size_t j, std::size_t i) -> T& {
    return recon[(k * ny + j) * nx + i];
  };
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i) {
        std::size_t idx = (k * ny + j) * nx + i;
        T pred;
        if (use3d) {
          // 3D Lorenzo: inclusion-exclusion over the already-decoded corner.
          T f100 = i ? at(k, j, i - 1) : T(0);
          T f010 = j ? at(k, j - 1, i) : T(0);
          T f001 = k ? at(k - 1, j, i) : T(0);
          T f110 = (i && j) ? at(k, j - 1, i - 1) : T(0);
          T f101 = (i && k) ? at(k - 1, j, i - 1) : T(0);
          T f011 = (j && k) ? at(k - 1, j - 1, i) : T(0);
          T f111 = (i && j && k) ? at(k - 1, j - 1, i - 1) : T(0);
          pred = f100 + f010 + f001 - f110 - f101 - f011 + f111;
        } else {
          pred = idx ? recon[idx - 1] : T(0);
        }
        p.codes.push_back(q.quantize(pred, d[idx], recon[idx], outliers));
      }
  for (T o : outliers) append_scalar(p.outlier_bytes, o);
  return p;
}

template <typename T>
std::vector<T> lorenzo_decode(const SzPayload& p, std::array<std::size_t, 3> dims,
                              double abs_eps) {
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  const std::size_t n = nz * ny * nx;
  if (p.codes.size() != n) throw CompressionError("sz2: code count mismatch");
  SzQuantizer<T> q(abs_eps);
  std::vector<T> recon(n, T(0));
  std::span<const u8> ob(p.outlier_bytes);
  std::size_t oi = 0;
  const bool use3d = nz > 1 && ny > 1 && nx > 1;
  auto at = [&](std::size_t k, std::size_t j, std::size_t i) -> T& {
    return recon[(k * ny + j) * nx + i];
  };
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t i = 0; i < nx; ++i) {
        std::size_t idx = (k * ny + j) * nx + i;
        u16 code = p.codes[idx];
        if (code == 0) {
          recon[idx] = take_scalar<T>(ob, oi++);
          continue;
        }
        T pred;
        if (use3d) {
          T f100 = i ? at(k, j, i - 1) : T(0);
          T f010 = j ? at(k, j - 1, i) : T(0);
          T f001 = k ? at(k - 1, j, i) : T(0);
          T f110 = (i && j) ? at(k, j - 1, i - 1) : T(0);
          T f101 = (i && k) ? at(k - 1, j, i - 1) : T(0);
          T f011 = (j && k) ? at(k - 1, j - 1, i) : T(0);
          T f111 = (i && j && k) ? at(k - 1, j - 1, i - 1) : T(0);
          pred = f100 + f010 + f001 - f110 - f101 - f011 + f111;
        } else {
          pred = idx ? recon[idx - 1] : T(0);
        }
        recon[idx] = q.reconstruct(pred, code);
      }
  return recon;
}

// --- REL via log transform (the bound-violating SZ2 scheme) -----------------
//
// v -> log(|v|), compressed with an ABS bound of log(1+eps); signs and
// zero/non-finite masks are stored on the side. The exp() on decode rounds,
// so reconstructed values occasionally land just outside the relative bound.

template <typename T>
Bytes rel_compress(const T* d, std::array<std::size_t, 3> dims, double eps,
                   BaselineHeader h) {
  const std::size_t n = dims[0] * dims[1] * dims[2];
  std::vector<T> logs(n, T(0));
  std::vector<u8> mask(n, 0);  // 0 normal, 1 zero, 2 special (exact copy)
  std::vector<u8> signs((n + 7) / 8, 0);
  std::vector<u8> specials;
  for (std::size_t i = 0; i < n; ++i) {
    T v = d[i];
    if (v < T(0)) signs[i >> 3] |= static_cast<u8>(1u << (i & 7));
    if (v == T(0)) {
      mask[i] = 1;
    } else if (!std::isfinite(v)) {
      mask[i] = 2;
      append_scalar(specials, v);
    } else {
      logs[i] = static_cast<T>(std::log(std::abs(static_cast<double>(v))));
    }
  }
  double eps_log = std::log1p(eps);  // no guard band: the source of violations
  SzPayload p = lorenzo_encode(logs.data(), {1, 1, n}, eps_log);
  h.derived = eps_log;
  Bytes out;
  write_bheader(h, out);
  Bytes mask_c = lossless::lz_encode(mask);
  Bytes signs_c = lossless::lz_encode(signs);
  append_scalar<u64>(out, mask_c.size());
  append_scalar<u64>(out, signs_c.size());
  append_scalar<u64>(out, specials.size());
  out.insert(out.end(), mask_c.begin(), mask_c.end());
  out.insert(out.end(), signs_c.begin(), signs_c.end());
  out.insert(out.end(), specials.begin(), specials.end());
  Bytes payload = sz_pack(p);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

template <typename T>
std::vector<u8> rel_decompress(const Bytes& in, const BaselineHeader& h) {
  const std::size_t n = h.count;
  common::ByteReader r(in, "sz2");
  r.take_bytes(sizeof(BaselineHeader));
  const u64 mask_size = r.take<u64>(), signs_size = r.take<u64>(), specials_size = r.take<u64>();
  const u8* mask_at = r.take_bytes(mask_size, "truncated side data");
  const u8* signs_at = r.take_bytes(signs_size, "truncated side data");
  std::span<const u8> specials(r.take_bytes(specials_size, "truncated side data"), specials_size);
  std::vector<u8> mask = lossless::lz_decode(mask_at, mask_size);
  std::vector<u8> signs = lossless::lz_decode(signs_at, signs_size);
  SzPayload p = sz_unpack(in.data() + r.offset(), r.remaining());
  std::vector<T> logs = lorenzo_decode<T>(p, {1, 1, n}, h.derived);
  std::vector<u8> out(n * sizeof(T));
  T* values = reinterpret_cast<T*>(out.data());
  std::size_t si = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool neg = (signs[i >> 3] >> (i & 7)) & 1u;
    if (mask[i] == 1) {
      values[i] = neg ? T(-0.0) : T(0);
    } else if (mask[i] == 2) {
      values[i] = take_scalar<T>(specials, si++);
    } else {
      T mag = static_cast<T>(std::exp(static_cast<double>(logs[i])));
      values[i] = neg ? -mag : mag;
    }
  }
  return out;
}

// --- top-level dispatch ------------------------------------------------------

template <typename T>
Bytes compress_typed(const Field& in, double eps, EbType eb) {
  auto d = in.as<T>();
  BaselineHeader h;
  h.magic = kMagic;
  h.dtype = in.dtype;
  h.eb = eb;
  h.eps = eps;
  h.count = d.size();
  for (int i = 0; i < 3; ++i) h.dims[i] = in.dims[i];
  if (eb == EbType::REL) return rel_compress(d.data(), in.dims, eps, h);
  double abs_eps = eb == EbType::NOA ? noa_to_abs(d, eps) : eps;
  h.derived = abs_eps;
  Bytes out;
  write_bheader(h, out);
  if (in.is_3d()) {
    // 3D: per-block Lorenzo-vs-regression selection, like real SZ2.
    std::vector<u8> flags, coeffs;
    SzPayload p = lorenzo_regression_encode(d.data(), in.dims, abs_eps, flags, coeffs);
    append_scalar<u64>(out, flags.size());
    append_scalar<u64>(out, coeffs.size());
    out.insert(out.end(), flags.begin(), flags.end());
    out.insert(out.end(), coeffs.begin(), coeffs.end());
    Bytes payload = sz_pack(p);
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
  }
  SzPayload p = lorenzo_encode(d.data(), in.dims, abs_eps);
  Bytes payload = sz_pack(p);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

template <typename T>
std::vector<u8> decompress_typed(const Bytes& in, const BaselineHeader& h) {
  if (h.eb == EbType::REL) return rel_decompress<T>(in, h);
  std::array<std::size_t, 3> dims{h.dims[0], h.dims[1], h.dims[2]};
  std::vector<T> recon;
  if (dims[0] > 1 && dims[1] > 1 && dims[2] > 1) {
    common::ByteReader r(in, "sz2");
    r.take_bytes(sizeof(BaselineHeader));
    const u64 flag_size = r.take<u64>(), coeff_size = r.take<u64>();
    std::span<const u8> flags(r.take_bytes(flag_size, "truncated block tables"), flag_size);
    std::span<const u8> coeffs(r.take_bytes(coeff_size, "truncated block tables"), coeff_size);
    SzPayload p = sz_unpack(in.data() + r.offset(), r.remaining());
    recon = lorenzo_regression_decode<T>(p, dims, h.derived, flags, coeffs);
  } else {
    SzPayload p =
        sz_unpack(in.data() + sizeof(BaselineHeader), in.size() - sizeof(BaselineHeader));
    recon = lorenzo_decode<T>(p, dims, h.derived);
  }
  std::vector<u8> out(recon.size() * sizeof(T));
  std::memcpy(out.data(), recon.data(), out.size());
  return out;
}

}  // namespace

Bytes Sz2Compressor::compress(const Field& in, double eps, EbType eb) const {
  if (in.dtype == DType::F32) return compress_typed<float>(in, eps, eb);
  return compress_typed<double>(in, eps, eb);
}

std::vector<u8> Sz2Compressor::decompress(const Bytes& stream) const {
  BaselineHeader h = read_bheader(stream, kMagic);
  if (h.dtype == DType::F32) return decompress_typed<float>(stream, h);
  return decompress_typed<double>(stream, h);
}

}  // namespace repro::baselines
