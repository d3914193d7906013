#include "baselines/zfp_like.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "baselines/sz_common.hpp"
#include "bits/negabinary.hpp"
#include "lossless/bitio.hpp"

namespace repro::baselines {
namespace {

constexpr u32 kMagic = 0x50465A42u;  // "BZFP"

// Integer type used for the decorrelating transform.
template <typename T>
using Int = std::conditional_t<std::is_same_v<T, float>, i32, i64>;
template <typename T>
using UInt = std::conditional_t<std::is_same_v<T, float>, u32, u64>;

template <typename T>
constexpr int int_prec() {
  return std::is_same_v<T, float> ? 32 : 64;
}

// ZFP's forward/inverse lifting transform on 4 values with stride s. As in
// ZFP, +, - and << wrap in the unsigned type (a corrupt stream decodes to
// coefficients whose sums overflow); >> stays arithmetic on the signed type.
template <typename I, typename U = std::make_unsigned_t<I>>
U asr(U v) { return static_cast<U>(static_cast<I>(v) >> 1); }

template <typename I>
void fwd_lift(I* p, std::size_t s) {
  std::make_unsigned_t<I> x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x = asr<I>(x); w -= x;
  z += y; z = asr<I>(z); y -= z;
  x += z; x = asr<I>(x); z -= x;
  w += y; w = asr<I>(w); y -= w;
  w += asr<I>(y); y -= asr<I>(w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

template <typename I>
void inv_lift(I* p, std::size_t s) {
  std::make_unsigned_t<I> x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y += asr<I>(w); w -= asr<I>(y);
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Bit planes kept for a block with common exponent e.
/// ABS (accuracy mode): down to the bound's exponent plus transform guard
/// bits; REL (precision mode): a fixed count independent of e — ZFP's
/// "truncate least-significant bits" relative bounding.
int planes_kept(int e, double eps, EbType eb, int rank, int prec) {
  int p;
  if (eb == EbType::REL) {
    p = static_cast<int>(std::ceil(-std::log2(eps))) + 3;
  } else {
    int emin = static_cast<int>(std::floor(std::log2(eps)));
    p = e - emin + 1 + 2 * rank;
  }
  return std::clamp(p, 0, prec);
}

template <typename T>
struct BlockCodec {
  using I = Int<T>;
  using U = UInt<T>;
  static constexpr int prec = int_prec<T>();

  int rank;              // 1, 2, or 3
  std::size_t bs;        // block size: 4^rank
  double eps;
  EbType eb;

  void transform_fwd(I* b) const {
    if (rank >= 1)
      for (std::size_t y = 0; y < bs / 4; ++y) fwd_lift(b + y * 4, 1);
    if (rank >= 2)
      for (std::size_t z = 0; z < bs / 16; ++z)
        for (std::size_t x = 0; x < 4; ++x) fwd_lift(b + z * 16 + x, 4);
    if (rank >= 3)
      for (std::size_t y = 0; y < 4; ++y)
        for (std::size_t x = 0; x < 4; ++x) fwd_lift(b + y * 4 + x, 16);
  }
  void transform_inv(I* b) const {
    if (rank >= 3)
      for (std::size_t y = 0; y < 4; ++y)
        for (std::size_t x = 0; x < 4; ++x) inv_lift(b + y * 4 + x, 16);
    if (rank >= 2)
      for (std::size_t z = 0; z < bs / 16; ++z)
        for (std::size_t x = 0; x < 4; ++x) inv_lift(b + z * 16 + x, 4);
    if (rank >= 1)
      for (std::size_t y = 0; y < bs / 4; ++y) inv_lift(b + y * 4, 1);
  }

  void encode_block(const T* vals, lossless::BitWriter& bw) const {
    double vmax = 0;
    for (std::size_t i = 0; i < bs; ++i) {
      double a = std::abs(static_cast<double>(vals[i]));
      if (std::isfinite(a)) vmax = std::max(vmax, a);
    }
    if (vmax == 0.0) {
      bw.put_bit(false);  // all-zero block
      return;
    }
    bw.put_bit(true);
    int e = static_cast<int>(std::floor(std::log2(vmax)));
    bw.put(static_cast<u64>(e + 16384), 16);
    double scale = std::ldexp(1.0, prec - 3 - e);
    std::vector<I> q(bs);
    for (std::size_t i = 0; i < bs; ++i) {
      double v = static_cast<double>(vals[i]);
      if (!std::isfinite(v)) v = 0.0;  // ZFP does not handle non-finite data
      q[i] = static_cast<I>(v * scale);
    }
    transform_fwd(q.data());
    std::vector<U> nb(bs);
    for (std::size_t i = 0; i < bs; ++i)
      nb[i] = bits::to_negabinary<U>(static_cast<U>(q[i]));
    int keep = planes_kept(e, eps, eb, rank, prec);
    // Bit planes from the MSB down, with a per-16-coefficient group flag.
    for (int p = prec - 1; p >= prec - keep; --p) {
      for (std::size_t g = 0; g < bs; g += 16) {
        std::size_t gend = std::min(g + 16, bs);
        bool any = false;
        for (std::size_t i = g; i < gend; ++i) any |= (nb[i] >> p) & 1u;
        bw.put_bit(any);
        if (any)
          for (std::size_t i = g; i < gend; ++i) bw.put_bit((nb[i] >> p) & 1u);
      }
    }
  }

  void decode_block(T* vals, lossless::BitReader& br) const {
    if (!br.get_bit()) {
      for (std::size_t i = 0; i < bs; ++i) vals[i] = T(0);
      return;
    }
    int e = static_cast<int>(br.get(16)) - 16384;
    int keep = planes_kept(e, eps, eb, rank, prec);
    std::vector<U> nb(bs, 0);
    for (int p = prec - 1; p >= prec - keep; --p) {
      for (std::size_t g = 0; g < bs; g += 16) {
        std::size_t gend = std::min(g + 16, bs);
        if (br.get_bit())
          for (std::size_t i = g; i < gend; ++i) nb[i] |= static_cast<U>(br.get_bit()) << p;
      }
    }
    std::vector<I> q(bs);
    for (std::size_t i = 0; i < bs; ++i)
      q[i] = static_cast<I>(bits::from_negabinary<U>(nb[i]));
    transform_inv(q.data());
    double inv_scale = std::ldexp(1.0, -(prec - 3 - e));
    for (std::size_t i = 0; i < bs; ++i)
      vals[i] = static_cast<T>(static_cast<double>(q[i]) * inv_scale);
  }
};

/// Iterate 4^rank blocks over the field, gathering with edge clamping.
template <typename T, typename FnBlock>
void for_each_block(std::array<std::size_t, 3> dims, int rank, FnBlock&& fn) {
  std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  std::size_t bz = rank >= 3 ? 4 : 1, by = rank >= 2 ? 4 : 1, bx = 4;
  for (std::size_t z0 = 0; z0 < nz; z0 += bz)
    for (std::size_t y0 = 0; y0 < ny; y0 += by)
      for (std::size_t x0 = 0; x0 < nx; x0 += bx) fn(z0, y0, x0, bz, by, bx);
}

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
  if (eb == EbType::NOA) throw CompressionError("ZFP does not support NOA bounds");
  if (!(eps > 0)) throw CompressionError("ZFP requires a positive bound");
  int rank = in.rank();
  BlockCodec<T> codec{rank, std::size_t{1} << (2 * rank), eps, eb};
  Bytes out;
  write_bheader(h, out);
  lossless::BitWriter bw(out);
  std::size_t nz = in.dims[0], ny = in.dims[1], nx = in.dims[2];
  std::vector<T> block(codec.bs);
  for_each_block<T>(in.dims, rank, [&](std::size_t z0, std::size_t y0, std::size_t x0,
                                       std::size_t bz, std::size_t by, std::size_t bx) {
    std::size_t bi = 0;
    for (std::size_t z = 0; z < bz; ++z)
      for (std::size_t y = 0; y < by; ++y)
        for (std::size_t x = 0; x < bx; ++x) {
          std::size_t zz = std::min(z0 + z, nz - 1), yy = std::min(y0 + y, ny - 1),
                      xx = std::min(x0 + x, nx - 1);
          block[bi++] = d[(zz * ny + yy) * nx + xx];
        }
    codec.encode_block(block.data(), bw);
  });
  bw.flush();
  return out;
}

template <typename T>
std::vector<u8> decompress_typed(const Bytes& in, const BaselineHeader& h) {
  std::array<std::size_t, 3> dims{h.dims[0], h.dims[1], h.dims[2]};
  Field shape(static_cast<const T*>(nullptr), dims);
  int rank = shape.rank();
  BlockCodec<T> codec{rank, std::size_t{1} << (2 * rank), h.eps, h.eb};
  std::vector<u8> out(h.count * sizeof(T));
  T* values = reinterpret_cast<T*>(out.data());
  lossless::BitReader br(in.data() + sizeof(BaselineHeader), in.size() - sizeof(BaselineHeader));
  std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  std::vector<T> block(codec.bs);
  for_each_block<T>(dims, rank, [&](std::size_t z0, std::size_t y0, std::size_t x0,
                                    std::size_t bz, std::size_t by, std::size_t bx) {
    codec.decode_block(block.data(), br);
    std::size_t bi = 0;
    for (std::size_t z = 0; z < bz; ++z)
      for (std::size_t y = 0; y < by; ++y)
        for (std::size_t x = 0; x < bx; ++x) {
          std::size_t zz = z0 + z, yy = y0 + y, xx = x0 + x;
          T v = block[bi++];
          if (zz < nz && yy < ny && xx < nx) values[(zz * ny + yy) * nx + xx] = v;
        }
  });
  if (br.truncated()) throw CompressionError("zfp: truncated stream");
  return out;
}

}  // namespace

Bytes ZfpLikeCompressor::compress(const Field& in, double eps, EbType eb) const {
  if (in.dtype == DType::F32) return compress_typed<float>(in, eps, eb);
  return compress_typed<double>(in, eps, eb);
}

std::vector<u8> ZfpLikeCompressor::decompress(const Bytes& stream) const {
  BaselineHeader h = read_bheader(stream, kMagic);
  if (h.dtype == DType::F32) return decompress_typed<float>(stream, h);
  return decompress_typed<double>(stream, h);
}

}  // namespace repro::baselines
