#include "core/pfpl.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <cstring>
#include <numeric>

#include "core/chunked.hpp"
#include "core/pipeline.hpp"
#include "core/quantizers.hpp"
#include "fpmath/det_math.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/gpu_pipeline.hpp"
#include "sim/lookback.hpp"

namespace repro::pfpl {
namespace {

/// Hot-path metric handles, resolved once (registry lookups take a lock;
/// the add() calls after that are sharded and lock-free — see obs/metrics.hpp).
struct CoreMetrics {
  obs::Counter& chunks_encoded;
  obs::Counter& chunks_raw;
  obs::Counter& chunks_decoded;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Histogram& encode_chunk_us;
  static CoreMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static CoreMetrics m{r.counter("core.chunks_encoded"),
                         r.counter("core.chunks_raw"),
                         r.counter("core.chunks_decoded"),
                         r.counter("core.bytes_in"),
                         r.counter("core.bytes_out"),
                         r.histogram("core.encode_chunk_us")};
    return m;
  }
};

/// Min/max reduction over the finite values of the input (NOA needs the value
/// range, Section III-A; the reduction result is stored in the header so the
/// decoder never recomputes it).
template <typename T>
double finite_range(const T* d, std::size_t n) {
  bool any = false;
  T mn{}, mx{};
  for (std::size_t i = 0; i < n; ++i) {
    T v = d[i];
    if (!std::isfinite(v)) continue;
    if (!any) {
      mn = mx = v;
      any = true;
    } else {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  return any ? static_cast<double>(mx) - static_cast<double>(mn) : 0.0;
}

/// Quantize one chunk's slice and run the (CPU or GPU-sim) lossless pipeline.
/// The quantizer is fused into the chunk loop exactly as in the paper
/// ("the most important optimization is fusing all four stages ... including
/// the quantizer"): the input slice is read once, everything else happens in
/// chunk-local buffers.
template <typename T, typename Q>
u32 encode_one_chunk(const T* data, std::size_t beg, std::size_t k, const Q& q,
                     Executor exec, std::vector<u8>& payload) {
  OBS_SPAN("pfpl.encode_chunk");
  const u64 t0 = obs::enabled() ? obs::TraceRecorder::global().now_ns() : 0;
  using Bits = typename fpmath::FloatTraits<T>::Bits;
  std::vector<Bits> words(k);
  {
    OBS_SPAN("pfpl.quantize");
    obs::KernelTimer kt(obs::Kernel::Quantize, k * sizeof(T));
    q.encode_block(data + beg, words.data(), k);
  }
  bool compressed = exec == Executor::GpuSim
                        ? sim::gpu_chunk_encode(words.data(), k, payload)
                        : chunk_encode(words.data(), k, payload);
  u32 sz = static_cast<u32>(payload.size());
  if (obs::enabled()) {
    CoreMetrics& m = CoreMetrics::get();
    m.chunks_encoded.add(1);
    if (!compressed) m.chunks_raw.add(1);
    m.bytes_in.add(k * sizeof(T));
    m.bytes_out.add(sz);
    m.encode_chunk_us.record((obs::TraceRecorder::global().now_ns() - t0) / 1000);
  }
  return compressed ? sz : (sz | kRawChunkFlag);
}

template <typename T>
u32 encode_chunk_typed(const T* data, const Header& h, std::size_t c, Executor exec,
                       std::vector<u8>& payload) {
  using Bits = typename fpmath::FloatTraits<T>::Bits;
  constexpr std::size_t cw = chunk_words<Bits>();
  const std::size_t n = h.value_count;
  const std::size_t beg = c * cw;
  const std::size_t k = std::min(cw, n - beg);
  if (h.eb_type == EbType::REL) {
    RelQuantizer<T> q(h.eps, h.recon_param);
    return encode_one_chunk(data, beg, k, q, exec, payload);
  }
  AbsQuantizer<T> q(h.recon_param);
  return encode_one_chunk(data, beg, k, q, exec, payload);
}

template <typename T, typename Q>
std::vector<u8> decompress_typed(const Bytes& in, const Header& h, const Q& q,
                                 Executor exec) {
  using Bits = typename fpmath::FloatTraits<T>::Bits;
  constexpr std::size_t cw = chunk_words<Bits>();
  const std::size_t n = h.value_count;
  const std::size_t nchunks = h.chunk_count;
  // Header consistency: the chunk count is fully determined by the value
  // count, so a corrupted header cannot drive a bogus allocation (the
  // overflow-safe division avoids wrap-around on adversarial counts).
  if (n / cw + (n % cw != 0 ? 1 : 0) != nchunks)
    throw CompressionError("PFPL stream: header value/chunk count mismatch");
  const std::size_t table_off = sizeof(Header);
  if (in.size() < table_off + nchunks * sizeof(u32))
    throw CompressionError("PFPL stream: truncated chunk table");
  std::vector<u32> sizes(nchunks);
  if (nchunks > 0)  // an empty field has no table (and sizes.data() may be null)
    std::memcpy(sizes.data(), in.data() + table_off, nchunks * sizeof(u32));

  // Prefix sum over chunk sizes locates every chunk (paper: "the decoder
  // computes a prefix sum over the stored chunk sizes").
  std::vector<u64> offsets(nchunks, 0);
  for (std::size_t c = 1; c < nchunks; ++c)
    offsets[c] = offsets[c - 1] + (sizes[c - 1] & ~kRawChunkFlag);
  const std::size_t payload_off = table_off + nchunks * sizeof(u32);

  std::vector<u8> out(n * sizeof(T));
  T* values = reinterpret_cast<T*>(out.data());

  auto do_chunk = [&](std::size_t c) {
    OBS_SPAN("pfpl.decode_chunk");
    std::size_t beg = c * cw;
    std::size_t k = std::min(cw, n - beg);
    std::size_t off = payload_off + offsets[c];
    std::size_t csize = sizes[c] & ~kRawChunkFlag;
    if (off + csize > in.size()) throw CompressionError("PFPL stream: truncated chunk");
    bool compressed = (sizes[c] & kRawChunkFlag) == 0;
    std::vector<Bits> words(k);
    const std::size_t used =
        exec == Executor::GpuSim
            ? sim::gpu_chunk_decode(in.data() + off, csize, compressed, words.data(), k)
            : chunk_decode(in.data() + off, csize, compressed, words.data(), k);
    check_chunk_consumed(used, csize);
    {
      OBS_SPAN("pfpl.dequantize");
      obs::KernelTimer kt(obs::Kernel::Dequantize, k * sizeof(T));
      q.decode_block(words.data(), values + beg, k);
    }
    CoreMetrics::get().chunks_decoded.add(1);
  };

  if (exec == Executor::OpenMP) {
    // Exceptions (corrupt chunks) must not escape the parallel region.
    std::exception_ptr err;
#pragma omp parallel for schedule(dynamic)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(nchunks); ++c) {
      try {
        do_chunk(static_cast<std::size_t>(c));
      } catch (...) {
#pragma omp critical
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
  } else {
    for (std::size_t c = 0; c < nchunks; ++c) do_chunk(c);
  }
  return out;
}

template <typename T>
std::vector<u8> decompress_dispatch_eb(const Bytes& in, const Header& h, Executor exec) {
  switch (h.eb_type) {
    case EbType::ABS: {
      AbsQuantizer<T> q(h.recon_param);
      return decompress_typed<T>(in, h, q, exec);
    }
    case EbType::NOA: {
      AbsQuantizer<T> q(h.recon_param);
      return decompress_typed<T>(in, h, q, exec);
    }
    case EbType::REL: {
      RelQuantizer<T> q(h.eps, h.recon_param);
      return decompress_typed<T>(in, h, q, exec);
    }
  }
  throw CompressionError("PFPL stream: unknown error-bound type");
}

template <typename T>
void plan_header_typed(const T* data, std::size_t n, const Params& p, Header& h) {
  switch (p.eb) {
    case EbType::ABS: {
      h.recon_param = p.eps;
      AbsQuantizer<T> validate(p.eps);  // throws on invalid bound
      (void)validate;
      return;
    }
    case EbType::NOA: {
      if (!(p.eps >= 0.0) || !std::isfinite(p.eps))
        throw CompressionError("NOA error bound must be finite and non-negative");
      h.recon_param = p.eps * finite_range(data, n);
      AbsQuantizer<T> validate(h.recon_param);
      (void)validate;
      return;
    }
    case EbType::REL: {
      h.recon_param = fpmath::det_log1p(p.eps);
      RelQuantizer<T> validate(p.eps, h.recon_param);  // throws on invalid bound
      (void)validate;
      return;
    }
  }
  throw CompressionError("unknown error-bound type");
}

}  // namespace

std::size_t chunk_values(DType dtype) {
  return dtype == DType::F32 ? chunk_words<u32>() : chunk_words<u64>();
}

Header plan_header(const Field& in, const Params& p) {
  OBS_SPAN("pfpl.plan");
  Header h;
  h.dtype = in.dtype;
  h.eb_type = p.eb;
  h.eps = p.eps;
  const std::size_t n = in.count();
  if (in.dtype == DType::F32)
    plan_header_typed(static_cast<const float*>(in.data), n, p, h);
  else
    plan_header_typed(static_cast<const double*>(in.data), n, p, h);
  const std::size_t cw = chunk_values(in.dtype);
  h.value_count = n;
  h.chunk_count = static_cast<u32>((n + cw - 1) / cw);
  return h;
}

u32 encode_chunk(const Field& in, const Header& h, std::size_t c, Executor exec,
                 std::vector<u8>& out) {
  if (in.dtype == DType::F32)
    return encode_chunk_typed(static_cast<const float*>(in.data), h, c, exec, out);
  return encode_chunk_typed(static_cast<const double*>(in.data), h, c, exec, out);
}

Bytes assemble_stream(const Header& h, const std::vector<u32>& sizes,
                      const std::vector<Bytes>& payloads, Executor exec) {
  OBS_SPAN("pfpl.assemble");
  const std::size_t nchunks = h.chunk_count;
  // Concatenate. The GPU path computes the chunk offsets with the simulated
  // decoupled look-back scan (Section III-E); the result is the same
  // exclusive prefix sum the CPU path takes, so the bytes are identical.
  std::vector<u64> plain(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) plain[c] = sizes[c] & ~kRawChunkFlag;
  std::vector<u64> offsets;
  if (exec == Executor::GpuSim) {
    offsets = sim::lookback_exclusive_offsets(plain);
  } else {
    offsets.assign(nchunks, 0);
    std::exclusive_scan(plain.begin(), plain.end(), offsets.begin(), u64{0});
  }
  u64 total = nchunks ? offsets.back() + plain.back() : 0;

  Bytes out;
  out.reserve(sizeof(Header) + nchunks * sizeof(u32) + total);
  write_header(h, out);
  const u8* sp = reinterpret_cast<const u8*>(sizes.data());
  out.insert(out.end(), sp, sp + nchunks * sizeof(u32));
  std::size_t base = out.size();
  out.resize(base + total);
  for (std::size_t c = 0; c < nchunks; ++c)
    std::memcpy(out.data() + base + offsets[c], payloads[c].data(), plain[c]);
  return out;
}

Bytes compress(const Field& in, const Params& p) {
  OBS_SPAN("pfpl.compress");
  Header h = plan_header(in, p);
  const std::size_t nchunks = h.chunk_count;
  std::vector<Bytes> payloads(nchunks);
  std::vector<u32> sizes(nchunks, 0);

  if (p.exec == Executor::OpenMP) {
    // Dynamic scheduling mirrors the paper's dynamic chunk assignment for
    // load balance (chunks differ in compressibility).
#pragma omp parallel for schedule(dynamic)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(nchunks); ++c) {
      sizes[c] = encode_chunk(in, h, static_cast<std::size_t>(c), p.exec, payloads[c]);
    }
  } else {
    for (std::size_t c = 0; c < nchunks; ++c)
      sizes[c] = encode_chunk(in, h, c, p.exec, payloads[c]);
  }
  return assemble_stream(h, sizes, payloads, p.exec);
}

std::vector<u8> decompress(const Bytes& stream, Executor exec) {
  OBS_SPAN("pfpl.decompress");
  Header h = read_header(stream);
  if (h.dtype == DType::F32) return decompress_dispatch_eb<float>(stream, h, exec);
  return decompress_dispatch_eb<double>(stream, h, exec);
}

Header peek_header(const Bytes& stream) { return read_header(stream); }

}  // namespace repro::pfpl
