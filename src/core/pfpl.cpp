#include "core/pfpl.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "bits/chunk_scratch.hpp"
#include "core/chunked.hpp"
#include "core/pipeline.hpp"
#include "core/quantizers.hpp"
#include "fpmath/det_math.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/gpu_pipeline.hpp"
#include "sim/lookback.hpp"

namespace repro::pfpl {
namespace {

/// Hot-path metric handles, resolved once (registry lookups take a lock;
/// the add() calls after that are sharded and lock-free — see obs/metrics.hpp).
struct CoreMetrics {
  obs::Counter& chunks_raw;
  obs::Counter& chunks_decoded;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& bytes_decoded;
  static CoreMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static CoreMetrics m{r.counter("core.chunks_raw"), r.counter("core.chunks_decoded"),
                         r.counter("core.bytes_in"), r.counter("core.bytes_out"),
                         r.counter("core.bytes_decoded")};
    return m;
  }
};

/// The one place a quantizer type is chosen: calls f with the header's
/// quantizer. ABS and NOA both bin with AbsQuantizer over recon_param. The
/// constructors reject invalid bounds.
template <typename T, typename F>
auto with_quantizer_typed(const Header& h, F& f) {
  switch (h.eb_type) {
    case EbType::ABS:
    case EbType::NOA: return f(AbsQuantizer<T>(h.recon_param));
    case EbType::REL: return f(RelQuantizer<T>(h.eps, h.recon_param));
  }
  throw CompressionError("PFPL: unknown error-bound type");
}

template <typename F>
auto with_quantizer(const Header& h, F&& f) {
  if (h.dtype == DType::F32) return with_quantizer_typed<float>(h, f);
  return with_quantizer_typed<double>(h, f);
}

/// The one chunk loop. OpenMP hands chunks out dynamically, as the paper does
/// for load balance (chunks differ in compressibility). No exception may
/// escape the parallel region, so the first one is rethrown after it.
template <typename F>
void for_each_chunk(std::size_t nchunks, Executor exec, const F& f) {
  if (exec != Executor::OpenMP) {
    for (std::size_t c = 0; c < nchunks; ++c) f(c);
    return;
  }
  std::exception_ptr err;
#pragma omp parallel for schedule(dynamic)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(nchunks); ++c) {
    try {
      f(static_cast<std::size_t>(c));
    } catch (...) {
#pragma omp critical
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

/// Quantize chunk `c` of `in` with `q` and run the (CPU or GPU-sim) lossless
/// pipeline, appending the payload to `payload`; returns the size word.
/// The quantizer is fused into the chunk loop exactly as in the paper
/// ("the most important optimization is fusing all four stages ... including
/// the quantizer"): the input slice is read once, everything else happens in
/// this thread's chunk scratch.
template <typename Q>
u32 encode_one_chunk(const Q& q, const Field& in, std::size_t c, Executor exec,
                     std::vector<u8>& payload) {
  OBS_SPAN("pfpl.encode_chunk", obs::Kernel::EncodeChunk);
  using T = typename Q::Value;
  using Bits = typename fpmath::FloatTraits<T>::Bits;
  const std::size_t cw = chunk_values(in.dtype);
  const std::size_t k = std::min(cw, in.count() - c * cw);
  const T* const data = static_cast<const T*>(in.data) + c * cw;
  Bits* const words = bits::chunk_scratch().quantized<Bits>(k);
  {
    OBS_SPAN("pfpl.quantize", obs::Kernel::Quantize);
    q.encode_block(data, words, k);
  }
  const std::size_t start = payload.size();
  bool compressed = exec == Executor::GpuSim ? sim::gpu_chunk_encode(words, k, payload)
                                             : chunk_encode(words, k, payload);
  u32 sz = static_cast<u32>(payload.size() - start);
  if (obs::enabled()) {
    CoreMetrics& m = CoreMetrics::get();
    if (!compressed) m.chunks_raw.add(1);
    m.bytes_in.add(k * sizeof(T));
    m.bytes_out.add(sz);
  }
  return compressed ? sz : (sz | kRawChunkFlag);
}

/// Decode chunk `c` of `stream` with `q` into its values at `out`: lossless
/// decode, consumed-size check, dequantize.
template <typename Q>
void decode_one_chunk(const Q& q, const Bytes& stream, const ChunkTable& t, std::size_t c,
                      Executor exec, void* out) {
  OBS_SPAN("pfpl.decode_chunk");
  using T = typename Q::Value;
  using Bits = typename fpmath::FloatTraits<T>::Bits;
  const u64 cw = chunk_values(t.header.dtype);
  const std::size_t k = std::min(cw, t.header.value_count - c * cw);
  const u8* const in = stream.data() + t.offsets[c];
  const std::size_t csize = t.sizes[c] & ~kRawChunkFlag;
  const bool compressed = (t.sizes[c] & kRawChunkFlag) == 0;
  T* const values = static_cast<T*>(out);
  Bits* const words = bits::chunk_scratch().quantized<Bits>(k);
  const std::size_t used = exec == Executor::GpuSim
                               ? sim::gpu_chunk_decode(in, csize, compressed, words, k)
                               : chunk_decode(in, csize, compressed, words, k);
  check_chunk_consumed(used, csize);
  {
    OBS_SPAN("pfpl.dequantize", obs::Kernel::Dequantize);
    q.decode_block(words, values, k);
  }
  if (obs::enabled()) {
    CoreMetrics& m = CoreMetrics::get();
    m.chunks_decoded.add(1);
    m.bytes_decoded.add(k * sizeof(T));
  }
}

/// A stream's header and chunk table, with room reserved for `payload_bytes`
/// of chunk payloads after them.
Bytes stream_prefix(const Header& h, const std::vector<u32>& sizes, u64 payload_bytes) {
  const std::size_t nchunks = h.chunk_count;
  Bytes out;
  out.reserve(sizeof(Header) + nchunks * sizeof(u32) + payload_bytes);
  write_header(h, out);
  for (std::size_t c = 0; c < nchunks; ++c) common::append_le(out, sizes[c]);
  return out;
}

}  // namespace

std::size_t chunk_values(DType dtype) {
  return dtype == DType::F32 ? chunk_words<u32>() : chunk_words<u64>();
}

Header plan_bound(DType dtype, EbType eb, double eps, fpmath::FiniteRange noa_range) {
  Header h;
  h.dtype = dtype;
  h.eb_type = eb;
  h.eps = eps;
  h.recon_param = eb == EbType::REL ? fpmath::det_log1p(eps) : eps;
  if (eb == EbType::NOA) {
    if (!(eps >= 0.0) || !std::isfinite(eps))
      throw CompressionError("NOA error bound must be finite and non-negative");
    if (!std::isfinite(noa_range.min) || !std::isfinite(noa_range.max) ||
        !(noa_range.max >= noa_range.min))
      throw CompressionError("NOA value range must be finite and non-negative");
    h.recon_param = fpmath::noa_bound(eps, noa_range.min, noa_range.max);
  }
  with_quantizer(h, [](const auto&) {});  // throws on an invalid bound
  return h;
}

Header plan_header(const Field& in, const Params& p) {
  OBS_SPAN("pfpl.plan");
  const std::size_t n = in.count();
  fpmath::FiniteRange range;
  if (p.eb == EbType::NOA) {
    OBS_SPAN("pfpl.noa_range", obs::Kernel::NoaRange);
    range = in.dtype == DType::F32 ? finite_range_block(in.as<float>())
                                   : finite_range_block(in.as<double>());
  }
  Header h = plan_bound(in.dtype, p.eb, p.eps, range);
  const std::size_t cw = chunk_values(in.dtype);
  h.value_count = n;
  h.chunk_count = static_cast<u32>((n + cw - 1) / cw);
  return h;
}

u32 encode_chunk(const Field& in, const Header& h, std::size_t c, Executor exec,
                 std::vector<u8>& out) {
  if (in.dtype != h.dtype) throw CompressionError("PFPL: field dtype does not match the plan");
  return with_quantizer(h, [&](const auto& q) { return encode_one_chunk(q, in, c, exec, out); });
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

  Bytes out = stream_prefix(h, sizes, total);
  std::size_t base = out.size();
  out.resize(base + total);
  for (std::size_t c = 0; c < nchunks; ++c)
    std::memcpy(out.data() + base + offsets[c], payloads[c].data(), plain[c]);
  return out;
}

Bytes assemble_stream(const Header& h, const std::vector<u32>& sizes, const Bytes& payload) {
  Bytes out = stream_prefix(h, sizes, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

ChunkTable read_chunk_table(const Bytes& stream) {
  common::ByteReader r(stream, "PFPL stream");
  ChunkTable t;
  t.header = read_header(r);
  const Header& h = t.header;
  with_quantizer(h, [](const auto&) {});  // throws on an unknown type or invalid bound
  // The chunk count is fully determined by the value count (the division
  // cannot wrap on hostile counts).
  const u64 cw = chunk_values(h.dtype), n = h.value_count;
  if (n / cw + (n % cw != 0 ? 1 : 0) != h.chunk_count)
    r.fail("header value/chunk count mismatch");
  const std::size_t nchunks = h.chunk_count;
  const u8* table = r.take_bytes(r.size_for(nchunks, sizeof(u32), "truncated chunk table"));
  t.sizes.resize(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) t.sizes[c] = common::get_le<u32>(table + 4 * c);
  // Prefix sum over chunk sizes locates every chunk (paper: "the decoder
  // computes a prefix sum over the stored chunk sizes").
  t.offsets.resize(nchunks);
  u64 end = r.offset();
  for (std::size_t c = 0; c < nchunks; ++c) {
    t.offsets[c] = end;
    end += t.sizes[c] & ~kRawChunkFlag;
    if (end > stream.size()) throw CompressionError("PFPL stream: truncated chunk");
  }
  return t;
}

GuaranteeCost guarantee_cost(const Bytes& stream) {
  const ChunkTable t = read_chunk_table(stream);
  const u64 cw = chunk_values(t.header.dtype);
  GuaranteeCost g;
  with_quantizer(t.header, [&](const auto& q) {
    using Q = std::decay_t<decltype(q)>;
    using Bits = typename Q::Bits;
    for (std::size_t c = 0; c < t.sizes.size(); ++c) {
      const std::size_t k = std::min(cw, t.header.value_count - c * cw);
      const std::size_t csize = t.sizes[c] & ~kRawChunkFlag;
      const bool compressed = (t.sizes[c] & kRawChunkFlag) == 0;
      Bits* const words = bits::chunk_scratch().quantized<Bits>(k);
      check_chunk_consumed(chunk_decode(stream.data() + t.offsets[c], csize, compressed, words, k),
                           csize);
      const auto n = std::count_if(words, words + k, [](Bits w) { return !Q::is_bin(w); });
      if (n > 0 && g.first_lossless_chunk < 0) g.first_lossless_chunk = static_cast<i64>(c);
      g.values_lossless += static_cast<u64>(n);
      g.chunks_raw += !compressed;
    }
  });
  return g;
}

void decode_chunk(const Bytes& stream, const ChunkTable& t, std::size_t c, Executor exec,
                  void* values) {
  with_quantizer(t.header, [&](const auto& q) { decode_one_chunk(q, stream, t, c, exec, values); });
}

Bytes compress(const Field& in, const Params& p) {
  OBS_SPAN("pfpl.compress");
  Header h = plan_header(in, p);
  std::vector<Bytes> payloads(h.chunk_count);
  std::vector<u32> sizes(h.chunk_count, 0);
  // One quantizer for every chunk: a REL one derives its margin once.
  with_quantizer(h, [&](const auto& q) {
    for_each_chunk(h.chunk_count, p.exec, [&](std::size_t c) {
      sizes[c] = encode_one_chunk(q, in, c, p.exec, payloads[c]);
    });
  });
  return assemble_stream(h, sizes, payloads, p.exec);
}

std::vector<u8> decompress(const Bytes& stream, Executor exec) {
  OBS_SPAN("pfpl.decompress");
  const ChunkTable t = read_chunk_table(stream);
  std::vector<u8> out(t.header.value_count * dtype_size(t.header.dtype));
  with_quantizer(t.header, [&](const auto& q) {
    for_each_chunk(t.sizes.size(), exec, [&](std::size_t c) {
      decode_one_chunk(q, stream, t, c, exec, out.data() + c * kChunkBytes);
    });
  });
  return out;
}

Header peek_header(const Bytes& stream) {
  common::ByteReader r(stream, "PFPL stream");
  return read_header(r);
}

}  // namespace repro::pfpl
