// Per-layer replay. Every input of the workload is pushed once more through
// the program's public entry points, each call timed on its own:
//
//   encode  plan_header -> per chunk: encode_chunk (the program's path) and,
//           beside it, the kernels it is made of — quantize, delta_nb,
//           bitshuffle, zerobyte — then assemble_stream
//   decode  per chunk: zerobyte_decode, bitshuffle, delta_nb decode,
//           dequantize; and pfpl::decompress for the program-path time
//   common  crc32 and hash128 over the input and its stream
//   net     encode_frame and FrameParser over the four frames of one
//           compress and one decompress request
//
// Fidelity: the replayed kernels must reproduce every encode_chunk payload
// byte for byte, plan_header -> chunks -> assemble_stream must equal the
// reference pfpl::compress stream, and the replayed decode must equal the
// reference pfpl::decompress output. A mismatch fails the run, because the
// per-layer numbers would otherwise describe a different program.
#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench.hpp"
#include "bits/bitshuffle.hpp"
#include "bits/delta.hpp"
#include "bits/zerobyte.hpp"
#include "common/checksum.hpp"
#include "common/hash.hpp"
#include "core/chunked.hpp"
#include "core/pipeline.hpp"
#include "core/quantizers.hpp"
#include "net/frame.hpp"

namespace pb {
namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Keeps checksum and hash results observable so the calls are not elided.
volatile u64 g_sink = 0;

/// Seconds and bytes per kernel over the whole replay.
struct Acc {
  double quantize = 0, delta = 0, shuffle = 0, zerobyte = 0;
  double zerobyte_dec = 0, shuffle_dec = 0, delta_dec = 0, dequantize = 0;
  double enc_bytes = 0, dec_bytes = 0, dequant_bytes = 0;
  double encode_chunk = 0, plan = 0, assemble = 0;
  std::vector<double> encode_chunk_us;
  u64 chunks = 0, raw_chunks = 0;
  double crc = 0, hash = 0, checksum_bytes = 0;
  double frame = 0, parse = 0, frame_bytes = 0;
};

template <typename T, typename Q>
void replay_codec(const Item& it, const pfpl::Header& h, const Q& q, Acc& a, Checker& chk,
                  double& decompress_s) {
  using Bits = typename fpmath::FloatTraits<T>::Bits;
  constexpr std::size_t cw = pfpl::chunk_words<Bits>();
  const std::size_t n = it.raw.size() / sizeof(T);
  const T* x = reinterpret_cast<const T*>(it.raw.data());
  const Field field = it.field();
  const std::size_t nchunks = h.chunk_count;
  std::vector<Bytes> payloads(nchunks);
  std::vector<u32> sizes(nchunks);
  std::vector<Bits> words(cw), buf(cw);
  Bytes zb;
  std::size_t first_bad = nchunks;

  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t beg = c * cw, k = std::min(cw, n - beg);
    const std::size_t kbytes = k * sizeof(T), padded = pfpl::padded_words<Bits>(k);
    Clock::time_point t0 = Clock::now();
    sizes[c] = pfpl::encode_chunk(field, h, c, pfpl::Executor::Serial, payloads[c]);
    Clock::time_point t1 = Clock::now();
    a.encode_chunk += secs(t0, t1);
    a.encode_chunk_us.push_back(secs(t0, t1) * 1e6);

    t0 = Clock::now();
    for (std::size_t i = 0; i < k; ++i) words[i] = q.encode(x[beg + i]);
    t1 = Clock::now();
    a.quantize += secs(t0, t1);
    std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(padded), Bits{0});
    std::memcpy(buf.data(), words.data(), kbytes);
    t0 = Clock::now();
    bits::delta_negabinary_encode(buf.data(), padded);
    t1 = Clock::now();
    a.delta += secs(t0, t1);
    bits::bitshuffle(buf.data(), padded);
    t0 = Clock::now();
    a.shuffle += secs(t1, t0);
    zb.clear();
    bits::zerobyte_encode(reinterpret_cast<const u8*>(buf.data()), padded * sizeof(Bits), zb);
    a.zerobyte += secs(t0, Clock::now());

    const bool compressed = zb.size() < kbytes;
    if (!compressed) {
      const u8* w = reinterpret_cast<const u8*>(words.data());
      zb.assign(w, w + kbytes);
    }
    const u32 sz = static_cast<u32>(zb.size()) | (compressed ? 0u : pfpl::kRawChunkFlag);
    if (first_bad == nchunks && (sz != sizes[c] || zb != payloads[c])) first_bad = c;
    a.enc_bytes += static_cast<double>(kbytes);
    ++a.chunks;
    a.raw_chunks += compressed ? 0 : 1;
  }
  chk.expect(first_bad == nchunks, "replay-chunks", it.name,
             "kernel replay differs from encode_chunk at chunk " + std::to_string(first_bad));

  Clock::time_point t0 = Clock::now();
  const Bytes stream = pfpl::assemble_stream(h, sizes, payloads, pfpl::Executor::Serial);
  a.assemble += secs(t0, Clock::now());
  chk.check(stream, it.stream, "replay-assemble", it.name);

  // Decode replay straight off the reference stream's chunk table.
  const u8* s = it.stream.data();
  std::vector<u32> table(nchunks);
  std::memcpy(table.data(), s + sizeof(pfpl::Header), nchunks * sizeof(u32));
  std::size_t off = sizeof(pfpl::Header) + nchunks * sizeof(u32);
  Bytes out(n * sizeof(T));
  T* y = reinterpret_cast<T*>(out.data());
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t beg = c * cw, k = std::min(cw, n - beg);
    const std::size_t kbytes = k * sizeof(T), padded = pfpl::padded_words<Bits>(k);
    const std::size_t csize = table[c] & ~pfpl::kRawChunkFlag;
    if ((table[c] & pfpl::kRawChunkFlag) == 0) {
      Clock::time_point u0 = Clock::now();
      bits::zerobyte_decode(s + off, csize, reinterpret_cast<u8*>(buf.data()),
                            padded * sizeof(Bits));
      Clock::time_point u1 = Clock::now();
      a.zerobyte_dec += secs(u0, u1);
      bits::bitshuffle(buf.data(), padded);
      u0 = Clock::now();
      a.shuffle_dec += secs(u1, u0);
      bits::delta_negabinary_decode(buf.data(), padded);
      a.delta_dec += secs(u0, Clock::now());
      a.dec_bytes += static_cast<double>(kbytes);
    } else {
      std::memcpy(buf.data(), s + off, kbytes);
    }
    const Clock::time_point u0 = Clock::now();
    for (std::size_t i = 0; i < k; ++i) y[beg + i] = q.decode(buf[i]);
    a.dequantize += secs(u0, Clock::now());
    a.dequant_bytes += static_cast<double>(kbytes);
    off += csize;
  }
  chk.check(out, it.recon, "replay-decode", it.name);

  t0 = Clock::now();
  const std::vector<u8> program = pfpl::decompress(it.stream);
  decompress_s += secs(t0, Clock::now());
  g_sink = g_sink + program.size();
}

/// Frame `payload` as `op` and parse it back; returns the seconds of both.
double frame_roundtrip(net::Op op, const Bytes& payload, Acc& a, Checker& chk,
                       const std::string& name) {
  net::FrameHeader fh;
  fh.op = static_cast<u8>(op);
  Clock::time_point t0 = Clock::now();
  const Bytes wire = net::encode_frame(fh, payload);
  Clock::time_point t1 = Clock::now();
  net::FrameParser parser;
  parser.feed(wire.data(), wire.size());
  net::Frame f;
  const bool ok = parser.next(f) == net::FrameParser::Result::Ready;
  const Clock::time_point t2 = Clock::now();
  a.frame += secs(t0, t1);
  a.parse += secs(t1, t2);
  a.frame_bytes += static_cast<double>(payload.size());
  chk.expect(ok && f.payload == payload, "replay-frame", name, "frame did not parse back");
  return secs(t0, t2);
}

template <typename T>
void replay_typed(const Item& it, const pfpl::Header& h, Acc& a, Checker& chk,
                  double& decompress_s) {
  if (h.eb_type == EbType::REL)
    replay_codec<T>(it, h, pfpl::RelQuantizer<T>(h.eps, h.recon_param), a, chk, decompress_s);
  else
    replay_codec<T>(it, h, pfpl::AbsQuantizer<T>(h.recon_param), a, chk, decompress_s);
}

double mbps(double bytes, double s) { return s > 0 ? bytes / 1e6 / s : 0.0; }

}  // namespace

ReplayCosts replay(const std::vector<Item>& items, Report& rep, Checker& chk) {
  Acc a;
  ReplayCosts costs;
  costs.compress_s.assign(items.size(), 0.0);
  costs.decompress_s.assign(items.size(), 0.0);
  const u64 failed_before = chk.failed();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    double& cs = costs.compress_s[i];
    double& ds = costs.decompress_s[i];
    const double chunk_before = a.encode_chunk, assemble_before = a.assemble;
    const Clock::time_point t0 = Clock::now();
    const pfpl::Header h =
        pfpl::plan_header(it.field(), pfpl::Params{it.eps, it.eb, pfpl::Executor::Serial});
    const double plan = secs(t0, Clock::now());
    a.plan += plan;
    if (it.dtype == DType::F32)
      replay_typed<float>(it, h, a, chk, ds);
    else
      replay_typed<double>(it, h, a, chk, ds);
    cs += plan + (a.encode_chunk - chunk_before) + (a.assemble - assemble_before);

    for (const Bytes* b : {&it.raw, &it.stream}) {
      Clock::time_point u0 = Clock::now();
      const u32 crc = common::crc32(b->data(), b->size());
      Clock::time_point u1 = Clock::now();
      const common::Hash128 hh = common::hash128(b->data(), b->size());
      const Clock::time_point u2 = Clock::now();
      g_sink = g_sink ^ crc ^ hh.hi;
      a.crc += secs(u0, u1);
      a.hash += secs(u1, u2);
      a.checksum_bytes += static_cast<double>(b->size());
    }
    // Request then response of each kind, as client and server frame them.
    cs += frame_roundtrip(net::Op::Compress, it.raw, a, chk, it.name) +
          frame_roundtrip(net::Op::Compress, it.stream, a, chk, it.name);
    ds += frame_roundtrip(net::Op::Decompress, it.stream, a, chk, it.name) +
          frame_roundtrip(net::Op::Decompress, it.recon, a, chk, it.name);
  }

  const double kernels = a.quantize + a.delta + a.shuffle + a.zerobyte;
  rep.add("core.quantize_MBps", mbps(a.enc_bytes, a.quantize), "MB/s");
  rep.add("bits.delta_nb_MBps", mbps(a.enc_bytes, a.delta), "MB/s");
  rep.add("bits.bitshuffle_MBps", mbps(a.enc_bytes, a.shuffle), "MB/s");
  rep.add("bits.zerobyte_MBps", mbps(a.enc_bytes, a.zerobyte), "MB/s");
  rep.add("bits.zerobyte_dec_MBps", mbps(a.dec_bytes, a.zerobyte_dec), "MB/s");
  rep.add("bits.bitshuffle_dec_MBps", mbps(a.dec_bytes, a.shuffle_dec), "MB/s");
  rep.add("bits.delta_nb_dec_MBps", mbps(a.dec_bytes, a.delta_dec), "MB/s");
  rep.add("core.dequantize_MBps", mbps(a.dequant_bytes, a.dequantize), "MB/s");
  rep.add("core.encode_chunk_us_p50", median(a.encode_chunk_us), "us");
  rep.add("core.chunk_overhead_frac", 1 - kernels / a.encode_chunk, "frac");
  rep.add("core.raw_chunk_frac",
          static_cast<double>(a.raw_chunks) / static_cast<double>(a.chunks), "frac");
  rep.add("core.plan_ms", a.plan * 1e3, "ms");
  rep.add("core.assemble_ms", a.assemble * 1e3, "ms");
  rep.add("common.crc32_MBps", mbps(a.checksum_bytes, a.crc), "MB/s");
  rep.add("common.hash128_MBps", mbps(a.checksum_bytes, a.hash), "MB/s");
  rep.add("net.encode_frame_MBps", mbps(a.frame_bytes, a.frame), "MB/s");
  rep.add("net.parse_MBps", mbps(a.frame_bytes, a.parse), "MB/s");
  rep.line("replay: %zu inputs, %llu chunks (%.1f MB); fidelity %s", items.size(),
           static_cast<unsigned long long>(a.chunks), a.enc_bytes / 1e6,
           chk.failed() == failed_before ? "ok: kernels, assembly and decode reproduce the "
                                           "program's bytes"
                                         : "FAILED");
  return costs;
}

}  // namespace pb
