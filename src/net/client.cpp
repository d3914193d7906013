#include "net/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/checksum.hpp"
#include "common/hash.hpp"
#include "obs/metrics.hpp"

namespace repro::net {
namespace {

/// Client-side latency histogram (microseconds, whole round trip).
obs::Histogram& client_request_us() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("net.client.request_us");
  return h;
}

u64 now_us() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace

Client::Client(Options opts) : opts_(std::move(opts)) {}

Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

void Client::ensure_connected() {
  if (sock_.valid()) return;
  sock_ = tcp_connect(opts_.host, opts_.port, opts_.connect_timeout_ms);
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
}

u64 Client::fresh_id() {
  if (next_id_ == 0) {
    // Seed the id counter per client instance (pid + clock + object address)
    // so ids from different clients — and different processes — land in
    // disjoint ranges and a server-side slow-log/trace entry names exactly
    // one request. Probabilistic, not coordinated: 64 bits is plenty.
    struct {
      u64 pid;
      u64 t;
      u64 self;
    } seed{static_cast<u64>(::getpid()),
           static_cast<u64>(std::chrono::steady_clock::now().time_since_epoch().count()),
           reinterpret_cast<u64>(this)};
    const common::Hash128 h = common::hash128(&seed, sizeof seed);
    next_id_ = h.hi ? h.hi : 1;  // 0 means "no context" in traces; avoid it
  }
  u64 id = next_id_++;
  if (id == 0) id = next_id_++;  // counter wrapped across 0
  last_id_ = id;
  return id;
}

Frame Client::roundtrip_once(const FrameHeader& h, const void* payload, std::size_t n) {
  // Every failure below carries the request_id, so a client-side error can
  // be matched against the server's slow-request log and trace spans.
  const std::string id_tag = " (request_id " + std::to_string(h.request_id) + ")";
  try {
    ensure_connected();
    // Header and payload leave in one sendmsg, straight from the caller's
    // buffer: the header's CRC covers the payload where it lies.
    u8 head[kFrameHeaderSize];
    encode_frame_header(h, payload, n, head);
    const iovec parts[2] = {{head, sizeof head}, {const_cast<void*>(payload), n}};
    send_all(sock_.fd(), parts, 2, opts_.request_timeout_ms);

    u8 hdr[kFrameHeaderSize];
    recv_all(sock_.fd(), hdr, sizeof(hdr), opts_.request_timeout_ms);
    FrameHeader rh = decode_frame_header(hdr);  // NetError on bad magic/version
    if (!rh.is_response() || rh.base_op() != h.base_op())
      throw NetError("PFPN: response op mismatch (sent " +
                     std::string(to_string(static_cast<Op>(h.base_op()))) + ", got op " +
                     std::to_string(rh.op) + ")");
    if (rh.request_id != h.request_id)
      throw NetError("PFPN: response id mismatch (sent " + std::to_string(h.request_id) +
                     ", got " + std::to_string(rh.request_id) + ")");
    if (rh.payload_len > opts_.max_response_payload)
      throw NetError("PFPN: response payload of " + std::to_string(rh.payload_len) +
                     " bytes exceeds the client limit");
    Frame out;
    out.header = rh;
    out.payload.resize(static_cast<std::size_t>(rh.payload_len));
    if (rh.payload_len)
      recv_all(sock_.fd(), out.payload.data(), out.payload.size(),
               opts_.request_timeout_ms);
    if (common::crc32(out.payload.data(), out.payload.size()) != rh.payload_crc)
      throw NetError("PFPN: response payload CRC mismatch");
    if (rh.status != static_cast<u16>(Status::Ok)) {
      const std::string text(out.payload.begin(), out.payload.end());
      throw RemoteError(rh.status, "PFPN: server error " + status_name(rh.status) +
                                       (text.empty() ? "" : ": " + text) + id_tag);
    }
    return out;
  } catch (const RemoteError&) {
    throw;  // already tagged above
  } catch (const NetError& e) {
    throw NetError(std::string(e.what()) + id_tag);
  }
}

Frame Client::roundtrip(const FrameHeader& base, const void* payload, std::size_t n) {
  FrameHeader h = base;
  const u64 t0 = now_us();
  const unsigned attempts = std::max(opts_.max_attempts, 1u);
  for (unsigned attempt = 1;; ++attempt) {
    h.request_id = fresh_id();
    try {
      ++attempts_;
      Frame f = roundtrip_once(h, payload, n);
      ++requests_;
      client_request_us().record(now_us() - t0);
      return f;
    } catch (const RemoteError&) {
      throw;  // the server answered; retrying would repeat the same refusal
    } catch (const NetError&) {
      // Transport failure: the connection state is unknown, so drop it and
      // resend on a fresh one (requests are pure, so a resend is safe).
      sock_.close();
      if (attempt >= attempts) throw;
    }
  }
}

Bytes Client::compress(const void* raw, std::size_t n, DType dtype, EbType eb,
                       double eps) {
  FrameHeader h;
  h.op = static_cast<u8>(Op::Compress);
  h.dtype = static_cast<u8>(dtype);
  h.eb_type = static_cast<u8>(eb);
  h.eps = eps;
  return roundtrip(h, raw, n).payload;
}

std::vector<u8> Client::decompress(const Bytes& stream) {
  FrameHeader h;
  h.op = static_cast<u8>(Op::Decompress);
  return roundtrip(h, stream.data(), stream.size()).payload;
}

std::string Client::stats() {
  FrameHeader h;
  h.op = static_cast<u8>(Op::Stats);
  Frame f = roundtrip(h, nullptr, 0);
  return std::string(f.payload.begin(), f.payload.end());
}

std::string Client::metrics(bool prom) {
  const std::string fmt = prom ? "prom" : "json";
  FrameHeader h;
  h.op = static_cast<u8>(Op::Metrics);
  Frame f = roundtrip(h, fmt.data(), fmt.size());
  return std::string(f.payload.begin(), f.payload.end());
}

void Client::ping() {
  FrameHeader h;
  h.op = static_cast<u8>(Op::Ping);
  roundtrip(h, nullptr, 0);
}

void Client::shutdown_server() {
  FrameHeader h;
  h.op = static_cast<u8>(Op::Shutdown);
  roundtrip(h, nullptr, 0);
}

}  // namespace repro::net
