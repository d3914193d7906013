// Blocking PFPN/1 client.
//
// One Client owns one connection (lazily opened, re-opened on demand) and
// issues synchronous request/response round trips. Two failure families:
//
//   * RemoteError   — the server answered with a typed error frame (bad
//                     params, CRC mismatch, draining, ...). Never retried:
//                     the server is reachable and said no.
//   * NetError      — transport trouble (connect/send/recv failure, timeout,
//                     peer closed). Every PFPN request is a pure function of
//                     its payload (the server keeps no state between them),
//                     so the client drops the connection and resends on a
//                     fresh one at once, up to Options::max_attempts total
//                     attempts. This is the one retry policy.
//
// Thread safety: a Client is a single connection with request/response
// framing — use one Client per thread (the load generator does exactly
// that), or add external locking.
#pragma once

#include <string>

#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace repro::net {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    u16 port = 0;
    int connect_timeout_ms = 5000;
    int request_timeout_ms = 120000;  ///< per send/recv wait, not per byte
    /// Total attempts per request (first try included); 1 = exactly one
    /// attempt, ever. The default retries once.
    unsigned max_attempts = 2;
    std::size_t max_response_payload = 1u << 30;
  };

  explicit Client(Options opts);
  ~Client();

  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  /// Compress `n` raw bytes of `dtype` scalars under (eb, eps); returns the
  /// PFPL stream — byte-identical to local pfpl::compress with the server's
  /// executor.
  Bytes compress(const void* raw, std::size_t n, DType dtype, EbType eb, double eps);

  /// Decompress a PFPL stream; returns raw scalar bytes.
  std::vector<u8> decompress(const Bytes& stream);

  /// Server stats JSON (the STATS op payload).
  std::string stats();

  /// Server metrics (the METRICS op): the pfpl-metrics/1 JSON document, or
  /// Prometheus text exposition format when `prom` is true.
  std::string metrics(bool prom = false);

  /// Round-trip an empty PING (connectivity + liveness check).
  void ping();

  /// Ask the server to drain and exit. The OK response is sent before the
  /// server stops, so this returning means the drain has begun.
  void shutdown_server();

  /// Requests completed over this client's lifetime (including retries).
  u64 requests() const { return requests_; }
  /// Wire attempts made (each retry counts; RemoteError answers count once).
  u64 attempts() const { return attempts_; }
  /// Reconnects performed after the initial connect.
  u64 reconnects() const { return reconnects_; }
  /// The request_id the most recent round trip was sent with (0 before the
  /// first request). Matches the id in RemoteError/NetError text and in the
  /// server's slow-request log and trace spans.
  u64 last_request_id() const { return last_id_; }

 private:
  void ensure_connected();
  u64 fresh_id();
  Frame roundtrip(const FrameHeader& h, const void* payload, std::size_t n);
  Frame roundtrip_once(const FrameHeader& h, const void* payload, std::size_t n);

  Options opts_;
  Socket sock_;
  u64 next_id_ = 0;  ///< 0 = unseeded; fresh_id() seeds per client instance
  u64 last_id_ = 0;
  u64 requests_ = 0;
  u64 attempts_ = 0;
  u64 reconnects_ = 0;
  bool ever_connected_ = false;
};

}  // namespace repro::net
