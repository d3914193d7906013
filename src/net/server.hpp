// pfpld — the PFPN/1 compression server.
//
// Architecture (one event-loop thread + the svc worker pool):
//
//   * A readiness event loop (epoll(7) via net/poller.hpp) owns the
//     listening socket and every connection. Connections are non-blocking;
//     frames are parsed incrementally from per-connection buffers
//     (net::FrameParser), so a slow or malicious peer can never block the
//     loop or make it over-read.
//   * Every request frame runs one prologue (count it, look up its op's row
//     in a per-op table, refuse it if the server is draining and the row
//     says so) and then its row's handler on the loop thread.
//   * COMPRESS and DECOMPRESS work is dispatched onto a svc::ThreadPool
//     through one worker harness. Each is a pure function of its payload:
//     no state outlives a request, so a client may resend any of them.
//     Workers never touch connection state: each finished request is pushed
//     onto a completion queue and the loop is woken through a self-pipe, the
//     only cross-thread channel.
//   * Backpressure is per connection: while a connection has more than
//     `max_inflight_bytes` of dispatched-but-unanswered payload, the loop
//     parks its parsed-but-undispatched frames and stops polling it for
//     reads. A single request larger than the whole budget is admitted alone
//     so it cannot deadlock.
//   * Graceful drain (SIGINT via request_stop(), or a SHUTDOWN frame): stop
//     accepting connections, answer new COMPRESS and DECOMPRESS requests
//     with a typed Draining error, let in-flight requests finish and their
//     responses flush, then close everything and return from run(). A peer
//     that refuses to read its responses is cut off after 5 s.
//
// Protocol errors get typed error frames: recoverable ones (CRC mismatch,
// bad params, unsupported op, a response frame sent as a request) keep the
// connection; framing errors (bad magic, oversized length) get a
// best-effort error frame and a close. The
// server must never crash on hostile bytes — tests/test_net.cpp pins this.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "core/pfpl.hpp"
#include "net/socket.hpp"

namespace repro::store {
class ChunkStore;
}

namespace repro::net {

class Server {
 public:
  struct Options {
    std::string bind_host = "127.0.0.1";
    u16 port = 0;                                 ///< 0 = ephemeral
    unsigned threads = 0;                         ///< pool workers; 0 = hw
    std::size_t max_inflight_bytes = 64u << 20;   ///< per-connection budget
    pfpl::Executor exec = pfpl::Executor::Serial;
    /// Optional PFPS chunk store: COMPRESS/DECOMPRESS answers are looked up
    /// by content hash before dispatching to the pool, and computed results
    /// are stored back. Shared so the CLI can keep a handle for shutdown
    /// stats. Null = no store (compute every request).
    std::shared_ptr<store::ChunkStore> store;
    /// Slow-request capture: requests whose total latency reaches `slow_ms`
    /// enter a ring of the 32 slowest (exposed via STATS and METRICS, logged
    /// through obs::EventLog). 0 disables capture.
    int slow_ms = 0;
    /// Plain-HTTP GET /metrics listener on the same poll loop, for scrapers
    /// that do not speak PFPN: -1 = disabled, 0 = ephemeral, else the port.
    int metrics_port = -1;
    /// Watchdog threshold: flag any pool worker stuck on one request for
    /// longer than this. 0 disables. Either option starts the obs::Sampler
    /// thread for the duration of run().
    u64 stall_ms = 0;
    /// Non-empty: install the fatal-signal crash handler writing
    /// `<crash_dir>/crash-<pid>.json` and write stall reports there.
    std::string crash_dir;
    /// Accepted-connection cap: at the limit the listener is simply not
    /// polled for reads, so new peers wait in the kernel backlog until a
    /// slot frees. 0 = unlimited.
    std::size_t max_conns = 0;
  };

  /// Plain-atomic service counters (live regardless of obs::enabled(), so
  /// the STATS op always has content). The requests_* buckets count every
  /// request frame with a known op once, on arrival, refused or not.
  struct Stats {
    u64 connections_accepted = 0;
    u64 connections_current = 0;
    u64 frames_rx = 0;
    u64 frames_tx = 0;
    u64 bytes_rx = 0;
    u64 bytes_tx = 0;
    u64 requests_compress = 0;
    u64 requests_decompress = 0;
    u64 requests_other = 0;   ///< every other known op
    u64 errors = 0;           ///< typed error frames sent
    u64 store_hits = 0;       ///< requests answered from the chunk store
    u64 store_misses = 0;     ///< requests that had to compute (store attached)
    u64 inflight_bytes = 0;
    u64 peak_inflight_bytes = 0;
    u64 slow_requests = 0;    ///< requests captured by the slow-request ring
    u64 metrics_scrapes = 0;  ///< METRICS ops + HTTP /metrics[.json] GETs
    u64 accept_overloads = 0; ///< connections shed on EMFILE/ENFILE
    bool draining = false;
  };

  /// Binds and listens immediately (throws NetError on failure) so port()
  /// is valid before run() — callers start the loop on a thread and connect.
  explicit Server(const Options& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  u16 port() const { return port_; }
  /// Bound port of the HTTP /metrics listener (0 when disabled).
  u16 metrics_port() const { return metrics_port_; }

  /// Run the event loop on the calling thread; returns after a graceful
  /// drain completes (request_stop() or a SHUTDOWN frame).
  void run();

  /// Begin graceful drain. Safe from any thread and from signal handlers
  /// (atomic store + one write() to the wake pipe).
  void request_stop();

  Stats stats() const;
  /// The STATS-op payload: stats + config as a JSON object.
  std::string stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  u16 port_ = 0;
  u16 metrics_port_ = 0;
};

}  // namespace repro::net
