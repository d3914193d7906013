#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "ingest/pipeline.hpp"
#include "net/poller.hpp"
#include "obs/event_log.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "store/store.hpp"
#include "svc/thread_pool.hpp"

namespace repro::net {
namespace {

constexpr std::size_t kMaxFramePayload = 256u << 20;  ///< declared-length cap
constexpr std::size_t kQueueCapacity = 4096;          ///< pool bounded queue
constexpr u64 kDrainTimeoutNs = 5'000'000'000;        ///< flush deadline on drain
constexpr std::size_t kSlowCapacity = 32;             ///< slow-request ring size

/// An always-live Server::Stats count and the obs-gated registry counter
/// that mirrors it (none when `metric` is null): one add() moves both.
class Count {
 public:
  explicit Count(const char* metric = nullptr)
      : m_(metric ? &obs::MetricsRegistry::global().counter(metric) : nullptr) {}
  void add(u64 n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
    if (m_) m_->add(n);
  }
  u64 get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
  obs::Counter* m_;
};

/// An always-live level with its high-water mark, mirrored into a registry
/// gauge. Every change re-sets the gauge from the live value, so the gauge
/// reads what Server::Stats reads whenever observability is on.
class Level {
 public:
  explicit Level(const char* metric) : m_(obs::MetricsRegistry::global().gauge(metric)) {}
  void add(u64 n) {
    const u64 now = v_.fetch_add(n, std::memory_order_relaxed) + n;
    u64 p = peak_.load(std::memory_order_relaxed);
    while (now > p && !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
    }
    m_.set(static_cast<long long>(now));
  }
  void sub(u64 n) {
    m_.set(static_cast<long long>(v_.fetch_sub(n, std::memory_order_relaxed) - n));
  }
  u64 get() const { return v_.load(std::memory_order_relaxed); }
  u64 peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0}, peak_{0};
  obs::Gauge& m_;
};

/// Every event the server counts, each declared once beside the registry
/// metric it mirrors. The Count/Level values are the STATS op's source of
/// truth; the registry-only members below them are obs-gated.
struct Counters {
  Count connections_accepted{"net.connections_accepted"};
  Level connections{"net.connections"};
  Count frames_rx{"net.frames_rx"};
  Count frames_tx{"net.frames_tx"};
  Count bytes_rx{"net.bytes_rx"};
  Count bytes_tx{"net.bytes_tx"};
  Count requests_compress, requests_decompress, requests_other;
  Count errors{"net.errors"};
  Count store_hits{"net.store_hits"};
  Count store_misses{"net.store_misses"};
  Level inflight_bytes{"net.inflight_bytes"};
  Count slow_requests{"net.slow_requests"};
  Count metrics_scrapes{"net.metrics_scrapes"};
  Count accept_overloads{"net.accept_overloads"};
  /// Registry only: pool dispatches (COMPRESS, DECOMPRESS) and latencies.
  obs::Counter& pool_requests = obs::MetricsRegistry::global().counter("net.requests");
  obs::Histogram& request_us = obs::MetricsRegistry::global().histogram("net.request_us");
  obs::Histogram& compress_us = obs::MetricsRegistry::global().histogram("net.compress_us");
  obs::Histogram& decompress_us =
      obs::MetricsRegistry::global().histogram("net.decompress_us");
};

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

struct Connection {
  u64 id = 0;
  Socket sock;
  FrameParser parser;
  std::deque<WireFrame> outq;   ///< responses awaiting the socket
  std::size_t out_off = 0;      ///< sent prefix of outq.front()
  std::deque<Frame> deferred;   ///< parsed requests parked by backpressure
  std::size_t inflight = 0;     ///< dispatched-but-unanswered payload bytes
  bool no_read = false;         ///< peer half-closed or framing poisoned
  Connection(u64 i, Socket s, std::size_t max_payload)
      : id(i), sock(std::move(s)), parser(max_payload) {}
};

/// A worker-finished response headed back to the event loop.
struct Completion {
  u64 conn_id = 0;
  WireFrame frame;            ///< the response (success or error)
  std::size_t release = 0;    ///< in-flight payload bytes to give back
  u64 t0_ns = 0;              ///< dispatch timestamp
  u64 work_start_ns = 0;      ///< worker picked the task up (queue-wait end)
  u64 work_ns = 0;            ///< compute time inside the worker
  u64 request_id = 0;
  u8 op = 0;                  ///< request op (for per-op latency histograms)
  u8 dtype = 0;
  bool is_error = false;
};

/// One entry of the slow-request ring: everything needed to line a server
/// observation up with the client's error text and the request's trace spans.
struct SlowRequest {
  u64 request_id = 0;
  u64 conn_id = 0;
  u8 op = 0;
  u8 dtype = 0;
  u64 payload_bytes = 0;
  u64 total_us = 0;  ///< dispatch -> write-through send attempt on the loop
  u64 wait_us = 0;   ///< dispatch -> worker start (pool queue + scheduling)
  u64 work_us = 0;   ///< worker compute time
};

/// The one writer of a slow-request row: the STATS/METRICS ring and the
/// `slow_request` event log both render it here.
void write_slow_row(obs::JsonWriter& w, const SlowRequest& s) {
  w.begin_object();
  w.kv("request_id", static_cast<unsigned long long>(s.request_id));
  w.kv("conn", static_cast<unsigned long long>(s.conn_id));
  w.kv("op", to_string(static_cast<Op>(s.op)));
  w.kv("dtype", repro::to_string(static_cast<DType>(s.dtype)));
  w.kv("payload_bytes", static_cast<unsigned long long>(s.payload_bytes));
  w.kv("total_us", static_cast<unsigned long long>(s.total_us));
  w.kv("wait_us", static_cast<unsigned long long>(s.wait_us));
  w.kv("work_us", static_cast<unsigned long long>(s.work_us));
  w.end_object();
}

/// The one success-response builder: the op (with the response bit) and the
/// request id come from the request `h`; `echo` supplies the dtype/eb_type/
/// eps fields the op reports back (all zero by default). `body` is moved in.
WireFrame ok_frame(const FrameHeader& h, Bytes body, FrameHeader echo = {}) {
  echo.op = h.op | kResponseBit;
  echo.request_id = h.request_id;
  return wire_frame(echo, std::move(body));
}

/// A connection on the plain-HTTP metrics listener. One request per
/// connection (Connection: close); the whole exchange rides the poll loop.
struct HttpConn {
  Socket sock;
  std::string in;            ///< request bytes until the header terminator
  std::string out;           ///< rendered response
  std::size_t out_off = 0;
  bool no_read = false;
  explicit HttpConn(Socket s) : sock(std::move(s)) {}
};

}  // namespace

struct Server::Impl {
  Options opts;
  Socket listen;
  Socket mlisten;  ///< optional HTTP /metrics listener
  u16 metrics_port_bound = 0;
  int wake_r = -1, wake_w = -1;
  std::unique_ptr<svc::ThreadPool> pool;

  std::map<u64, std::unique_ptr<Connection>> conns;
  std::map<u64, std::unique_ptr<HttpConn>> http_conns;
  u64 next_conn_id = 1;
  u64 next_http_id = 1;
  std::atomic<bool> draining{false};  ///< written on the loop, read by stats()
  u64 drain_deadline_ns = 0;
  u64 start_ns = now_ns();

  /// Readiness backend, alive only while run() is on the loop thread.
  std::unique_ptr<Poller> poller;
  /// EMFILE headroom: one fd held in reserve so an exhausted server can
  /// still accept-and-close the pending connection instead of leaving it
  /// dangling in the backlog (see shed_accept()).
  int reserve_fd = -1;

  std::atomic<bool> stop_requested{false};
  std::mutex comp_m;
  std::vector<Completion> completions;

  /// Slow-request ring, sorted by total_us descending, capped at
  /// kSlowCapacity. Written on the loop thread; the mutex covers
  /// external stats_json() readers.
  mutable std::mutex slow_m;
  std::vector<SlowRequest> slow;

  Counters st;

  explicit Impl(const Options& o) : opts(o) {
    listen = tcp_listen(o.bind_host, o.port);
    if (o.metrics_port >= 0) {
      mlisten = tcp_listen(o.bind_host, static_cast<u16>(o.metrics_port));
      metrics_port_bound = local_port(mlisten);
    }
    int fds[2];
    if (::pipe(fds) != 0) throw NetError("net: pipe: " + std::string(std::strerror(errno)));
    wake_r = fds[0];
    wake_w = fds[1];
    set_nonblocking(wake_r, true);
    set_nonblocking(wake_w, true);
    reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    pool = std::make_unique<svc::ThreadPool>(o.threads, kQueueCapacity);
  }

  ~Impl() {
    // Join the workers BEFORE the wake pipe closes — a late completion's
    // wake() must hit our pipe, not whatever fd number got recycled.
    pool.reset();
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
    if (reserve_fd >= 0) ::close(reserve_fd);
  }

  void wake() {
    const char b = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    [[maybe_unused]] ssize_t rc = ::write(wake_w, &b, 1);
  }

  Stats snapshot() const {
    Stats out;
    out.connections_accepted = st.connections_accepted.get();
    out.connections_current = st.connections.get();
    out.frames_rx = st.frames_rx.get();
    out.frames_tx = st.frames_tx.get();
    out.bytes_rx = st.bytes_rx.get();
    out.bytes_tx = st.bytes_tx.get();
    out.requests_compress = st.requests_compress.get();
    out.requests_decompress = st.requests_decompress.get();
    out.requests_other = st.requests_other.get();
    out.errors = st.errors.get();
    out.store_hits = st.store_hits.get();
    out.store_misses = st.store_misses.get();
    out.inflight_bytes = st.inflight_bytes.get();
    out.peak_inflight_bytes = st.inflight_bytes.peak();
    out.slow_requests = st.slow_requests.get();
    out.metrics_scrapes = st.metrics_scrapes.get();
    out.accept_overloads = st.accept_overloads.get();
    out.draining = draining.load(std::memory_order_relaxed);
    return out;
  }

  std::string stats_json() const {
    const Stats s = snapshot();
    obs::JsonWriter w;
    w.begin_object();
    w.kv("service", "pfpld");
    w.kv("protocol", "PFPN/1");
    w.kv("uptime_s", static_cast<double>(now_ns() - start_ns) / 1e9);
    w.kv("threads", pool->worker_count());
    w.kv("exec", pfpl::to_string(opts.exec));
    w.kv("max_inflight_bytes",
         static_cast<unsigned long long>(opts.max_inflight_bytes));
    w.kv("max_frame_payload", static_cast<unsigned long long>(kMaxFramePayload));
    w.kv("draining", s.draining);
    w.kv("connections_accepted", static_cast<unsigned long long>(s.connections_accepted));
    w.kv("connections_current", static_cast<unsigned long long>(s.connections_current));
    w.kv("frames_rx", static_cast<unsigned long long>(s.frames_rx));
    w.kv("frames_tx", static_cast<unsigned long long>(s.frames_tx));
    w.kv("bytes_rx", static_cast<unsigned long long>(s.bytes_rx));
    w.kv("bytes_tx", static_cast<unsigned long long>(s.bytes_tx));
    w.kv("requests_compress", static_cast<unsigned long long>(s.requests_compress));
    w.kv("requests_decompress", static_cast<unsigned long long>(s.requests_decompress));
    w.kv("requests_other", static_cast<unsigned long long>(s.requests_other));
    w.kv("errors", static_cast<unsigned long long>(s.errors));
    w.kv("inflight_bytes", static_cast<unsigned long long>(s.inflight_bytes));
    w.kv("peak_inflight_bytes", static_cast<unsigned long long>(s.peak_inflight_bytes));
    w.kv("metrics_scrapes", static_cast<unsigned long long>(s.metrics_scrapes));
    w.kv("accept_overloads", static_cast<unsigned long long>(s.accept_overloads));
    if (opts.max_conns)
      w.kv("max_conns", static_cast<unsigned long long>(opts.max_conns));
    w.kv("slow_ms", opts.slow_ms);
    w.kv("slow_requests_captured", static_cast<unsigned long long>(s.slow_requests));
    {
      std::lock_guard<std::mutex> lk(slow_m);  // the ring, slowest first
      w.key("slow_requests").begin_array();
      for (const SlowRequest& row : slow) write_slow_row(w, row);
      w.end_array();
    }
    if (opts.store) {
      w.kv("store_hits", static_cast<unsigned long long>(s.store_hits));
      w.kv("store_misses", static_cast<unsigned long long>(s.store_misses));
      w.key("store").raw(opts.store->stats_json());
    }
    w.end_object();
    return w.take();
  }

  /// Loop-thread only (process_completions): admit a finished request to the
  /// slow ring if it cleared the threshold, and log it through the EventLog.
  void note_slow(const Completion& comp, u64 total_us) {
    if (opts.slow_ms <= 0 ||
        total_us < static_cast<u64>(opts.slow_ms) * 1000)
      return;
    SlowRequest s;
    s.request_id = comp.request_id;
    s.conn_id = comp.conn_id;
    s.op = comp.op;
    s.dtype = comp.dtype;
    s.payload_bytes = comp.release;
    s.total_us = total_us;
    // work_start can only postdate t0 (same steady clock, same process);
    // guard anyway so a zero work_start (error path) cannot wrap.
    s.wait_us = comp.work_start_ns >= comp.t0_ns
                    ? (comp.work_start_ns - comp.t0_ns) / 1000
                    : 0;
    s.work_us = comp.work_ns / 1000;
    st.slow_requests.add(1);
    {
      std::lock_guard<std::mutex> lk(slow_m);
      auto pos = std::lower_bound(
          slow.begin(), slow.end(), s,
          [](const SlowRequest& a, const SlowRequest& b) {
            return a.total_us > b.total_us;  // descending
          });
      if (pos == slow.end() && slow.size() >= kSlowCapacity) {
        // Slower entries already fill the ring.
      } else {
        slow.insert(pos, s);
        if (slow.size() > kSlowCapacity) slow.pop_back();
      }
    }
    obs::EventLog& log = obs::EventLog::global();
    if (log.would_log(obs::LogLevel::Warn)) {
      obs::JsonWriter w;
      write_slow_row(w, s);
      log.emit(obs::LogLevel::Warn, "slow_request", w.take());
    }
  }

  bool paused(const Connection& c) const {
    return !c.deferred.empty() || c.inflight >= opts.max_inflight_bytes;
  }

  // -- responses -----------------------------------------------------------

  void queue_response(Connection& c, WireFrame frame, bool is_error) {
    st.frames_tx.add(1);
    if (is_error) st.errors.add(1);
    c.outq.push_back(std::move(frame));
  }

  void queue_error(Connection& c, const FrameHeader& h, Status stc,
                   const std::string& text) {
    queue_response(c, error_frame(h.request_id, h.op, stc, text), /*is_error=*/true);
  }

  void reply(Connection& c, const FrameHeader& h, Bytes body = {},
             const FrameHeader& echo = {}) {
    queue_response(c, ok_frame(h, std::move(body), echo), /*is_error=*/false);
  }

  /// Flush as much of the out-queue as the socket accepts right now: each
  /// sendmsg gathers the headers and bodies of up to eight queued frames.
  void flush_out(Connection& c) {
    while (!c.outq.empty()) {
      iovec iov[16];
      std::size_t n = 0;
      for (auto it = c.outq.begin(); it != c.outq.end() && n < std::size(iov); ++it) {
        iov[n++] = {it->head.data(), it->head.size()};
        iov[n++] = {it->body.data(), it->body.size()};
      }
      const ssize_t rc = send_gather(c.sock.fd(), iov, n, c.out_off);
      if (rc == 0) return;  // socket full: run() arms POLLOUT
      if (rc < 0) {
        // Peer vanished: drop the queue; the close logic reaps the conn.
        c.outq.clear();
        c.out_off = 0;
        c.no_read = true;
        return;
      }
      st.bytes_tx.add(static_cast<u64>(rc));
      c.out_off += static_cast<std::size_t>(rc);
      while (!c.outq.empty() && c.out_off >= c.outq.front().size()) {
        c.out_off -= c.outq.front().size();
        c.outq.pop_front();
      }
    }
  }

  // -- request handling ----------------------------------------------------

  /// Per-op policy. `handle` runs on the loop thread after the shared
  /// prologue in handle_frame(); pooled ops validate there and admit(), and
  /// `dispatch` hands an admitted (or un-parked) frame to the pool.
  struct OpRow {
    Op op;
    Count Counters::*bucket;      ///< always-live requests_* count, on arrival
    bool refused_while_draining;  ///< a draining server answers Draining
    void (Impl::*handle)(Connection&, Frame&);
    void (Impl::*dispatch)(Connection&, Frame&);
  };

  static const OpRow* op_row(u8 op) {
    static constexpr OpRow kOps[] = {
        {Op::Compress, &Counters::requests_compress, true, &Impl::on_compress,
         &Impl::run_compress},
        {Op::Decompress, &Counters::requests_decompress, true, &Impl::on_decompress,
         &Impl::run_decompress},
        {Op::Stats, &Counters::requests_other, false, &Impl::on_stats, nullptr},
        {Op::Ping, &Counters::requests_other, false, &Impl::on_ping, nullptr},
        {Op::Shutdown, &Counters::requests_other, false, &Impl::on_shutdown, nullptr},
        {Op::Metrics, &Counters::requests_other, false, &Impl::on_metrics, nullptr},
    };
    for (const OpRow& r : kOps)
      if (static_cast<u8>(r.op) == op) return &r;
    return nullptr;
  }

  void handle_frame(Connection& c, Frame& f) {
    const FrameHeader& h = f.header;
    // Request-scoped tracing starts here: everything on the loop (validation,
    // dispatch/enqueue) and — via the pool's context capture — everything in
    // the worker runs under this request id.
    obs::TraceContext::Scope trace_ctx(h.request_id);
    OBS_SPAN("net.handle_frame");
    st.frames_rx.add(1);
    if (h.is_response() || h.status != 0)
      return queue_error(c, h, Status::BadFrame, "expected a request frame");
    const OpRow* row = op_row(h.base_op());
    if (!row)
      return queue_error(c, h, Status::BadFrame,
                         "unsupported op " + std::to_string(h.base_op()));
    (st.*row->bucket).add(1);
    if (draining && row->refused_while_draining)
      return queue_error(c, h, Status::Draining, "server is draining");
    (this->*row->handle)(c, f);
  }

  /// Admit a validated pooled request against the per-conn budget: dispatch
  /// now, or park it (which pauses reads) until in-flight bytes drop. An
  /// oversized single request is admitted alone.
  void admit(Connection& c, Frame& f) {
    const std::size_t n = f.payload.size();
    if (!c.deferred.empty() ||
        (c.inflight != 0 && c.inflight + n > opts.max_inflight_bytes)) {
      c.deferred.push_back(std::move(f));
      return;
    }
    dispatch(c, f);
  }

  void dispatch(Connection& c, Frame& f) {
    (this->*op_row(f.header.base_op())->dispatch)(c, f);
  }

  /// The one worker harness. Charges the frame's payload to the connection's
  /// in-flight budget and runs `body(payload)` on the pool; `body` returns
  /// the response frame. Everything around it — trace scope and work span,
  /// the typed error frames, timing, and the hand-back to the loop through
  /// the completion queue — lives here.
  template <typename Body>
  void run_pooled(Connection& c, Frame& f, const char* span, Body body) {
    Completion comp;
    comp.conn_id = c.id;
    comp.release = f.payload.size();
    comp.t0_ns = now_ns();
    comp.request_id = f.header.request_id;
    comp.op = f.header.base_op();
    comp.dtype = f.header.dtype;
    c.inflight += comp.release;
    st.inflight_bytes.add(comp.release);
    st.pool_requests.add(1);
    // Straight from handle_frame the submit runs under its TraceContext scope
    // and the pool re-installs that id around the task. An un-parked frame
    // (pump) has no scope here, and obs may be flipped on mid-request, so the
    // worker also tags itself: every span it opens carries the request id.
    pool->submit([this, comp, span, payload = std::move(f.payload),
                  body = std::move(body)]() mutable {
      comp.work_start_ns = now_ns();
      obs::TraceContext::Scope trace_ctx(comp.request_id);
      obs::ScopedSpan work_span(span);
      try {
        comp.frame = body(payload);
      } catch (const std::exception& e) {
        comp.frame =
            error_frame(comp.request_id, comp.op, Status::CompressFailed, e.what());
        comp.is_error = true;
      }
      comp.work_ns = now_ns() - comp.work_start_ns;
      {
        std::lock_guard<std::mutex> lk(comp_m);
        completions.push_back(std::move(comp));
      }
      wake();
    });
  }

  void on_compress(Connection& c, Frame& f) {
    const FrameHeader& h = f.header;
    if (h.dtype > 1 || h.eb_type > 2)
      return queue_error(c, h, Status::BadParams, "unknown dtype/eb_type");
    const std::size_t scalar = dtype_size(static_cast<DType>(h.dtype));
    if (f.payload.empty() || f.payload.size() % scalar != 0)
      return queue_error(c, h, Status::BadParams,
                         "payload size is not a positive multiple of the scalar size");
    if (!std::isfinite(h.eps))
      return queue_error(c, h, Status::BadParams, "eps is not finite");
    admit(c, f);
  }

  void run_compress(Connection& c, Frame& f) {
    const FrameHeader h = f.header;
    run_pooled(c, f, "net.work.compress",
               [this, h](const Bytes& in) {
      const auto dtype = static_cast<DType>(h.dtype);
      const auto eb = static_cast<EbType>(h.eb_type);
      // COMPRESS with --store goes through the ingest dedup probe: a
      // duplicate payload answers straight from the store (byte-identical by
      // key construction) and skips the compressor entirely.
      store::ChunkStore* cs = opts.store.get();  // opts outlives the pool
      Bytes stream;
      ingest::ProbeResult pr;
      if (cs)
        pr = ingest::probe_compress(*cs, in.data(), in.size(), dtype, eb, h.eps, stream);
      if (!pr.hit) {
        stream = pfpl::compress(raw_field(in.data(), in.size(), dtype),
                                pfpl::Params{h.eps, eb, opts.exec});
        if (cs) cs->put(pr.key, stream, store::ChunkMeta{dtype, eb, h.eps, in.size()});
      }
      if (cs) (pr.hit ? st.store_hits : st.store_misses).add(1);
      return ok_frame(h, std::move(stream), h);
    });
  }

  void on_decompress(Connection& c, Frame& f) {
    if (f.payload.empty())
      return queue_error(c, f.header, Status::BadParams, "empty stream");
    admit(c, f);
  }

  void run_decompress(Connection& c, Frame& f) {
    const FrameHeader h = f.header;
    run_pooled(c, f, "net.work.decompress",
               [this, h](const Bytes& in) {
      store::ChunkStore* cs = opts.store.get();
      const common::Hash128 key =
          cs ? store::decompress_key(in.data(), in.size()) : common::Hash128{};
      const pfpl::Header sh = pfpl::peek_header(in);
      Bytes raw;
      const bool hit = cs && cs->get(key, raw);
      if (!hit) {
        raw = pfpl::decompress(in, opts.exec);
        if (cs)
          cs->put(key, raw, store::ChunkMeta{sh.dtype, sh.eb_type, sh.eps, raw.size()});
      }
      if (cs) (hit ? st.store_hits : st.store_misses).add(1);
      FrameHeader echo;
      echo.dtype = static_cast<u8>(sh.dtype);
      echo.eb_type = static_cast<u8>(sh.eb_type);
      echo.eps = sh.eps;
      return ok_frame(h, std::move(raw), echo);
    });
  }

  void on_ping(Connection& c, Frame& f) {
    reply(c, f.header, std::move(f.payload));
  }

  void on_stats(Connection& c, Frame& f) {
    const std::string json = stats_json();
    reply(c, f.header, Bytes(json.begin(), json.end()));
  }

  void on_shutdown(Connection& c, Frame& f) {
    reply(c, f.header);
    begin_drain();
  }

  void on_metrics(Connection& c, Frame& f) {
    const std::string fmt(f.payload.begin(), f.payload.end());
    std::string doc;
    if (fmt == "prom") {
      doc = obs::prometheus_text();
    } else if (fmt.empty() || fmt == "json") {
      doc = obs::metrics_json_doc(stats_json());
    } else {
      return queue_error(c, f.header, Status::BadParams,
                         "unknown metrics format '" + fmt + "'");
    }
    st.metrics_scrapes.add(1);
    reply(c, f.header, Bytes(doc.begin(), doc.end()));
  }

  /// Parse and handle every complete frame buffered on the connection,
  /// stopping early when backpressure parks it.
  void pump(Connection& c) {
    // Budget freed? Un-park deferred requests first, oldest first. (A drain
    // empties every queue, and a draining server parks nothing new.)
    while (!c.deferred.empty() &&
           (c.inflight == 0 ||
            c.inflight + c.deferred.front().payload.size() <= opts.max_inflight_bytes)) {
      Frame f = std::move(c.deferred.front());
      c.deferred.pop_front();
      dispatch(c, f);
    }
    while (!paused(c)) {
      Frame f;
      const FrameParser::Result r = c.parser.next(f);
      if (r == FrameParser::Result::NeedMore) break;
      if (r == FrameParser::Result::Ready) {
        handle_frame(c, f);
        continue;
      }
      // Typed error frame for the offender; framing errors also poison the
      // stream, so stop reading and close once everything queued flushes.
      queue_response(c,
                     error_frame(c.parser.error_request_id(), c.parser.error_op(),
                                 c.parser.status(), c.parser.error()),
                     /*is_error=*/true);
      if (c.parser.fatal()) {
        c.no_read = true;
        break;
      }
    }
  }

  void read_ready(Connection& c) {
    u8 buf[64 << 10];
    // Bounded per poll round: four reads keep one fast peer from starving
    // the rest of the loop (level-triggered poll re-arms immediately).
    for (int round = 0; round < 4; ++round) {
      // Once a header is parsed, the rest of its payload is received
      // straight into the frame's own buffer; headers go through `buf`.
      std::span<u8> dst = c.parser.recv_window();
      const bool in_place = !dst.empty();
      if (!in_place) dst = buf;
      const ssize_t rc = ::recv(c.sock.fd(), dst.data(), dst.size(), 0);
      if (rc > 0) {
        const auto got = static_cast<std::size_t>(rc);
        st.bytes_rx.add(got);
        in_place ? c.parser.commit(got) : c.parser.feed(buf, got);
        if (got < dst.size()) break;
        continue;
      }
      if (rc == 0) {  // peer half-closed: no more requests will arrive
        c.no_read = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      c.no_read = true;  // hard error: reap below
      break;
    }
    pump(c);
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline_ns = now_ns() + kDrainTimeoutNs;
    if (poller) {
      if (listen.valid()) poller->remove(listen.fd());
      if (mlisten.valid()) poller->remove(mlisten.fd());
      for (auto& [id, hc] : http_conns) poller->remove(hc->sock.fd());
    }
    listen.close();  // stop accepting; queued SYNs get RST from the kernel
    mlisten.close();
    http_conns.clear();  // scrapes are stateless; no point flushing them out
    for (auto& [id, c] : conns) {
      while (!c->deferred.empty()) {
        Frame f = std::move(c->deferred.front());
        c->deferred.pop_front();
        queue_error(*c, f.header, Status::Draining, "server is draining");
      }
    }
  }

  void process_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lk(comp_m);
      batch.swap(completions);
    }
    for (Completion& comp : batch) {
      // A connection that died before its answer was ready already returned
      // its in-flight bytes (close_conn), so its response is just dropped.
      auto it = conns.find(comp.conn_id);
      Connection* c = it == conns.end() ? nullptr : it->second.get();
      if (c) {
        c->inflight -= comp.release;
        st.inflight_bytes.sub(comp.release);
        queue_response(*c, std::move(comp.frame), comp.is_error);
        flush_out(*c);  // write-through: POLLOUT only if the socket refuses bytes
      }
      // Stamped after the send attempt, so a slow socket write shows here.
      const u64 us = (now_ns() - comp.t0_ns) / 1000;
      st.request_us.record(us);
      if (comp.op == static_cast<u8>(Op::Compress)) st.compress_us.record(us);
      if (comp.op == static_cast<u8>(Op::Decompress)) st.decompress_us.record(us);
      note_slow(comp, us);
      if (c) pump(*c);  // freed budget may un-park deferred frames / buffered bytes
    }
  }

  /// EMFILE/ENFILE on accept from `l` (the PFPN or the HTTP listener): the
  /// process is out of fds but the pending connection still sits in the
  /// backlog, and a level-triggered listener would stay readable forever.
  /// Close the reserve fd to free one slot, accept-and-close the peer (a
  /// deterministic close beats a backlog timeout), re-arm the reserve, and
  /// log. Returns false when even the reserve trick could not accept
  /// (nothing further to shed this round).
  bool shed_accept(const Socket& l) {
    if (reserve_fd >= 0) {
      ::close(reserve_fd);
      reserve_fd = -1;
    }
    const int fd = ::accept(l.fd(), nullptr, nullptr);
    if (fd >= 0) ::close(fd);
    if (reserve_fd < 0) reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    st.accept_overloads.add(1);
    obs::EventLog& log = obs::EventLog::global();
    if (log.would_log(obs::LogLevel::Warn)) {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("connections_current", static_cast<unsigned long long>(st.connections.get()));
      w.kv("shed_total", static_cast<unsigned long long>(st.accept_overloads.get()));
      w.end_object();
      log.emit(obs::LogLevel::Warn, "accept_overload", w.take());
    }
    return true;
  }

  void accept_ready() {
    for (;;) {
      // At the --max-conns cap the listener is deregistered (run() arms it
      // with no events), so new peers queue in the kernel backlog until a
      // connection closes; this check only guards the same-round races.
      if (opts.max_conns && conns.size() >= opts.max_conns) return;
      const int fd = ::accept(listen.fd(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        if (errno == EMFILE || errno == ENFILE) {
          // Out of fds is an overload, not a crash: shed and keep serving.
          if (!shed_accept(listen)) return;
          continue;
        }
        return;  // transient accept errors (ECONNABORTED): keep serving
      }
      Socket s(fd);
      set_nonblocking(fd, true);
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const u64 id = next_conn_id++;
      conns.emplace(id, std::make_unique<Connection>(id, std::move(s), kMaxFramePayload));
      st.connections_accepted.add(1);
      st.connections.add(1);
    }
  }

  // -- HTTP /metrics listener ----------------------------------------------

  void http_accept() {
    for (;;) {
      const int fd = ::accept(mlisten.fd(), nullptr, nullptr);
      if (fd < 0) {
        if ((errno == EMFILE || errno == ENFILE) && shed_accept(mlisten)) continue;
        return;  // EAGAIN/EINTR/transient: poll re-arms us
      }
      Socket s(fd);
      set_nonblocking(fd, true);
      http_conns.emplace(next_http_id++, std::make_unique<HttpConn>(std::move(s)));
    }
  }

  /// Render the response for a parsed request line. Only GET is served; the
  /// handful of paths map straight onto the PFPN STATS/METRICS payloads.
  std::string http_response(const std::string& method, const std::string& path) {
    std::string status = "200 OK";
    std::string ctype = "text/plain; charset=utf-8";
    std::string body;
    if (method != "GET") {
      status = "405 Method Not Allowed";
      body = "only GET is supported\n";
    } else if (path == "/metrics") {
      body = obs::prometheus_text();
      ctype = "text/plain; version=0.0.4; charset=utf-8";
    } else if (path == "/metrics.json") {
      body = obs::metrics_json_doc(stats_json());
      ctype = "application/json";
    } else if (path == "/stats") {
      body = stats_json();
      ctype = "application/json";
    } else {
      status = "404 Not Found";
      body = "unknown path (try /metrics, /metrics.json, /stats)\n";
    }
    if (status[0] == '2' && (path == "/metrics" || path == "/metrics.json")) {
      st.metrics_scrapes.add(1);
    }
    std::string resp = "HTTP/1.1 " + status + "\r\n";
    resp += "Content-Type: " + ctype + "\r\n";
    resp += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    resp += "Connection: close\r\n\r\n";
    resp += body;
    return resp;
  }

  void http_read(HttpConn& hc) {
    char buf[4096];
    while (hc.out.empty()) {
      const ssize_t rc = ::recv(hc.sock.fd(), buf, sizeof(buf), 0);
      if (rc > 0) {
        hc.in.append(buf, static_cast<std::size_t>(rc));
      } else if (rc == 0) {
        hc.no_read = true;
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        if (!(errno == EAGAIN || errno == EWOULDBLOCK)) hc.no_read = true;
        break;
      }
      const std::size_t hdr_end = hc.in.find("\r\n\r\n");
      if (hdr_end != std::string::npos) {
        // Request line: METHOD SP PATH SP VERSION. Anything malformed gets
        // a 404 from the path match rather than special-casing.
        const std::size_t line_end = hc.in.find("\r\n");
        std::string method, path;
        const std::string line = hc.in.substr(0, line_end);
        const std::size_t sp1 = line.find(' ');
        if (sp1 != std::string::npos) {
          method = line.substr(0, sp1);
          const std::size_t sp2 = line.find(' ', sp1 + 1);
          path = line.substr(sp1 + 1, sp2 == std::string::npos
                                          ? std::string::npos
                                          : sp2 - sp1 - 1);
        }
        hc.out = http_response(method, path);
        break;
      }
      if (hc.in.size() > 8192) {  // header cap: refuse absurd requests
        hc.out = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
                 "Connection: close\r\n\r\n";
        hc.no_read = true;
        break;
      }
    }
  }

  /// Returns true when the connection is finished and should be closed.
  bool http_flush(HttpConn& hc) {
    const iovec out{hc.out.data(), hc.out.size()};
    while (hc.out_off < hc.out.size()) {
      const ssize_t rc = send_gather(hc.sock.fd(), &out, 1, hc.out_off);
      if (rc <= 0) return rc < 0;  // socket full, or the peer is gone
      hc.out_off += static_cast<std::size_t>(rc);
    }
    return !hc.out.empty();  // fully flushed (one response per connection)
  }

  void close_conn(std::map<u64, std::unique_ptr<Connection>>::iterator it) {
    // In-flight bytes of a dying conn are given back here; its completions
    // will find no connection and skip the (already-done) release.
    st.inflight_bytes.sub(it->second->inflight);
    if (poller) poller->remove(it->second->sock.fd());
    conns.erase(it);
    st.connections.sub(1);
  }

  void run() {
    // First, so a failed epoll_create1 throws before anything needs undoing.
    poller = std::make_unique<Poller>();
    // The sampler (watchdog checks, stall reports, crash body) lives for the
    // duration of the loop. It renders the first crash body before the loop
    // serves anything.
    if (opts.stall_ms > 0 || !opts.crash_dir.empty())
      sampler.start(opts.stall_ms, opts.crash_dir, [this] { return stats_json(); });

    // Tags carry the fd's kind in the top byte and the conn/http id below
    // it, so one epoll_wait result routes straight to its handler with no
    // per-fd lookup table rebuilt per round.
    constexpr u64 kTagMask = 0xFFull << 56;
    constexpr u64 kTagWake = 1ull << 56;
    constexpr u64 kTagListen = 2ull << 56;
    constexpr u64 kTagMListen = 3ull << 56;
    constexpr u64 kTagConn = 4ull << 56;
    constexpr u64 kTagHttp = 5ull << 56;
    constexpr u64 kIdMask = ~kTagMask;

    std::vector<Poller::Event> events;
    for (;;) {
      if (stop_requested.load(std::memory_order_relaxed)) begin_drain();
      if (draining) {
        // Reap idle conns; force-close stragglers past the flush deadline.
        const bool past_deadline = now_ns() >= drain_deadline_ns;
        for (auto it = conns.begin(); it != conns.end();) {
          Connection& c = *it->second;
          const bool idle = c.inflight == 0 && c.outq.empty() && c.deferred.empty();
          if (idle || past_deadline)
            close_conn(it++);
          else
            ++it;
        }
        if (conns.empty()) break;
      }

      // Declare the interest set. The Poller caches per-fd state, so an
      // unchanged fd costs a hash probe and no syscall on the epoll path.
      poller->set(wake_r, POLLIN, kTagWake);
      if (listen.valid()) {
        const bool full = opts.max_conns && conns.size() >= opts.max_conns;
        poller->set(listen.fd(), full ? 0 : POLLIN, kTagListen);
      }
      for (auto& [id, c] : conns) {
        short ev = 0;
        if (!c->no_read && !paused(*c)) ev |= POLLIN;
        if (!c->outq.empty()) ev |= POLLOUT;
        // ev == 0 still reports error/hangup, poll(2) semantics.
        poller->set(c->sock.fd(), ev, kTagConn | id);
      }
      if (mlisten.valid()) poller->set(mlisten.fd(), POLLIN, kTagMListen);
      for (auto& [id, hc] : http_conns)
        poller->set(hc->sock.fd(),
                    static_cast<short>(hc->out.empty() ? POLLIN : POLLOUT),
                    kTagHttp | id);

      poller->wait(events, draining ? 20 : 200);

      // Fixed processing order regardless of event order: wake-pipe drain,
      // completions, accepts, connection I/O, HTTP — same as the poll-array
      // loop this replaces.
      bool accept_hit = false, maccept_hit = false;
      for (const Poller::Event& e : events) {
        if (e.tag == kTagWake && (e.revents & POLLIN)) {
          u8 sink[256];
          while (::read(wake_r, sink, sizeof(sink)) > 0) {
          }
        } else if (e.tag == kTagListen) {
          accept_hit = true;
        } else if (e.tag == kTagMListen) {
          maccept_hit = true;
        }
      }
      process_completions();
      if (stop_requested.load(std::memory_order_relaxed)) begin_drain();
      if (accept_hit && listen.valid()) accept_ready();

      for (const Poller::Event& e : events) {
        if ((e.tag & kTagMask) != kTagConn) continue;
        auto it = conns.find(e.tag & kIdMask);
        if (it == conns.end()) continue;  // closed earlier this round
        Connection& c = *it->second;
        if (e.revents & (POLLERR | POLLNVAL)) {
          close_conn(it);
          continue;
        }
        if ((e.revents & (POLLIN | POLLHUP)) && !c.no_read) read_ready(c);
        // Writable, a reply the read just queued, or a hangup: send what
        // the socket takes now.
        if (!c.outq.empty()) flush_out(c);
        // Reap: peer can't send more, nothing pending either way.
        if (c.no_read && c.inflight == 0 && c.deferred.empty() && c.outq.empty())
          close_conn(it);
      }

      if (maccept_hit && mlisten.valid()) http_accept();
      for (const Poller::Event& e : events) {
        if ((e.tag & kTagMask) != kTagHttp) continue;
        auto it = http_conns.find(e.tag & kIdMask);
        if (it == http_conns.end()) continue;  // cleared by a drain this round
        HttpConn& hc = *it->second;
        bool done = (e.revents & (POLLERR | POLLNVAL | POLLHUP)) != 0 &&
                    hc.out.empty();
        if (!done && (e.revents & POLLIN)) http_read(hc);
        if (!done && !hc.out.empty()) done = http_flush(hc);
        if (!done && hc.no_read && hc.out.empty()) done = true;
        if (done) {
          poller->remove(hc.sock.fd());
          http_conns.erase(it);
        }
      }
    }
    poller.reset();
    // Every connection is gone; quiesce the pool (completions for closed
    // conns are dropped) and drop whatever the workers pushed meanwhile.
    pool->drain();
    process_completions();
    sampler.stop();
  }

  /// Declared last, so it stops (it reads stats_json()) before any member
  /// it reads is destroyed, should run() exit by an exception.
  obs::Sampler sampler;
};

Server::Server(const Options& opts) : impl_(std::make_unique<Impl>(opts)) {
  port_ = local_port(impl_->listen);
  metrics_port_ = impl_->metrics_port_bound;
}

Server::~Server() = default;

void Server::run() { impl_->run(); }

void Server::request_stop() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->wake();
}

Server::Stats Server::stats() const { return impl_->snapshot(); }

std::string Server::stats_json() const { return impl_->stats_json(); }

}  // namespace repro::net

