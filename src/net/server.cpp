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
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ingest/pipeline.hpp"
#include "net/poller.hpp"
#include "obs/crash.hpp"
#include "obs/event_log.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"
#include "svc/thread_pool.hpp"
#include "temporal/pfpv.hpp"
#include "temporal/temporal.hpp"

namespace repro::net {
namespace {

/// net.* metric handles, resolved once (obs/metrics.hpp pattern). These are
/// the obs-gated view; Server::Stats atomics below are always live.
struct NetMetrics {
  obs::Counter& connections_accepted;
  obs::Counter& frames_rx;
  obs::Counter& frames_tx;
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Counter& store_hits;
  obs::Counter& store_misses;
  obs::Counter& slow_requests;
  obs::Counter& metrics_scrapes;
  obs::Counter& accept_overloads;
  obs::Gauge& connections;
  obs::Gauge& inflight_bytes;
  obs::Histogram& request_us;
  obs::Histogram& compress_us;
  obs::Histogram& decompress_us;
  static NetMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static NetMetrics m{r.counter("net.connections_accepted"),
                        r.counter("net.frames_rx"),
                        r.counter("net.frames_tx"),
                        r.counter("net.bytes_rx"),
                        r.counter("net.bytes_tx"),
                        r.counter("net.requests"),
                        r.counter("net.errors"),
                        r.counter("net.store_hits"),
                        r.counter("net.store_misses"),
                        r.counter("net.slow_requests"),
                        r.counter("net.metrics_scrapes"),
                        r.counter("net.accept_overloads"),
                        r.gauge("net.connections"),
                        r.gauge("net.inflight_bytes"),
                        r.histogram("net.request_us"),
                        r.histogram("net.compress_us"),
                        r.histogram("net.decompress_us")};
    return m;
  }
};

/// Server-side cluster.node.* handles (the client-side cluster.* counters
/// live in cluster/client.cpp).
struct ClusterMetrics {
  obs::Counter& wrong_shard;
  obs::Counter& map_exchanges;
  obs::Counter& map_adopted;
  obs::Counter& health_checks;
  static ClusterMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static ClusterMetrics m{r.counter("cluster.node.wrong_shard"),
                            r.counter("cluster.node.map_exchanges"),
                            r.counter("cluster.node.map_adopted"),
                            r.counter("cluster.node.health_checks")};
    return m;
  }
};

/// Server-side temporal.session.* handles (the per-frame temporal.* counters
/// live in temporal/temporal.cpp).
struct TemporalMetrics {
  obs::Counter& sessions_opened;
  obs::Counter& sessions_closed;
  obs::Counter& sessions_evicted;
  obs::Counter& stream_frames;
  obs::Gauge& sessions;
  static TemporalMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static TemporalMetrics m{r.counter("temporal.sessions_opened"),
                             r.counter("temporal.sessions_closed"),
                             r.counter("temporal.sessions_evicted"),
                             r.counter("temporal.stream_frames"),
                             r.gauge("temporal.sessions")};
    return m;
  }
};

/// Thrown by the worker-side ownership check; turned into a typed
/// Status::WrongShard error frame (never retried on the same node — the
/// client refetches the shard map and re-routes).
struct WrongShardError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

u64 rd_le64(const u8* p) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

u32 rd_le32(const u8* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

/// One temporal frame session. The encoder is stateful (closed-loop
/// reference), so frames of a session are serialized by `m`; distinct
/// sessions encode concurrently on the pool. The map entry is a shared_ptr:
/// eviction/drain can erase it while a worker still holds the object.
struct StreamSession {
  u64 id = 0;
  temporal::SessionConfig cfg;
  temporal::FrameEncoder enc;
  std::mutex m;                     ///< serializes encode + expected_index
  /// Next in-order client frame index. The *first* frame of a session may
  /// carry any index: a client resuming after a reconnect (its old session
  /// was evicted or died with the server) continues its own numbering, and
  /// the fresh encoder answers it with a keyframe regardless. From then on
  /// indices must be strictly sequential.
  u64 expected_index = 0;
  bool started = false;             ///< false until the first frame lands
  std::atomic<u64> last_active_ns{0};
  std::atomic<u64> frames{0}, iframes{0}, pframes{0};
  u64 created_ns = 0;

  StreamSession(u64 i, const temporal::SessionConfig& c, u64 now)
      : id(i), cfg(c), enc(c), last_active_ns(now), created_ns(now) {}
};

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Test-only slowdown: PFPL_NET_TEST_SLOW_US sleeps inside every worker-side
/// request, widening the in-flight window so the drain and backpressure
/// tests are deterministic. Read fresh each time (test-only path; the hot
/// path never reaches it in real runs). Unset in production.
void test_slowdown() {
  const char* e = std::getenv("PFPL_NET_TEST_SLOW_US");
  if (e && e[0] != '\0') {
    const long us = std::atol(e);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

/// Test-only crash: PFPL_NET_TEST_CRASH_AFTER=N raises SIGSEGV inside the
/// worker handling the Nth COMPRESS/DECOMPRESS request — the CI induced-crash
/// smoke uses this to exercise the crash-report path on a serving pfpld.
/// Unset in production; the counter only exists when the env var is set.
void test_crash() {
  static const char* e = std::getenv("PFPL_NET_TEST_CRASH_AFTER");
  if (!e || e[0] == '\0') return;
  static std::atomic<long> seen{0};
  const long n = std::atol(e);
  if (n > 0 && seen.fetch_add(1, std::memory_order_relaxed) + 1 >= n)
    ::raise(SIGSEGV);
}

struct Connection {
  u64 id = 0;
  Socket sock;
  FrameParser parser;
  std::deque<Bytes> outq;       ///< response buffers awaiting the socket
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
  Bytes frame;                ///< encoded response (success or error)
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
  u64 total_us = 0;  ///< dispatch -> completion processed on the loop
  u64 wait_us = 0;   ///< dispatch -> worker start (pool queue + scheduling)
  u64 work_us = 0;   ///< worker compute time
};

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
  bool draining = false;
  u64 drain_deadline_ns = 0;
  u64 start_ns = now_ns();

  /// Readiness backend, alive only while run() is on the loop thread.
  std::unique_ptr<Poller> poller;
  /// EMFILE headroom: one fd held in reserve so an exhausted server can
  /// still accept-and-close the pending connection instead of leaving it
  /// dangling in the backlog (see shed_accept()).
  int reserve_fd = -1;

  /// Cluster identity. `map` null = not clustered. Written on the loop
  /// thread (SHARDMAP adoption) or via set_cluster(); read by workers as an
  /// immutable snapshot, so the mutex only covers the pointer swap.
  mutable std::mutex map_m;
  std::shared_ptr<const cluster::ShardMap> map;
  int self_index = -1;
  std::string node_id;

  std::atomic<bool> stop_requested{false};
  std::mutex comp_m;
  std::vector<Completion> completions;

  /// Temporal frame sessions. The mutex covers the map; per-session state is
  /// guarded by each session's own lock (workers encode under it).
  mutable std::mutex sess_m;
  std::map<u64, std::shared_ptr<StreamSession>> sessions;
  u64 next_session_id = 1;
  u64 last_session_sweep_ns = 0;

  /// Slow-request ring, sorted by total_us descending, capped at
  /// opts.slow_capacity. Written on the loop thread; the mutex covers
  /// external stats_json()/metrics_json() readers.
  mutable std::mutex slow_m;
  std::vector<SlowRequest> slow;

  // Always-live service counters (the STATS op's source of truth).
  struct {
    std::atomic<u64> connections_accepted{0}, connections_current{0};
    std::atomic<u64> frames_rx{0}, frames_tx{0}, bytes_rx{0}, bytes_tx{0};
    std::atomic<u64> requests_compress{0}, requests_decompress{0}, requests_other{0};
    std::atomic<u64> errors{0}, store_hits{0}, store_misses{0};
    std::atomic<u64> inflight_bytes{0}, peak_inflight_bytes{0};
    std::atomic<u64> slow_requests{0}, metrics_scrapes{0};
    std::atomic<u64> accept_overloads{0};
    std::atomic<u64> wrong_shard{0}, map_exchanges{0}, map_adopted{0}, health_checks{0};
    std::atomic<u64> sessions_opened{0}, sessions_closed{0}, sessions_evicted{0};
    std::atomic<u64> stream_frames{0};
    std::atomic<bool> draining{false};
  } st;

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
    pool = std::make_unique<svc::ThreadPool>(o.threads, o.queue_capacity);
    if (!o.shard_map.empty()) install_map(o.shard_map, o.node_id);
  }

  ~Impl() {
    // Join the workers BEFORE the wake pipe closes — a late completion's
    // wake() must hit our pipe, not whatever fd number got recycled.
    pool.reset();
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
    if (reserve_fd >= 0) ::close(reserve_fd);
  }

  // -- cluster membership ---------------------------------------------------

  /// Everything a worker needs to answer the ownership question, captured
  /// atomically (map pointer + the node's index and id under that map).
  struct ClusterView {
    std::shared_ptr<const cluster::ShardMap> map;
    int self = -1;
    std::string node_id;
  };

  ClusterView cluster_view() const {
    std::lock_guard<std::mutex> lk(map_m);
    return ClusterView{map, self_index, node_id};
  }

  /// Adopt `m` as this node's shard map. An empty node-id hint resolves by
  /// matching the bound port against the map (the common single-host case);
  /// throws NetError when nothing or more than one node matches.
  void install_map(const cluster::ShardMap& m, const std::string& node_id_hint) {
    std::string nid = node_id_hint;
    if (nid.empty()) {
      const u16 p = local_port(listen);
      int match = -1;
      for (std::size_t i = 0; i < m.nodes().size(); ++i) {
        if (m.nodes()[i].port != p) continue;
        if (match >= 0)
          throw NetError("net: several shard-map nodes listen on port " +
                         std::to_string(p) + "; pass an explicit node id");
        match = static_cast<int>(i);
      }
      if (match < 0)
        throw NetError("net: no shard-map node listens on port " + std::to_string(p) +
                       "; pass an explicit node id");
      nid = m.nodes()[static_cast<std::size_t>(match)].id;
    } else if (m.find_node(nid) < 0) {
      throw NetError("net: node id '" + nid + "' is not in the shard map");
    }
    std::lock_guard<std::mutex> lk(map_m);
    map = std::make_shared<cluster::ShardMap>(m);
    node_id = nid;
    self_index = map->find_node(nid);
  }

  void wake() {
    const char b = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    [[maybe_unused]] ssize_t rc = ::write(wake_w, &b, 1);
  }

  Stats snapshot() const {
    Stats out;
    out.connections_accepted = st.connections_accepted.load(std::memory_order_relaxed);
    out.connections_current = st.connections_current.load(std::memory_order_relaxed);
    out.frames_rx = st.frames_rx.load(std::memory_order_relaxed);
    out.frames_tx = st.frames_tx.load(std::memory_order_relaxed);
    out.bytes_rx = st.bytes_rx.load(std::memory_order_relaxed);
    out.bytes_tx = st.bytes_tx.load(std::memory_order_relaxed);
    out.requests_compress = st.requests_compress.load(std::memory_order_relaxed);
    out.requests_decompress = st.requests_decompress.load(std::memory_order_relaxed);
    out.requests_other = st.requests_other.load(std::memory_order_relaxed);
    out.errors = st.errors.load(std::memory_order_relaxed);
    out.store_hits = st.store_hits.load(std::memory_order_relaxed);
    out.store_misses = st.store_misses.load(std::memory_order_relaxed);
    out.inflight_bytes = st.inflight_bytes.load(std::memory_order_relaxed);
    out.peak_inflight_bytes = st.peak_inflight_bytes.load(std::memory_order_relaxed);
    out.slow_requests = st.slow_requests.load(std::memory_order_relaxed);
    out.metrics_scrapes = st.metrics_scrapes.load(std::memory_order_relaxed);
    out.accept_overloads = st.accept_overloads.load(std::memory_order_relaxed);
    out.wrong_shard = st.wrong_shard.load(std::memory_order_relaxed);
    out.map_exchanges = st.map_exchanges.load(std::memory_order_relaxed);
    out.map_adopted = st.map_adopted.load(std::memory_order_relaxed);
    out.health_checks = st.health_checks.load(std::memory_order_relaxed);
    out.sessions_opened = st.sessions_opened.load(std::memory_order_relaxed);
    out.sessions_closed = st.sessions_closed.load(std::memory_order_relaxed);
    out.sessions_evicted = st.sessions_evicted.load(std::memory_order_relaxed);
    out.stream_frames = st.stream_frames.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(sess_m);
      out.sessions_current = sessions.size();
    }
    out.draining = st.draining.load(std::memory_order_relaxed);
    return out;
  }

  // -- temporal sessions ----------------------------------------------------

  std::shared_ptr<StreamSession> find_session(u64 sid) const {
    std::lock_guard<std::mutex> lk(sess_m);
    auto it = sessions.find(sid);
    return it == sessions.end() ? nullptr : it->second;
  }

  void note_sessions_gauge() {
    std::size_t n;
    {
      std::lock_guard<std::mutex> lk(sess_m);
      n = sessions.size();
    }
    TemporalMetrics::get().sessions.set(static_cast<long long>(n));
  }

  /// Evict sessions idle past opts.session_idle_ms (loop thread, time-gated
  /// to one sweep per ~500 ms).
  void evict_idle_sessions() {
    if (opts.session_idle_ms <= 0) return;
    const u64 now = now_ns();
    if (now - last_session_sweep_ns < 500'000'000ull) return;
    last_session_sweep_ns = now;
    const u64 limit = static_cast<u64>(opts.session_idle_ms) * 1'000'000ull;
    std::size_t evicted = 0;
    {
      std::lock_guard<std::mutex> lk(sess_m);
      for (auto it = sessions.begin(); it != sessions.end();) {
        const u64 last = it->second->last_active_ns.load(std::memory_order_relaxed);
        if (now - last > limit) {
          it = sessions.erase(it);
          ++evicted;
        } else {
          ++it;
        }
      }
    }
    if (evicted) {
      st.sessions_evicted.fetch_add(evicted, std::memory_order_relaxed);
      TemporalMetrics::get().sessions_evicted.add(evicted);
      note_sessions_gauge();
    }
  }

  /// Drain: every live session dies (counted as evicted); later frames get
  /// BadSession, new opens get Draining.
  void kill_all_sessions() {
    std::size_t killed = 0;
    {
      std::lock_guard<std::mutex> lk(sess_m);
      killed = sessions.size();
      sessions.clear();
    }
    if (killed) {
      st.sessions_evicted.fetch_add(killed, std::memory_order_relaxed);
      TemporalMetrics::get().sessions_evicted.add(killed);
      note_sessions_gauge();
    }
  }

  /// Per-session STATS rows (id, frame counts, age/idle).
  std::string sessions_json() const {
    std::vector<std::shared_ptr<StreamSession>> snap;
    {
      std::lock_guard<std::mutex> lk(sess_m);
      snap.reserve(sessions.size());
      for (const auto& [id, s] : sessions) snap.push_back(s);
    }
    const u64 now = now_ns();
    obs::JsonWriter w;
    w.begin_array();
    for (const auto& s : snap) {
      w.begin_object();
      w.kv("id", static_cast<unsigned long long>(s->id));
      w.kv("dtype", repro::to_string(s->cfg.dtype));
      w.kv("eb", repro::to_string(s->cfg.eb));
      w.kv("eps", s->cfg.eps);
      w.kv("frame_values", static_cast<unsigned long long>(s->cfg.frame_values()));
      w.kv("keyframe_interval",
           static_cast<unsigned long long>(s->cfg.keyframe_interval));
      w.kv("frames", static_cast<unsigned long long>(
                         s->frames.load(std::memory_order_relaxed)));
      w.kv("iframes", static_cast<unsigned long long>(
                          s->iframes.load(std::memory_order_relaxed)));
      w.kv("pframes", static_cast<unsigned long long>(
                          s->pframes.load(std::memory_order_relaxed)));
      w.kv("age_s", static_cast<double>(now - s->created_ns) / 1e9);
      w.kv("idle_s",
           static_cast<double>(now - s->last_active_ns.load(std::memory_order_relaxed)) /
               1e9);
      w.end_object();
    }
    w.end_array();
    return w.take();
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
    w.kv("max_frame_payload",
         static_cast<unsigned long long>(opts.max_frame_payload));
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
    w.key("slow_requests").raw(slow_json());
    if (opts.store) {
      w.kv("store_hits", static_cast<unsigned long long>(s.store_hits));
      w.kv("store_misses", static_cast<unsigned long long>(s.store_misses));
      w.key("store").raw(opts.store->stats_json());
    }
    w.key("sessions");
    w.begin_object();
    w.kv("current", static_cast<unsigned long long>(s.sessions_current));
    w.kv("opened", static_cast<unsigned long long>(s.sessions_opened));
    w.kv("closed", static_cast<unsigned long long>(s.sessions_closed));
    w.kv("evicted", static_cast<unsigned long long>(s.sessions_evicted));
    w.kv("stream_frames", static_cast<unsigned long long>(s.stream_frames));
    w.kv("max_sessions", static_cast<unsigned long long>(opts.max_sessions));
    w.kv("session_idle_ms", opts.session_idle_ms);
    w.key("rows").raw(sessions_json());
    w.end_object();
    const ClusterView cv = cluster_view();
    if (cv.map) {
      w.key("cluster");
      w.begin_object();
      w.kv("cluster_id", cv.map->cluster_id());
      w.kv("node_id", cv.node_id);
      w.kv("epoch", static_cast<unsigned long long>(cv.map->epoch()));
      w.kv("nodes", static_cast<unsigned long long>(cv.map->size()));
      w.kv("replicas", static_cast<unsigned long long>(cv.map->replicas()));
      w.kv("vnodes", static_cast<unsigned long long>(cv.map->vnodes()));
      w.kv("self_index", cv.self);
      w.kv("wrong_shard", static_cast<unsigned long long>(s.wrong_shard));
      w.kv("map_exchanges", static_cast<unsigned long long>(s.map_exchanges));
      w.kv("map_adopted", static_cast<unsigned long long>(s.map_adopted));
      w.kv("health_checks", static_cast<unsigned long long>(s.health_checks));
      w.end_object();
    }
    w.end_object();
    return w.take();
  }

  /// The HEALTH-op payload: a liveness + load snapshot small enough for a
  /// failover decision on every request. Served even when not clustered
  /// (cluster fields are empty/zero) so it doubles as a plain probe.
  std::string health_json() const {
    const Stats s = snapshot();
    const ClusterView cv = cluster_view();
    obs::JsonWriter w;
    w.begin_object();
    w.kv("node_id", cv.node_id);
    w.kv("cluster_id", cv.map ? cv.map->cluster_id() : "");
    w.kv("epoch", static_cast<unsigned long long>(cv.map ? cv.map->epoch() : 0));
    w.kv("draining", s.draining);
    w.kv("uptime_s", static_cast<double>(now_ns() - start_ns) / 1e9);
    w.kv("connections_current", static_cast<unsigned long long>(s.connections_current));
    w.kv("inflight_bytes", static_cast<unsigned long long>(s.inflight_bytes));
    w.kv("requests",
         static_cast<unsigned long long>(s.requests_compress + s.requests_decompress));
    w.kv("errors", static_cast<unsigned long long>(s.errors));
    w.end_object();
    return w.take();
  }

  /// The slow-request ring as a JSON array, slowest first.
  std::string slow_json() const {
    std::lock_guard<std::mutex> lk(slow_m);
    obs::JsonWriter w;
    w.begin_array();
    for (const SlowRequest& s : slow) {
      w.begin_object();
      w.kv("request_id", static_cast<unsigned long long>(s.request_id));
      w.kv("conn", static_cast<unsigned long long>(s.conn_id));
      w.kv("op", to_string(static_cast<Op>(s.op)));
      w.kv("dtype", static_cast<unsigned long long>(s.dtype));
      w.kv("payload_bytes", static_cast<unsigned long long>(s.payload_bytes));
      w.kv("total_us", static_cast<unsigned long long>(s.total_us));
      w.kv("wait_us", static_cast<unsigned long long>(s.wait_us));
      w.kv("work_us", static_cast<unsigned long long>(s.work_us));
      w.end_object();
    }
    w.end_array();
    return w.take();
  }

  /// The METRICS-op JSON document: registry + live stats + slow ring.
  std::string metrics_doc() const {
    const std::string extra =
        "\"stats\":" + stats_json() + ",\"slow_requests\":" + slow_json();
    return obs::metrics_json_doc(extra);
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
    st.slow_requests.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().slow_requests.add(1);
    {
      std::lock_guard<std::mutex> lk(slow_m);
      auto pos = std::lower_bound(
          slow.begin(), slow.end(), s,
          [](const SlowRequest& a, const SlowRequest& b) {
            return a.total_us > b.total_us;  // descending
          });
      if (pos == slow.end() && slow.size() >= opts.slow_capacity) {
        // Slower entries already fill the ring.
      } else {
        slow.insert(pos, s);
        if (slow.size() > opts.slow_capacity) slow.pop_back();
      }
    }
    obs::EventLog& log = obs::EventLog::global();
    if (log.would_log(obs::LogLevel::Warn)) {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("request_id", static_cast<unsigned long long>(s.request_id));
      w.kv("conn", static_cast<unsigned long long>(s.conn_id));
      w.kv("op", to_string(static_cast<Op>(s.op)));
      w.kv("dtype", static_cast<unsigned long long>(s.dtype));
      w.kv("payload_bytes", static_cast<unsigned long long>(s.payload_bytes));
      w.kv("total_us", static_cast<unsigned long long>(s.total_us));
      w.kv("wait_us", static_cast<unsigned long long>(s.wait_us));
      w.kv("work_us", static_cast<unsigned long long>(s.work_us));
      w.end_object();
      log.emit(obs::LogLevel::Warn, "slow_request", w.take());
    }
  }

  /// Per-request store outcome, from worker threads (atomics only).
  void note_store_lookup(const store::ChunkStore* cs, bool hit) {
    if (!cs) return;
    NetMetrics& m = NetMetrics::get();
    if (hit) {
      st.store_hits.fetch_add(1, std::memory_order_relaxed);
      m.store_hits.add(1);
    } else {
      st.store_misses.fetch_add(1, std::memory_order_relaxed);
      m.store_misses.add(1);
    }
  }

  // -- in-flight accounting ------------------------------------------------

  void inflight_add(Connection& c, std::size_t n) {
    c.inflight += n;
    const u64 total = st.inflight_bytes.fetch_add(n, std::memory_order_relaxed) + n;
    u64 peak = st.peak_inflight_bytes.load(std::memory_order_relaxed);
    while (total > peak &&
           !st.peak_inflight_bytes.compare_exchange_weak(peak, total,
                                                         std::memory_order_relaxed)) {
    }
    NetMetrics::get().inflight_bytes.set(static_cast<long long>(total));
  }

  void inflight_release(Connection& c, std::size_t n) {
    c.inflight -= std::min(n, c.inflight);
    const u64 total = st.inflight_bytes.fetch_sub(n, std::memory_order_relaxed) - n;
    NetMetrics::get().inflight_bytes.set(static_cast<long long>(total));
  }

  bool paused(const Connection& c) const {
    return !c.deferred.empty() || c.inflight >= opts.max_inflight_bytes;
  }

  // -- responses -----------------------------------------------------------

  void queue_response(Connection& c, Bytes frame, bool is_error) {
    st.frames_tx.fetch_add(1, std::memory_order_relaxed);
    if (is_error) st.errors.fetch_add(1, std::memory_order_relaxed);
    NetMetrics& m = NetMetrics::get();
    m.frames_tx.add(1);
    if (is_error) m.errors.add(1);
    c.outq.push_back(std::move(frame));
  }

  void queue_error(Connection& c, u64 request_id, u8 op, Status stc,
                   const std::string& text) {
    queue_response(c, encode_error_frame(request_id, op, stc, text), /*is_error=*/true);
  }

  /// Flush as much of the out-queue as the socket accepts right now.
  void flush_out(Connection& c) {
    while (!c.outq.empty()) {
      Bytes& front = c.outq.front();
      while (c.out_off < front.size()) {
        const ssize_t rc = ::send(c.sock.fd(), front.data() + c.out_off,
                                  front.size() - c.out_off, MSG_NOSIGNAL);
        if (rc > 0) {
          c.out_off += static_cast<std::size_t>(rc);
          st.bytes_tx.fetch_add(static_cast<u64>(rc), std::memory_order_relaxed);
          NetMetrics::get().bytes_tx.add(static_cast<u64>(rc));
          continue;
        }
        if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (rc < 0 && errno == EINTR) continue;
        // Peer vanished: drop the queue; the close logic reaps the conn.
        c.outq.clear();
        c.out_off = 0;
        c.no_read = true;
        return;
      }
      c.outq.pop_front();
      c.out_off = 0;
    }
  }

  // -- request handling ----------------------------------------------------

  void dispatch(Connection& c, Frame&& f) {
    if (f.header.base_op() == static_cast<u8>(Op::StreamFrame)) {
      // Deferred frames come back through dispatch() (pump's un-park path),
      // so the stream branch lives here, not in handle_frame.
      dispatch_stream(c, std::move(f));
      return;
    }
    const FrameHeader h = f.header;
    const std::size_t n = f.payload.size();
    inflight_add(c, n);
    NetMetrics::get().requests.add(1);
    auto payload = std::make_shared<Bytes>(std::move(f.payload));
    const pfpl::Executor exec = opts.exec;
    store::ChunkStore* cs = opts.store.get();  // opts outlives the pool
    const u64 conn_id = c.id;
    const u64 t0 = now_ns();
    ClusterView cv = cluster_view();  // immutable snapshot for the worker
    Impl* self = this;
    // The submit below runs under handle_frame's TraceContext scope, so the
    // pool captures h.request_id into the task and re-installs it around
    // execution — every span the worker opens is tagged with the request.
    pool->submit([self, payload, h, exec, cs, conn_id, t0, n, cv = std::move(cv)] {
      Completion comp;
      comp.conn_id = conn_id;
      comp.release = n;
      comp.t0_ns = t0;
      comp.work_start_ns = now_ns();
      comp.request_id = h.request_id;
      comp.op = h.base_op();
      comp.dtype = h.dtype;
      // Belt and braces: tag the worker explicitly too, so the request
      // scoping survives even if the task ran on a path that did not thread
      // the pool's captured context (e.g. obs was flipped on mid-request).
      obs::TraceContext::Scope trace_ctx(h.request_id);
      obs::ScopedSpan work_span(h.base_op() == static_cast<u8>(Op::Compress)
                                    ? "net.work.compress"
                                    : "net.work.decompress");
      try {
        test_slowdown();
        test_crash();
        if (cv.map) {
          // Cluster mode: answer only for keys this node owns under its
          // current map epoch. Refusals are cheap (one hash over the
          // payload) and typed, so a stale client can recover by
          // refetching the map instead of polluting the wrong shard.
          const common::Hash128 key =
              h.base_op() == static_cast<u8>(Op::Compress)
                  ? store::compress_key(payload->data(), payload->size(),
                                        static_cast<DType>(h.dtype),
                                        static_cast<EbType>(h.eb_type), h.eps)
                  : store::decompress_key(payload->data(), payload->size());
          if (!cv.map->owns(key, cv.self)) {
            self->st.wrong_shard.fetch_add(1, std::memory_order_relaxed);
            ClusterMetrics::get().wrong_shard.add(1);
            throw WrongShardError("key " + key.hex() + " is not owned by node '" +
                                  cv.node_id + "' at shard-map epoch " +
                                  std::to_string(cv.map->epoch()));
          }
        }
        if (h.base_op() == static_cast<u8>(Op::Compress)) {
          // COMPRESS with --store goes through the ingest dedup probe: a
          // duplicate payload answers straight from the store (byte-identical
          // by key construction) and skips the compressor entirely.
          Bytes stream;
          common::Hash128 key{};
          bool hit = false;
          if (cs) {
            const ingest::ProbeResult pr = ingest::probe_compress(
                *cs, payload->data(), payload->size(), static_cast<DType>(h.dtype),
                static_cast<EbType>(h.eb_type), h.eps, stream);
            key = pr.key;
            hit = pr.hit;
          }
          if (!hit) {
            Field field = h.dtype == static_cast<u8>(DType::F64)
                              ? Field(reinterpret_cast<const double*>(payload->data()),
                                      payload->size() / 8)
                              : Field(reinterpret_cast<const float*>(payload->data()),
                                      payload->size() / 4);
            pfpl::Params params{h.eps, static_cast<EbType>(h.eb_type), exec};
            stream = pfpl::compress(field, params);
            if (cs)
              cs->put(key, stream,
                      store::ChunkMeta{static_cast<DType>(h.dtype),
                                       static_cast<EbType>(h.eb_type), h.eps,
                                       payload->size()});
          }
          self->note_store_lookup(cs, hit);
          FrameHeader rh;
          rh.op = h.op | kResponseBit;
          rh.request_id = h.request_id;
          rh.dtype = h.dtype;
          rh.eb_type = h.eb_type;
          rh.eps = h.eps;
          comp.frame = encode_frame(rh, stream);
        } else {
          pfpl::Header sh = pfpl::peek_header(*payload);
          const common::Hash128 key =
              cs ? store::decompress_key(payload->data(), payload->size())
                 : common::Hash128{};
          Bytes raw;
          const bool hit = cs && cs->get(key, raw);
          if (!hit) {
            raw = pfpl::decompress(*payload, exec);
            if (cs)
              cs->put(key, raw,
                      store::ChunkMeta{sh.dtype, sh.eb_type, sh.eps, raw.size()});
          }
          self->note_store_lookup(cs, hit);
          FrameHeader rh;
          rh.op = h.op | kResponseBit;
          rh.request_id = h.request_id;
          rh.dtype = static_cast<u8>(sh.dtype);
          rh.eb_type = static_cast<u8>(sh.eb_type);
          rh.eps = sh.eps;
          comp.frame = encode_frame(rh, raw.data(), raw.size());
        }
      } catch (const WrongShardError& e) {
        comp.frame =
            encode_error_frame(h.request_id, h.op, Status::WrongShard, e.what());
        comp.is_error = true;
      } catch (const std::exception& e) {
        comp.frame = encode_error_frame(h.request_id, h.op, Status::CompressFailed,
                                        e.what());
        comp.is_error = true;
      }
      comp.work_ns = now_ns() - comp.work_start_ns;
      {
        std::lock_guard<std::mutex> lk(self->comp_m);
        self->completions.push_back(std::move(comp));
      }
      self->wake();
    });
  }

  /// STREAM_FRAME: resolve the session on the loop thread (it may have been
  /// idle-evicted while the frame was parked), then encode on the pool.
  /// Frames of one session serialize on the session mutex; distinct sessions
  /// encode concurrently.
  void dispatch_stream(Connection& c, Frame&& f) {
    const FrameHeader h = f.header;
    const std::size_t n = f.payload.size();
    const u64 sid = rd_le64(f.payload.data());
    std::shared_ptr<StreamSession> sess = find_session(sid);
    if (!sess) {
      queue_error(c, h.request_id, h.op, Status::BadSession,
                  "unknown session " + std::to_string(sid) +
                      " (evicted or never opened) — reopen and resume");
      return;
    }
    if (n != 16 + sess->cfg.frame_bytes()) {
      queue_error(c, h.request_id, h.op, Status::BadParams,
                  "frame payload is " + std::to_string(n - 16) + " bytes, session " +
                      std::to_string(sid) + " expects " +
                      std::to_string(sess->cfg.frame_bytes()));
      return;
    }
    inflight_add(c, n);
    st.stream_frames.fetch_add(1, std::memory_order_relaxed);
    TemporalMetrics::get().stream_frames.add(1);
    NetMetrics::get().requests.add(1);
    auto payload = std::make_shared<Bytes>(std::move(f.payload));
    const u64 conn_id = c.id;
    const u64 t0 = now_ns();
    Impl* self = this;
    pool->submit([self, payload, h, sess = std::move(sess), conn_id, t0, n] {
      Completion comp;
      comp.conn_id = conn_id;
      comp.release = n;
      comp.t0_ns = t0;
      comp.work_start_ns = now_ns();
      comp.request_id = h.request_id;
      comp.op = h.base_op();
      comp.dtype = static_cast<u8>(sess->cfg.dtype);
      obs::TraceContext::Scope trace_ctx(h.request_id);
      obs::ScopedSpan work_span("net.work.stream_frame");
      const u64 fidx = rd_le64(payload->data() + 8);
      try {
        test_slowdown();
        std::lock_guard<std::mutex> lk(sess->m);
        if (sess->started && fidx != sess->expected_index)
          throw CompressionError("out-of-order frame index " + std::to_string(fidx) +
                                 " (session expects " +
                                 std::to_string(sess->expected_index) + ")");
        Field field = sess->cfg.dtype == DType::F64
                          ? Field(reinterpret_cast<const double*>(payload->data() + 16),
                                  sess->cfg.frame_values())
                          : Field(reinterpret_cast<const float*>(payload->data() + 16),
                                  sess->cfg.frame_values());
        const temporal::EncodedFrame ef = sess->enc.encode(field, fidx);
        sess->started = true;
        sess->expected_index = fidx + 1;
        sess->last_active_ns.store(now_ns(), std::memory_order_relaxed);
        sess->frames.fetch_add(1, std::memory_order_relaxed);
        (ef.type == temporal::FrameType::Intra ? sess->iframes : sess->pframes)
            .fetch_add(1, std::memory_order_relaxed);
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        rh.dtype = static_cast<u8>(sess->cfg.dtype);
        rh.eb_type = static_cast<u8>(sess->cfg.eb);
        rh.eps = sess->cfg.eps;
        comp.frame = encode_frame(rh, temporal::encode_frame_record(ef));
      } catch (const std::exception& e) {
        comp.frame = encode_error_frame(h.request_id, h.op, Status::CompressFailed,
                                        e.what());
        comp.is_error = true;
      }
      comp.work_ns = now_ns() - comp.work_start_ns;
      {
        std::lock_guard<std::mutex> lk(self->comp_m);
        self->completions.push_back(std::move(comp));
      }
      self->wake();
    });
  }

  /// Admit a validated COMPRESS/DECOMPRESS request against the per-conn
  /// budget: dispatch now, or park it (which pauses reads) until in-flight
  /// bytes drop. An oversized single request is admitted alone.
  void admit(Connection& c, Frame&& f) {
    const std::size_t n = f.payload.size();
    if (!c.deferred.empty() ||
        (c.inflight != 0 && c.inflight + n > opts.max_inflight_bytes)) {
      c.deferred.push_back(std::move(f));
      return;
    }
    dispatch(c, std::move(f));
  }

  void handle_frame(Connection& c, Frame&& f) {
    const FrameHeader& h = f.header;
    // Request-scoped tracing starts here: everything on the loop (validation,
    // dispatch/enqueue) and — via the pool's context capture — everything in
    // the worker runs under this request id.
    obs::TraceContext::Scope trace_ctx(h.request_id);
    OBS_SPAN("net.handle_frame");
    st.frames_rx.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().frames_rx.add(1);
    if (h.is_response() || h.status != 0) {
      queue_error(c, h.request_id, h.op, Status::BadFrame,
                  "expected a request frame");
      return;
    }
    switch (static_cast<Op>(h.base_op())) {
      case Op::Ping: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, f.payload), /*is_error=*/false);
        return;
      }
      case Op::Stats: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        const std::string json = stats_json();
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, json.data(), json.size()),
                       /*is_error=*/false);
        return;
      }
      case Op::Shutdown: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, nullptr, 0), /*is_error=*/false);
        begin_drain();
        return;
      }
      case Op::Metrics: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        const std::string fmt(f.payload.begin(), f.payload.end());
        std::string doc;
        if (fmt == "prom") {
          doc = obs::prometheus_text();
        } else if (fmt.empty() || fmt == "json") {
          doc = metrics_doc();
        } else if (fmt == "history") {
          doc = obs::FlightRecorder::global().history_json();
        } else {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "unknown metrics format '" + fmt + "'");
          return;
        }
        st.metrics_scrapes.fetch_add(1, std::memory_order_relaxed);
        NetMetrics::get().metrics_scrapes.add(1);
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, doc.data(), doc.size()),
                       /*is_error=*/false);
        return;
      }
      case Op::ShardMap: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        ClusterView cv = cluster_view();
        if (!cv.map) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "server is not in a cluster");
          return;
        }
        if (!f.payload.empty()) {
          // Exchange: the caller sent its own map. Adopt it when it is a
          // newer generation of the same cluster; either way the response
          // below carries our (possibly just-updated) map.
          cluster::ShardMap theirs;
          try {
            theirs = cluster::ShardMap::parse(f.payload);
          } catch (const CompressionError& e) {
            queue_error(c, h.request_id, h.op, Status::BadParams, e.what());
            return;
          }
          if (theirs.cluster_id() != cv.map->cluster_id()) {
            queue_error(c, h.request_id, h.op, Status::BadParams,
                        "cluster id mismatch ('" + theirs.cluster_id() + "' vs '" +
                            cv.map->cluster_id() + "')");
            return;
          }
          bool adopted = false;
          u64 old_epoch = 0;
          {
            std::lock_guard<std::mutex> lk(map_m);
            if (theirs.epoch() > map->epoch()) {
              old_epoch = map->epoch();
              map = std::make_shared<cluster::ShardMap>(std::move(theirs));
              self_index = map->find_node(node_id);
              adopted = true;
            }
            cv.map = map;
            cv.self = self_index;
          }
          if (adopted) {
            st.map_adopted.fetch_add(1, std::memory_order_relaxed);
            ClusterMetrics::get().map_adopted.add(1);
            obs::EventLog& log = obs::EventLog::global();
            if (log.would_log(obs::LogLevel::Info)) {
              obs::JsonWriter w;
              w.begin_object();
              w.kv("epoch_old", static_cast<unsigned long long>(old_epoch));
              w.kv("epoch_new", static_cast<unsigned long long>(cv.map->epoch()));
              w.kv("nodes", static_cast<unsigned long long>(cv.map->size()));
              w.kv("self_index", cv.self);
              w.end_object();
              log.emit(obs::LogLevel::Info, "shard_map_adopted", w.take());
            }
          }
        }
        st.map_exchanges.fetch_add(1, std::memory_order_relaxed);
        ClusterMetrics::get().map_exchanges.add(1);
        const Bytes body = cv.map->serialize();
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, body), /*is_error=*/false);
        return;
      }
      case Op::Health: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        st.health_checks.fetch_add(1, std::memory_order_relaxed);
        ClusterMetrics::get().health_checks.add(1);
        const std::string json = health_json();
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, json.data(), json.size()),
                       /*is_error=*/false);
        return;
      }
      case Op::Compress: {
        if (draining) {
          queue_error(c, h.request_id, h.op, Status::Draining, "server is draining");
          return;
        }
        if (h.dtype > 1 || h.eb_type > 2) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "unknown dtype/eb_type");
          return;
        }
        const std::size_t scalar = dtype_size(static_cast<DType>(h.dtype));
        if (f.payload.empty() || f.payload.size() % scalar != 0) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "payload size is not a positive multiple of the scalar size");
          return;
        }
        if (!std::isfinite(h.eps)) {
          queue_error(c, h.request_id, h.op, Status::BadParams, "eps is not finite");
          return;
        }
        st.requests_compress.fetch_add(1, std::memory_order_relaxed);
        admit(c, std::move(f));
        return;
      }
      case Op::Decompress: {
        if (draining) {
          queue_error(c, h.request_id, h.op, Status::Draining, "server is draining");
          return;
        }
        if (f.payload.empty()) {
          queue_error(c, h.request_id, h.op, Status::BadParams, "empty stream");
          return;
        }
        st.requests_decompress.fetch_add(1, std::memory_order_relaxed);
        admit(c, std::move(f));
        return;
      }
      case Op::StreamOpen: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        if (draining) {
          queue_error(c, h.request_id, h.op, Status::Draining, "server is draining");
          return;
        }
        if (f.payload.size() != 16) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "STREAM_OPEN payload must be 16 bytes (3x u32 dims + u32 "
                      "keyframe_interval)");
          return;
        }
        if (h.dtype > 1 || h.eb_type > 2 || !std::isfinite(h.eps)) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "unknown dtype/eb_type or non-finite eps");
          return;
        }
        temporal::SessionConfig cfg;
        cfg.dtype = static_cast<DType>(h.dtype);
        cfg.eb = static_cast<EbType>(h.eb_type);
        cfg.eps = h.eps;
        for (int d = 0; d < 3; ++d)
          cfg.dims[static_cast<std::size_t>(d)] = rd_le32(f.payload.data() + 4 * d);
        cfg.keyframe_interval = rd_le32(f.payload.data() + 12);
        cfg.exec = opts.exec;
        u64 sid = 0;
        {
          std::lock_guard<std::mutex> lk(sess_m);
          if (opts.max_sessions && sessions.size() >= opts.max_sessions) {
            queue_error(c, h.request_id, h.op, Status::SessionLimit,
                        "session limit of " + std::to_string(opts.max_sessions) +
                            " reached");
            return;
          }
          sid = next_session_id++;
          try {
            sessions.emplace(
                sid, std::make_shared<StreamSession>(sid, cfg, now_ns()));
          } catch (const CompressionError& e) {
            // FrameEncoder's config validation (zero frame, eps below the
            // dtype's min normal under ABS, ...).
            queue_error(c, h.request_id, h.op, Status::BadParams, e.what());
            return;
          }
        }
        st.sessions_opened.fetch_add(1, std::memory_order_relaxed);
        TemporalMetrics::get().sessions_opened.add(1);
        note_sessions_gauge();
        u8 body[8];
        for (int i = 0; i < 8; ++i) body[i] = static_cast<u8>(sid >> (8 * i));
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        rh.dtype = h.dtype;
        rh.eb_type = h.eb_type;
        rh.eps = h.eps;
        queue_response(c, encode_frame(rh, body, sizeof body), /*is_error=*/false);
        return;
      }
      case Op::StreamFrame: {
        if (draining) {
          queue_error(c, h.request_id, h.op, Status::Draining, "server is draining");
          return;
        }
        if (f.payload.size() < 16) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "STREAM_FRAME payload must carry u64 session id + u64 "
                      "frame index + raw scalars");
          return;
        }
        admit(c, std::move(f));  // admit() -> dispatch() routes to dispatch_stream
        return;
      }
      case Op::StreamClose: {
        st.requests_other.fetch_add(1, std::memory_order_relaxed);
        if (f.payload.size() != 8) {
          queue_error(c, h.request_id, h.op, Status::BadParams,
                      "STREAM_CLOSE payload must be a u64 session id");
          return;
        }
        const u64 sid = rd_le64(f.payload.data());
        bool erased = false;
        {
          std::lock_guard<std::mutex> lk(sess_m);
          erased = sessions.erase(sid) != 0;
        }
        if (erased) {
          st.sessions_closed.fetch_add(1, std::memory_order_relaxed);
          TemporalMetrics::get().sessions_closed.add(1);
          note_sessions_gauge();
        }
        // Idempotent: closing an unknown/already-evicted session is Ok.
        FrameHeader rh;
        rh.op = h.op | kResponseBit;
        rh.request_id = h.request_id;
        queue_response(c, encode_frame(rh, nullptr, 0), /*is_error=*/false);
        return;
      }
    }
    queue_error(c, h.request_id, h.op, Status::BadFrame,
                "unsupported op " + std::to_string(h.base_op()));
  }

  /// Parse and handle every complete frame buffered on the connection,
  /// stopping early when backpressure parks it.
  void pump(Connection& c) {
    // Budget freed? Un-park deferred requests first, oldest first.
    while (!c.deferred.empty() &&
           (c.inflight == 0 ||
            c.inflight + c.deferred.front().payload.size() <= opts.max_inflight_bytes)) {
      if (draining) {
        Frame f = std::move(c.deferred.front());
        c.deferred.pop_front();
        queue_error(c, f.header.request_id, f.header.op, Status::Draining,
                    "server is draining");
        continue;
      }
      Frame f = std::move(c.deferred.front());
      c.deferred.pop_front();
      dispatch(c, std::move(f));
    }
    while (!paused(c)) {
      Frame f;
      const FrameParser::Result r = c.parser.next(f);
      if (r == FrameParser::Result::NeedMore) break;
      if (r == FrameParser::Result::Ready) {
        handle_frame(c, std::move(f));
        continue;
      }
      // Typed error frame for the offender; framing errors also poison the
      // stream, so stop reading and close once everything queued flushes.
      queue_error(c, c.parser.error_request_id(), c.parser.error_op(),
                  c.parser.status(), c.parser.error());
      if (c.parser.fatal()) {
        c.no_read = true;
        break;
      }
    }
  }

  void read_ready(Connection& c) {
    u8 buf[64 << 10];
    // Bounded per poll round: ~256 KiB keeps one fast peer from starving
    // the rest of the loop (level-triggered poll re-arms immediately).
    for (int round = 0; round < 4; ++round) {
      const ssize_t rc = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
      if (rc > 0) {
        st.bytes_rx.fetch_add(static_cast<u64>(rc), std::memory_order_relaxed);
        NetMetrics::get().bytes_rx.add(static_cast<u64>(rc));
        c.parser.feed(buf, static_cast<std::size_t>(rc));
        if (static_cast<std::size_t>(rc) < sizeof(buf)) break;
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
    st.draining.store(true, std::memory_order_relaxed);
    drain_deadline_ns = now_ns() + static_cast<u64>(opts.drain_timeout_ms) * 1000000ull;
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
        queue_error(*c, f.header.request_id, f.header.op, Status::Draining,
                    "server is draining");
      }
    }
    // Temporal sessions die with the drain: clients get Draining for frames
    // of this process's lifetime and BadSession from the next one, and both
    // recover the same way (reopen, resume at a keyframe).
    kill_all_sessions();
  }

  void process_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lk(comp_m);
      batch.swap(completions);
    }
    for (Completion& comp : batch) {
      NetMetrics& m = NetMetrics::get();
      const u64 us = (now_ns() - comp.t0_ns) / 1000;
      m.request_us.record(us);
      if (comp.op == static_cast<u8>(Op::Compress)) m.compress_us.record(us);
      if (comp.op == static_cast<u8>(Op::Decompress)) m.decompress_us.record(us);
      note_slow(comp, us);
      auto it = conns.find(comp.conn_id);
      if (it == conns.end()) {
        // Connection died before its answer was ready: close_conn already
        // returned its in-flight bytes, so just drop the response.
        continue;
      }
      Connection& c = *it->second;
      inflight_release(c, comp.release);
      queue_response(c, std::move(comp.frame), comp.is_error);
      pump(c);  // freed budget may un-park deferred frames / buffered bytes
    }
  }

  /// EMFILE/ENFILE on accept: the process is out of fds but the pending
  /// connection still sits in the backlog. Close the reserve fd to free one
  /// slot, accept-and-close the peer (a deterministic close beats a backlog
  /// timeout), re-arm the reserve, and log. Returns false when even the
  /// reserve trick could not accept (nothing further to shed this round).
  bool shed_accept() {
    st.accept_overloads.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().accept_overloads.add(1);
    if (reserve_fd >= 0) {
      ::close(reserve_fd);
      reserve_fd = -1;
    }
    const int fd = ::accept(listen.fd(), nullptr, nullptr);
    if (fd >= 0) ::close(fd);
    if (reserve_fd < 0) reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    obs::EventLog& log = obs::EventLog::global();
    if (log.would_log(obs::LogLevel::Warn)) {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("connections_current",
           static_cast<unsigned long long>(
               st.connections_current.load(std::memory_order_relaxed)));
      w.kv("shed_total", static_cast<unsigned long long>(
                             st.accept_overloads.load(std::memory_order_relaxed)));
      w.end_object();
      log.emit(obs::LogLevel::Warn, "accept_overload", w.take());
    }
    return fd >= 0;
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
          if (!shed_accept()) return;
          continue;
        }
        return;  // transient accept errors (ECONNABORTED): keep serving
      }
      Socket s(fd);
      set_nonblocking(fd, true);
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const u64 id = next_conn_id++;
      conns.emplace(id, std::make_unique<Connection>(id, std::move(s),
                                                     opts.max_frame_payload));
      st.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      st.connections_current.fetch_add(1, std::memory_order_relaxed);
      NetMetrics& m = NetMetrics::get();
      m.connections_accepted.add(1);
      m.connections.set(static_cast<long long>(
          st.connections_current.load(std::memory_order_relaxed)));
    }
  }

  // -- HTTP /metrics listener ----------------------------------------------

  void http_accept() {
    for (;;) {
      const int fd = ::accept(mlisten.fd(), nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN/EINTR/transient: poll re-arms us
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
      body = metrics_doc();
      ctype = "application/json";
    } else if (path == "/stats") {
      body = stats_json();
      ctype = "application/json";
    } else if (path == "/history") {
      body = obs::FlightRecorder::global().history_json();
      ctype = "application/json";
    } else {
      status = "404 Not Found";
      body = "unknown path (try /metrics, /metrics.json, /stats, /history)\n";
    }
    if (status[0] == '2' && (path == "/metrics" || path == "/metrics.json")) {
      st.metrics_scrapes.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().metrics_scrapes.add(1);
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
    while (hc.out_off < hc.out.size()) {
      const ssize_t rc = ::send(hc.sock.fd(), hc.out.data() + hc.out_off,
                                hc.out.size() - hc.out_off, MSG_NOSIGNAL);
      if (rc > 0) {
        hc.out_off += static_cast<std::size_t>(rc);
        continue;
      }
      if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (rc < 0 && errno == EINTR) continue;
      return true;  // peer gone
    }
    return !hc.out.empty();  // fully flushed (one response per connection)
  }

  void close_conn(std::map<u64, std::unique_ptr<Connection>>::iterator it) {
    // In-flight bytes of a dying conn are given back here; its completions
    // will find no connection and skip the (already-done) release.
    st.inflight_bytes.fetch_sub(it->second->inflight, std::memory_order_relaxed);
    it->second->inflight = 0;
    if (poller) poller->remove(it->second->sock.fd());
    conns.erase(it);
    st.connections_current.fetch_sub(1, std::memory_order_relaxed);
    NetMetrics::get().connections.set(static_cast<long long>(
        st.connections_current.load(std::memory_order_relaxed)));
  }

  void run() {
    // First, so a failed epoll_create1 throws before anything needs undoing.
    poller = std::make_unique<Poller>();
    // Flight recorder + crash handler live for the duration of the loop.
    // stall_ms alone still needs the sampler thread (it drives the checks),
    // so any of the three options brings the recorder up.
    const bool flight_on =
        opts.flight_ms > 0 || opts.stall_ms > 0 || !opts.crash_dir.empty();
    if (flight_on) {
      if (!opts.crash_dir.empty()) obs::install_crash_handler(opts.crash_dir);
      obs::FlightRecorder::Options fo;
      fo.interval_ms = opts.flight_ms > 0 ? opts.flight_ms : 1000;
      fo.depth = opts.flight_depth;
      fo.stall_ms = opts.stall_ms;
      fo.crash_dir = opts.crash_dir;
      fo.extra = [this] {
        return "{\"stats\":" + stats_json() +
               ",\"slow_requests\":" + slow_json() + "}";
      };
      obs::FlightRecorder& fr = obs::FlightRecorder::global();
      fr.configure(std::move(fo));
      fr.start();
    }

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
      evict_idle_sessions();
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
        if (e.revents & POLLOUT) flush_out(c);
        if (e.revents & (POLLIN | POLLHUP)) {
          if (!c.no_read)
            read_ready(c);
          else if (e.revents & POLLHUP) {
            // Peer fully gone and nothing readable: flush what we can.
            flush_out(c);
          }
        }
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
    // Stop the sampler after the pool is quiet: the last snapshot (and the
    // crash body, when armed) reflects the fully drained server.
    if (flight_on) {
      obs::FlightRecorder& fr = obs::FlightRecorder::global();
      fr.sample_now();
      fr.stop();
    }
  }
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

void Server::set_cluster(const cluster::ShardMap& map, const std::string& node_id) {
  impl_->install_map(map, node_id);
}

cluster::ShardMap Server::shard_map() const {
  const Impl::ClusterView cv = impl_->cluster_view();
  return cv.map ? *cv.map : cluster::ShardMap();
}

Server::Stats Server::stats() const { return impl_->snapshot(); }

std::string Server::stats_json() const { return impl_->stats_json(); }

std::string Server::metrics_json() const { return impl_->metrics_doc(); }

}  // namespace repro::net
