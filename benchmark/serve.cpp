// serve_small / serve_large — the PFPN service over loopback. An in-process
// net::Server (epoll, 2 pool threads, serial executor, no store) answers two
// closed-loop blocking net::Clients, each on its own thread and connection:
// PFPN callers block on their reply, so the next request waits for the last.
// Payloads are cut from evenly spaced slots of the suite's f32 and f64 fields
// and rotate through {ABS, REL, NOA} at 1e-3. Compress rounds send raw
// scalars; decompress rounds send the reference streams.
//
// serve_small sends 16 KiB payloads (one chunk), where per-request fixed
// costs — framing, syscalls, wake-ups, pool dispatch — are about half the
// latency. serve_large sends 1 MiB payloads, where per-byte costs — codec,
// socket copies and CRC-32 on both sides — dominate. setup_s is the time
// from Server construction until the first PING is answered, for a server of
// its own beside the one under load, which sits idle meanwhile.
#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"

namespace pb {
namespace {

using namespace repro;

constexpr unsigned kClients = 2;
constexpr unsigned kServerThreads = 2;

net::Server::Options server_options() {
  net::Server::Options so;
  so.threads = kServerThreads;
  return so;
}

net::Client::Options client_options(u16 port) {
  net::Client::Options co;
  co.port = port;
  return co;
}

/// Seconds from Server construction until the first PING is answered.
double setup_probe() {
  const double t0 = now_s();
  net::Server srv(server_options());
  std::thread loop([&] { srv.run(); });
  double s = -1;
  try {
    net::Client c(client_options(srv.port()));
    c.ping();
    s = now_s() - t0;
  } catch (...) {
  }
  srv.request_stop();
  loop.join();
  if (s < 0) throw std::runtime_error("serve set-up probe: PING failed");
  return s;
}

class Serve final : public Workload {
 public:
  Serve(std::size_t payload_bytes, std::size_t payloads)
      : payload_bytes_(payload_bytes),
        payloads_(payloads),
        tail_q_(payload_bytes <= (64u << 10) ? 0.99 : 0.95) {}

  ~Serve() override {
    clients_.clear();  // close the connections so the drain finishes at once
    if (server_) server_->request_stop();
    if (loop_.joinable()) loop_.join();
  }

  void prepare(const Config& cfg) override {
    cut_payloads(generate_suite(cfg.seed));
    for (Item& it : items) build_reference(it);
    server_ = std::make_unique<net::Server>(server_options());
    loop_ = std::thread([this] { server_->run(); });
    for (unsigned j = 0; j < kClients; ++j) {
      clients_.emplace_back(client_options(server_->port()));
      cursor_[j] = j;
    }
    // Round length: long enough for hundreds of 1 MiB requests, short
    // enough for many rounds per run.
    round_s_ = std::min(1.0, cfg.seconds / 4);
  }

  Round compress_round() override { return round(true); }
  Round decompress_round() override { return round(false); }

  void report(Report& rep) override {
    double raw = 0, comp = 0;
    for (const Item& it : items) {
      raw += static_cast<double>(it.raw.size());
      comp += static_cast<double>(it.stream.size());
    }
    rep.add("ratio", raw / comp, "x");
    const Phase& p = phase_[0];
    const std::string tail = tail_q_ > 0.98 ? "p99" : "p95";
    rep.add_percentile("compress_p50_ms", p.c_ms, 0.5);
    rep.add_percentile("decompress_p50_ms", p.d_ms, 0.5);
    rep.add_percentile("compress_" + tail + "_ms", p.c_ms, tail_q_);
    rep.add_percentile("decompress_" + tail + "_ms", p.d_ms, tail_q_);
    u64 attempts = 0, requests = 0, reconnects = 0;
    for (const net::Client& c : clients_) {
      attempts += c.attempts();
      requests += c.requests();
      reconnects += c.reconnects();
    }
    rep.line("load: %u closed-loop clients, %u server pool threads, %.2f s rounds; "
             "%llu requests, %llu wire attempts, %llu reconnects",
             kClients, kServerThreads, round_s_, static_cast<unsigned long long>(requests),
             static_cast<unsigned long long>(attempts),
             static_cast<unsigned long long>(reconnects));
  }

  void report_layers(Report& rep, const ReplayCosts& costs) override {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const obs::Histogram& req = reg.histogram("net.request_us");
    const obs::Histogram& wait = reg.histogram("svc.pool.task_wait_us");
    const obs::Histogram& run = reg.histogram("svc.pool.task_run_us");
    // Histogram quantiles come from the program's 4x-wide buckets, so the
    // client/server split below uses the exact means instead.
    rep.add("net.server_request_us_p50", req.p50(), "us");
    rep.add("net.server_request_us_p99", req.p99(), "us");
    const Phase& tp = phase_[1];
    const double client_us =
        1e3 * (std::accumulate(tp.c_ms.begin(), tp.c_ms.end(), 0.0) +
               std::accumulate(tp.d_ms.begin(), tp.d_ms.end(), 0.0)) /
        static_cast<double>(tp.c_ms.size() + tp.d_ms.size());
    rep.add("net.outside_server_frac", 1 - req.mean() / client_us, "frac");
    rep.line("  (traced pair: %llu server requests, mean %.1f us at the server, "
             "%.1f us at the client)",
             static_cast<unsigned long long>(req.count()), req.mean(), client_us);

    const net::Server::Stats st = server_->stats();
    rep.add("net.bytes_per_op",
            static_cast<double>(st.bytes_rx + st.bytes_tx) /
                static_cast<double>(st.requests_compress + st.requests_decompress),
            "B");

    // Replayed layer time of the untraced requests against what the clients
    // waited for them.
    const Phase& up = phase_[0];
    double replayed = 0;
    for (std::size_t i = 0; i < items.size(); ++i)
      replayed += static_cast<double>(up.c_n[i]) * costs.compress_s[i] +
                  static_cast<double>(up.d_n[i]) * costs.decompress_s[i];
    const double waited = 1e-3 * (std::accumulate(up.c_ms.begin(), up.c_ms.end(), 0.0) +
                                  std::accumulate(up.d_ms.begin(), up.d_ms.end(), 0.0));
    rep.add("net.unaccounted_frac", 1 - replayed / waited, "frac");

    rep.add("svc.pool.task_wait_us_p50", wait.p50(), "us");
    rep.add("svc.pool.task_wait_us_p99", wait.p99(), "us");
    rep.add("svc.pool.task_run_us_p50", run.p50(), "us");
    rep.line("  (pool: %llu tasks, wait mean %.1f us, run mean %.1f us)",
             static_cast<unsigned long long>(run.count()), wait.mean(), run.mean());
  }

 private:
  /// Per-phase request samples: latency in ms and requests per item.
  struct Phase {
    std::vector<double> c_ms, d_ms;
    std::vector<u64> c_n, d_n;
  };

  /// Cut `payloads_` payloads at evenly spaced payload-sized slots of the
  /// whole suite, so every file contributes in proportion to its size and
  /// from along its whole length: the compression ratio then varies from
  /// seed to seed about as little as the full suite's does. Payload k is
  /// compressed under ABS/REL/NOA = k mod 3.
  void cut_payloads(std::vector<Item> suite) {
    std::vector<std::pair<const Item*, std::size_t>> slots;  // (file, byte offset)
    for (const Item& f : suite)
      for (std::size_t off = 0; off + payload_bytes_ <= f.raw.size(); off += payload_bytes_)
        slots.emplace_back(&f, off);
    for (std::size_t k = 0; k < payloads_; ++k) {
      const auto [file, off] = slots[k * slots.size() / payloads_];
      const Item& f = *file;
      Item it;
      it.name = f.name + "@" + std::to_string(off);
      it.dtype = f.dtype;
      it.eb = static_cast<EbType>(k % 3);
      it.raw.assign(f.raw.begin() + static_cast<std::ptrdiff_t>(off),
                    f.raw.begin() + static_cast<std::ptrdiff_t>(off + payload_bytes_));
      items.push_back(std::move(it));
    }
    for (Phase& p : phase_) {
      p.c_n.assign(items.size(), 0);
      p.d_n.assign(items.size(), 0);
    }
  }

  struct Tally {
    std::vector<double> ms;
    std::vector<std::size_t> item;
    double bytes = 0;
  };

  /// One client's closed loop until `deadline`.
  void client_loop(unsigned j, bool compress, double deadline, Tally& t) {
    net::Client& cl = clients_[j];
    while (now_s() < deadline) {
      const std::size_t i = cursor_[j];
      cursor_[j] = (i + kClients) % items.size();
      const Item& it = items[i];
      try {
        if (compress) {
          Timed tm("net.Client::compress");
          const Bytes out = cl.compress(it.raw.data(), it.raw.size(), it.dtype, it.eb, it.eps);
          t.ms.push_back(tm.stop(cl.last_request_id()) * 1e3);
          chk.check(out, it.stream, "compress", it.name);
        } else {
          Timed tm("net.Client::decompress");
          const std::vector<u8> out = cl.decompress(it.stream);
          t.ms.push_back(tm.stop(cl.last_request_id()) * 1e3);
          chk.check(out, it.recon, "decompress", it.name);
        }
        t.item.push_back(i);
        t.bytes += static_cast<double>(it.raw.size());
      } catch (const std::exception& e) {
        chk.expect(false, compress ? "compress" : "decompress", it.name, e.what());
      }
    }
  }

  Round round(bool compress) {
    // A set-up takes ~0.15 ms, short enough for one timer tick or page fault
    // to double it, and the host's speed drifts over seconds. So set-ups are
    // measured ten before every round, outside its time: their median then
    // covers the same stretch of the run as the throughput.
    if (!traced)
      for (int k = 0; k < 10; ++k) setup_s.push_back(setup_probe());
    Tally tally[kClients];
    const double t0 = now_s();
    {
      std::vector<std::jthread> threads;
      for (unsigned j = 0; j < kClients; ++j)
        threads.emplace_back([&, j] { client_loop(j, compress, t0 + round_s_, tally[j]); });
    }
    const double wall = now_s() - t0;
    Phase& p = phase_[traced];
    std::vector<double>& ms = compress ? p.c_ms : p.d_ms;
    std::vector<u64>& per_item = compress ? p.c_n : p.d_n;
    double bytes = 0;
    for (const Tally& t : tally) {
      ms.insert(ms.end(), t.ms.begin(), t.ms.end());
      for (std::size_t i : t.item) ++per_item[i];
      bytes += t.bytes;
    }
    return {bytes, wall};
  }

  std::size_t payload_bytes_;
  std::size_t payloads_;
  double tail_q_;
  double round_s_ = 1.0;
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
  std::vector<net::Client> clients_;
  std::size_t cursor_[kClients] = {};
  Phase phase_[2];
};

}  // namespace

std::unique_ptr<Workload> make_serve(std::size_t payload_bytes, std::size_t payloads) {
  return std::make_unique<Serve>(payload_bytes, payloads);
}

}  // namespace pb
