// bench_net_loadgen — PFPN/1 load generator and round-trip checker.
//
// Spins up an in-process net::Server (or targets an external one via
// --host H:P), then hammers it with N concurrent clients issuing a mixed
// COMPRESS/DECOMPRESS workload across every dtype x {ABS,REL,NOA}
// combination. Every response is checked for byte-identity against the
// local pfpl::compress / pfpl::decompress result, so the bench doubles as
// the acceptance test for "the wire adds nothing and loses nothing".
//
//   bench_net_loadgen                          # 8 clients x 16 requests
//   bench_net_loadgen --clients 16 --requests 64 --values 65536
//   bench_net_loadgen --host 127.0.0.1:19777   # external server
//   bench_net_loadgen --update-baseline --baseline BENCH_net_baseline.json
//
// Harness flags (--json/--baseline/--update-baseline/--gate) apply; the
// baseline rows carry throughput, and the "_us" histogram quantiles
// (net.client.request_us, net.request_us, ...) ride along as advisory
// metrics via the harness's automatic histogram capture. Exact (unbucketed)
// client-observed p50/p95/p99 over every round trip are printed to stderr
// and recorded under adv/net_loadgen/client_p* — advisory too, so they warn
// on regression but never fail the gate.
//
// Exit codes: 0 ok, 1 protocol error or byte mismatch, 3 failed --gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pfpl.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "store/store.hpp"

using namespace repro;

namespace {

struct LoadCfg {
  unsigned clients = 8;
  unsigned requests = 16;       ///< per client
  std::size_t values = 16384;   ///< scalars per request
  std::string host;             ///< empty = in-process server
  double dup_ratio = 0.0;       ///< fraction of requests resending one payload
  unsigned cache_mb = 0;        ///< give the in-process server a chunk store
};

LoadCfg parse_load_flags(int argc, char** argv) {
  LoadCfg cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : "0"; };
    if (a == "--clients") cfg.clients = static_cast<unsigned>(std::atoi(next()));
    else if (a == "--requests") cfg.requests = static_cast<unsigned>(std::atoi(next()));
    else if (a == "--values") cfg.values = std::strtoull(next(), nullptr, 10);
    else if (a == "--host") cfg.host = next();
    else if (a == "--dup-ratio") cfg.dup_ratio = std::atof(next());
    else if (a == "--cache-mb") cfg.cache_mb = static_cast<unsigned>(std::atoi(next()));
  }
  if (cfg.clients == 0) cfg.clients = 1;
  if (cfg.requests == 0) cfg.requests = 1;
  cfg.dup_ratio = std::min(1.0, std::max(0.0, cfg.dup_ratio));
  return cfg;
}

/// Deterministic per-client test signal (smooth + a little structure so the
/// compressor has something to chew on).
template <class T>
std::vector<T> make_signal(std::size_t n, unsigned seed) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = static_cast<double>(i) * 0.001 + seed * 0.37;
    v[i] = static_cast<T>(std::sin(x) * 100.0 + std::cos(3.0 * x) + seed);
  }
  return v;
}

struct WorkerResult {
  u64 requests = 0;
  u64 errors = 0;       ///< protocol errors + byte mismatches
  u64 raw_bytes = 0;    ///< uncompressed bytes moved through COMPRESS
  u64 comp_bytes = 0;   ///< compressed bytes produced
  double compress_s = 0;
  double decompress_s = 0;
  u64 reconnects = 0;
  /// Client-observed per-request round-trip latencies (µs, both ops) — merged
  /// across workers for the exact p50/p95/p99 summary and the advisory gate.
  std::vector<double> latencies_us;
};

/// One client's workload: rotate through dtype x eb combinations, compress
/// remotely, check against the local stream, decompress remotely, check
/// against the local reconstruction.
WorkerResult run_client(const LoadCfg& cfg, const std::string& host, u16 port,
                        unsigned id) {
  using clock = std::chrono::steady_clock;
  WorkerResult r;
  net::Client::Options copts;
  copts.host = host;
  copts.port = port;
  net::Client client(copts);

  const std::vector<float> f32 = make_signal<float>(cfg.values, id);
  const std::vector<double> f64 = make_signal<double>(cfg.values, id);
  // The canonical duplicate request: every client resends this exact
  // (payload, dtype, eb, eps) combination for its --dup-ratio fraction, so
  // a server-side chunk store sees one content key across the whole fleet.
  const std::vector<float> dup_payload = make_signal<float>(cfg.values, /*seed=*/0);

  static constexpr EbType kEbs[] = {EbType::ABS, EbType::REL, EbType::NOA};
  static constexpr double kEps[] = {1e-2, 1e-3, 1e-4};

  for (unsigned q = 0; q < cfg.requests; ++q) {
    // Deterministic, interleaved dup/unique choice (multiplicative hash so
    // the duplicates spread across the run instead of front-loading).
    const bool dup = static_cast<double>((id * 7919u + q * 104729u) % 1000) <
                     cfg.dup_ratio * 1000.0;
    const DType dtype = dup ? DType::F32 : (((id + q) % 2) ? DType::F64 : DType::F32);
    const EbType eb = dup ? EbType::ABS : kEbs[(id + q) % 3];
    const double eps = dup ? 1e-3 : kEps[q % 3];
    const std::vector<float>& f32_src = dup ? dup_payload : f32;
    const void* raw = dtype == DType::F32 ? static_cast<const void*>(f32_src.data())
                                          : static_cast<const void*>(f64.data());
    const std::size_t raw_n = cfg.values * dtype_size(dtype);
    try {
      pfpl::Params params;
      params.eb = eb;
      params.eps = eps;
      const Field field = dtype == DType::F32 ? Field(f32_src.data(), f32_src.size())
                                              : Field(f64.data(), f64.size());
      const Bytes local = pfpl::compress(field, params);

      auto t0 = clock::now();
      const Bytes remote = client.compress(raw, raw_n, dtype, eb, eps);
      const double comp_s = std::chrono::duration<double>(clock::now() - t0).count();
      r.compress_s += comp_s;
      r.latencies_us.push_back(comp_s * 1e6);
      ++r.requests;
      r.raw_bytes += raw_n;
      r.comp_bytes += remote.size();
      if (remote != local) {
        std::fprintf(stderr,
                     "loadgen: client %u req %u: remote COMPRESS differs from "
                     "local pfpl::compress (%zu vs %zu bytes)\n",
                     id, q, remote.size(), local.size());
        ++r.errors;
        continue;
      }

      t0 = clock::now();
      const std::vector<u8> back = client.decompress(remote);
      const double decomp_s = std::chrono::duration<double>(clock::now() - t0).count();
      r.decompress_s += decomp_s;
      r.latencies_us.push_back(decomp_s * 1e6);
      ++r.requests;
      const std::vector<u8> local_back = pfpl::decompress(local);
      if (back != local_back) {
        std::fprintf(stderr,
                     "loadgen: client %u req %u: remote DECOMPRESS differs from "
                     "local pfpl::decompress\n",
                     id, q);
        ++r.errors;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: client %u req %u: %s\n", id, q, e.what());
      ++r.errors;
    }
  }
  r.reconnects = client.reconnects();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepConfig base;
  bench::SweepConfig sweep = bench::parse_args(argc, argv, base);
  (void)sweep;
  const LoadCfg cfg = parse_load_flags(argc, argv);
  // The whole point is the latency histograms; record them even without
  // --json/--baseline.
  obs::set_enabled(true);

  std::unique_ptr<net::Server> server;
  std::thread server_thread;
  std::string host = "127.0.0.1";
  u16 port = 0;
  if (cfg.host.empty()) {
    net::Server::Options sopts;
    if (cfg.cache_mb) {
      store::ChunkStore::Options so;
      so.cache.byte_budget = static_cast<std::size_t>(cfg.cache_mb) << 20;
      sopts.store = std::make_shared<store::ChunkStore>(so);
    }
    server = std::make_unique<net::Server>(sopts);
    port = server->port();
    server_thread = std::thread([&] { server->run(); });
  } else {
    net::split_host_port(cfg.host, host, port);
  }
  std::string cache_part;
  if (cfg.cache_mb) cache_part = ", cache " + std::to_string(cfg.cache_mb) + "MB";
  std::fprintf(stderr,
               "loadgen: %u clients x %u requests x %zu values "
               "(dup-ratio %.2f%s) -> %s:%u%s\n",
               cfg.clients, cfg.requests, cfg.values, cfg.dup_ratio,
               cache_part.c_str(), host.c_str(), static_cast<unsigned>(port),
               server ? " (in-process server)" : "");

  std::vector<WorkerResult> results(cfg.clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (unsigned c = 0; c < cfg.clients; ++c)
      threads.emplace_back(
          [&, c] { results[c] = run_client(cfg, host, port, c); });
    for (auto& t : threads) t.join();
  }

  WorkerResult total;
  for (const WorkerResult& r : results) {
    total.requests += r.requests;
    total.errors += r.errors;
    total.raw_bytes += r.raw_bytes;
    total.comp_bytes += r.comp_bytes;
    total.compress_s += r.compress_s;
    total.decompress_s += r.decompress_s;
    total.reconnects += r.reconnects;
    total.latencies_us.insert(total.latencies_us.end(), r.latencies_us.begin(),
                              r.latencies_us.end());
  }

  // Exact client-observed quantiles over every round trip (compress and
  // decompress alike) — unlike the hist/* capture these are not bucketed.
  double p50 = 0, p95 = 0, p99 = 0;
  if (!total.latencies_us.empty()) {
    std::sort(total.latencies_us.begin(), total.latencies_us.end());
    auto at_q = [&](double q) {
      const std::size_t n = total.latencies_us.size();
      std::size_t i = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
      if (i >= n) i = n - 1;
      return total.latencies_us[i];
    };
    p50 = at_q(0.50);
    p95 = at_q(0.95);
    p99 = at_q(0.99);
    std::fprintf(stderr, "loadgen: client latency p50=%.0fus p95=%.0fus p99=%.0fus "
                         "(%zu samples)\n",
                 p50, p95, p99, total.latencies_us.size());
    // Advisory: a latency regression warns in the gate table but never fails
    // the run (loopback latencies on shared CI machines are too noisy to
    // block on).
    bench::record_advisory_us("net_loadgen/client_p50", {p50});
    bench::record_advisory_us("net_loadgen/client_p95", {p95});
    bench::record_advisory_us("net_loadgen/client_p99", {p99});
  }

  if (server) {
    server->request_stop();
    server_thread.join();
    obs::RunReport::global().add_section("net", server->stats_json());
    const net::Server::Stats st = server->stats();
    std::fprintf(stderr,
                 "loadgen: server: %llu conns, %llu frames rx, %llu errors, "
                 "peak inflight %llu bytes\n",
                 static_cast<unsigned long long>(st.connections_accepted),
                 static_cast<unsigned long long>(st.frames_rx),
                 static_cast<unsigned long long>(st.errors),
                 static_cast<unsigned long long>(st.peak_inflight_bytes));
  }

  const double mb = 1024.0 * 1024.0;
  bench::Row row;
  row.compressor = server ? "PFPN_loopback" : "PFPN_remote";
  row.eb = 0;
  row.ratio = total.comp_bytes
                  ? static_cast<double>(total.raw_bytes) / total.comp_bytes
                  : 0.0;
  // Wire throughput: uncompressed MB moved per second of client-observed
  // request latency, summed across clients (concurrency makes this an
  // aggregate service rate, not a per-connection rate).
  row.comp_mbps = total.compress_s > 0 ? total.raw_bytes / mb / total.compress_s : 0.0;
  row.decomp_mbps =
      total.decompress_s > 0 ? total.raw_bytes / mb / total.decompress_s : 0.0;
  row.violations = static_cast<std::size_t>(total.errors);
  bench::print_rows("net_loadgen", {row});

  std::fprintf(stderr,
               "loadgen: %llu requests, %llu errors, %llu reconnects, "
               "compress %.1f MB/s, decompress %.1f MB/s\n",
               static_cast<unsigned long long>(total.requests),
               static_cast<unsigned long long>(total.errors),
               static_cast<unsigned long long>(total.reconnects), row.comp_mbps,
               row.decomp_mbps);

  const int gate_rc = bench::finish();
  if (total.errors) return 1;
  return gate_rc;
}
