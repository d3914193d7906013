// pfpl — command-line front end for the PFPL compressor.
//
// Single-field streams:
//   pfpl c <in.raw> <out.pfpl> --dtype f32|f64 --eb abs|rel|noa --eps 1e-3
//        [--exec serial|omp|gpusim]
//   pfpl d <in.pfpl> <out.raw> [--exec serial|omp|gpusim]
//   pfpl info <in.pfpl>
//   pfpl verify <original.raw> <in.pfpl>     # re-check the error bound
//
// Multi-field PFPA archives (the svc batch-compression service):
//   pfpl pack <out.pfpa> <in1.raw> [in2.raw ...] --dtype f32|f64
//        --eb abs|rel|noa --eps 1e-3 [--threads N] [--exec serial|omp|gpusim]
//   pfpl unpack <in.pfpa> <outdir> [--entry NAME]
//   pfpl list <in.pfpa>
//   pfpl stats <in.pfpa|in.pfpl> [--json]      # machine-readable stats
//
// Continuous error-bound audit (src/obs/audit.hpp):
//   pfpl audit [--full] [--json] [--suite NAME] [--dtype f32|f64]
//        [--eb abs|rel|noa] [--eps 1e-3] [--exec serial|omp|gpusim]
//   sweeps the synthetic suites through compress -> decompress and re-checks
//   every reconstructed value; exits 3 if any bound violation is found.
//
// PFPN/1 network service (src/net):
//   pfpl serve [--port N] [--bind ADDR] [--threads N] [--max-inflight BYTES]
//        [--exec serial|omp|gpusim]
//   runs the pfpld compression server until SIGINT/SIGTERM or a SHUTDOWN
//   frame, then drains gracefully.
//   pfpl remote compress <in.raw> <out.pfpl> --host H:P --dtype ... --eb ... --eps ...
//   pfpl remote decompress <in.pfpl> <out.raw> --host H:P
//   pfpl remote stats|ping|shutdown --host H:P [--timeout-ms N]
//   pfpl remote metrics --host H:P [--prom]   # registry dump (JSON or Prometheus)
//   pfpl top --host H:P [--interval-ms N] [--count N]
//   polls the METRICS op and renders rate-converted req/s, MB/s, latency
//   quantiles, store hit ratio, and pool queue depth — one line per tick.
//
// Observability (valid on every verb, parsed before dispatch):
//   --trace FILE    record spans and write a Chrome trace_event JSON
//                   (chrome://tracing / Perfetto loadable)
//   --metrics       print the metrics registry to stderr on exit
//   --report FILE   write the obs RunReport JSON artifact
//
// Exit codes: 0 ok, 1 error (bad/corrupt input, I/O failure), 2 usage,
// 3 verify/audit found a bound violation.
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/top_window.hpp"
#include "core/pfpl.hpp"
#include "data/evolving.hpp"
#include "data/synthetic.hpp"
#include "ingest/pipeline.hpp"
#include "io/raw_file.hpp"
#include "net/backoff.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "metrics/error_stats.hpp"
#include "obs/audit.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"
#include "svc/archive.hpp"
#include "temporal/pfpv.hpp"
#include "temporal/temporal.hpp"

using namespace repro;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pfpl c <in.raw> <out.pfpl> --dtype f32|f64 --eb abs|rel|noa --eps <e>\n"
               "       [--exec serial|omp|gpusim]\n"
               "  pfpl d <in.pfpl> <out.raw> [--exec serial|omp|gpusim]\n"
               "  pfpl info <in.pfpl>\n"
               "  pfpl verify <original.raw> <in.pfpl>\n"
               "  pfpl pack <out.pfpa> <in1.raw> [in2.raw ...] --dtype f32|f64\n"
               "       --eb abs|rel|noa --eps <e> [--threads N] [--exec serial|omp|gpusim]\n"
               "       [--audit]   # re-verify every packed entry, exit 3 on violation\n"
               "       [--store DIR]   # reuse/fill a PFPS chunk store\n"
               "       [--progress]    # per-file progress + stage timing on stderr\n"
               "  pfpl unpack <in.pfpa> <outdir> [--entry NAME]\n"
               "  pfpl list <in.pfpa>\n"
               "  pfpl stats <in.pfpa|in.pfpl> [--json]\n"
               "  pfpl audit [--full] [--json] [--suite NAME] [--dtype f32|f64]\n"
               "       [--eb abs|rel|noa] [--eps <e>] [--exec serial|omp|gpusim]\n"
               "  pfpl serve [--port N] [--bind ADDR] [--threads N]\n"
               "       [--max-inflight BYTES] [--exec serial|omp|gpusim]\n"
               "       [--store DIR] [--cache-mb N]   # answer repeats from the chunk store\n"
               "       [--metrics-port N]  # plain-HTTP GET /metrics listener (0 = ephemeral)\n"
               "       [--slow-ms N] [--slow-log FILE]  # capture + log slow requests\n"
               "       [--flight-ms N] [--flight-depth N]  # metric-snapshot flight recorder\n"
               "       [--stall-ms N]     # watchdog: flag requests/stages stuck N ms\n"
               "       [--crash-dir DIR]  # fatal-signal crash reports + stall dumps\n"
               "       [--max-conns N]    # cap concurrent connections (0 = unlimited)\n"
               "       [--max-sessions N] [--session-idle-ms N]  # temporal stream\n"
               "                          # sessions: cap + idle eviction (0 = off)\n"
               "  pfpl remote compress <in.raw> <out.pfpl> --host H:P --dtype f32|f64\n"
               "       --eb abs|rel|noa --eps <e>\n"
               "  pfpl remote decompress <in.pfpl> <out.raw> --host H:P\n"
               "  pfpl remote stats|ping|shutdown --host H:P [--timeout-ms N]\n"
               "  pfpl remote metrics --host H:P [--prom | --history]\n"
               "  pfpl top --host H:P [--interval-ms N] [--count N]\n"
               "  pfpl profile [--json] [--suite NAME] [--dtype f32|f64] [--full]\n"
               "       [--eb abs|rel|noa] [--eps <e>] [--exec serial|omp|gpusim]\n"
               "       per-kernel throughput attribution over the synthetic suites\n"
               "  pfpl store put <in1.raw> [in2.raw ...] --store DIR --dtype f32|f64\n"
               "       --eb abs|rel|noa --eps <e> [--exec serial|omp|gpusim]\n"
               "       [--threads N] [--audit] [--progress]  # multi-file runs the\n"
               "       staged ingest pipeline (read/dedup/encode/append overlapped)\n"
               "  pfpl store get <key> <out.pfpl> --store DIR\n"
               "  pfpl store ls --store DIR\n"
               "  pfpl store compact --store DIR\n"
               "  pfpl store verify --store DIR    # exit 1 on corrupt frames\n"
               "  pfpl stream pack <out.pfpv> <f0.raw> [f1.raw ...] --dims ZxYxX\n"
               "       --dtype f32|f64 --eb abs|rel|noa --eps <e>\n"
               "       [--keyframe-interval N] [--exec ...] [--audit] [--dump-recon DIR]\n"
               "  pfpl stream pack <out.pfpv> --suite advect|diffuse|regime\n"
               "       --eb abs|rel|noa --eps <e> [--frames N] [--values N] [--seed S]\n"
               "       [--keyframe-interval N] [--audit] [--dump-raw DIR] [--dump-recon DIR]\n"
               "       [--host H:P]  # push the session to pfpld (STREAM_OPEN/FRAME);\n"
               "                     # on server loss the client reopens and resumes\n"
               "                     # at a keyframe\n"
               "  pfpl stream unpack <in.pfpv> <outdir>   # frame-NNNNNN.raw per frame\n"
               "  pfpl stream info <in.pfpv> [--json]\n"
               "observability (any verb): --trace FILE  --metrics  --report FILE\n");
  std::exit(2);
}

/// Observability flags, stripped from argv before verb dispatch so every
/// command accepts them uniformly.
struct ObsFlags {
  std::string trace_path;
  std::string report_path;
  bool metrics = false;
  bool any() const { return metrics || !trace_path.empty() || !report_path.empty(); }
};

ObsFlags strip_obs_flags(int& argc, char** argv) {
  ObsFlags fl;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--trace" || a == "--report") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        usage();
      }
      (a == "--trace" ? fl.trace_path : fl.report_path) = argv[++i];
    } else if (a == "--metrics") {
      fl.metrics = true;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  if (fl.any()) obs::set_enabled(true);
  return fl;
}

/// Emit the requested observability artifacts (called on every exit path
/// that ran a command, including failures — a trace of a failed run is
/// exactly what you want on the operator's desk).
void flush_obs(const ObsFlags& fl) {
  if (!fl.any()) return;
  try {
    if (fl.metrics)
      std::fprintf(stderr, "%s", obs::MetricsRegistry::global().text().c_str());
    if (!fl.report_path.empty()) {
      obs::RunReport::global().set_meta("tool", "pfpl");
      obs::RunReport::global().write(fl.report_path);
    }
    if (!fl.trace_path.empty())
      obs::TraceRecorder::global().write_chrome_json(fl.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfpl: obs: %s\n", e.what());
  }
}

pfpl::Executor parse_exec(const std::string& s) {
  if (s == "serial") return pfpl::Executor::Serial;
  if (s == "omp") return pfpl::Executor::OpenMP;
  if (s == "gpusim") return pfpl::Executor::GpuSim;
  usage();
}

struct Flags {
  DType dtype = DType::F32;
  pfpl::Params params;
  unsigned threads = 0;
  std::string entry;
  bool json = false;   ///< `pfpl stats|audit --json`: machine-readable output
  bool audit = false;  ///< `pfpl pack --audit`: re-verify every packed job
  bool progress = false;  ///< `pfpl pack --progress`: per-file lines on stderr
  bool full = false;   ///< `pfpl audit --full`: paper-scale protocol
  std::string suite;   ///< `pfpl audit --suite NAME`: restrict to one suite
  // `pfpl audit` narrows its sweep only along axes the user actually set,
  // so remember which of the shared flags were explicit.
  bool dtype_set = false, eb_set = false, eps_set = false;
  // Network verbs (`pfpl serve` / `pfpl remote`).
  std::string host;                 ///< `pfpl remote --host H:P`
  std::string bind = "127.0.0.1";   ///< `pfpl serve --bind ADDR`
  unsigned port = 0;                ///< `pfpl serve --port N` (0 = ephemeral)
  std::size_t max_inflight = 0;     ///< `pfpl serve --max-inflight BYTES` (0 = default)
  int timeout_ms = 0;               ///< `pfpl remote --timeout-ms N` (0 = default)
  // PFPS chunk store (`pfpl serve|pack|store`).
  std::string store_dir;            ///< `--store DIR` (empty = no persistence)
  unsigned cache_mb = 0;            ///< `--cache-mb N` (0 = default 64)
  // Live introspection (`pfpl serve` / `pfpl remote metrics` / `pfpl top`).
  int slow_ms = 0;                  ///< `pfpl serve --slow-ms N` (0 = off)
  std::string slow_log;             ///< `pfpl serve --slow-log FILE` (empty = stderr)
  int metrics_port = -1;            ///< `pfpl serve --metrics-port N` (-1 = off)
  // Flight recorder / crash diagnostics (`pfpl serve`).
  int flight_ms = 0;                ///< `--flight-ms N` snapshot cadence (0 = off)
  int flight_depth = 32;            ///< `--flight-depth N` ring capacity
  u64 stall_ms = 0;                 ///< `--stall-ms N` watchdog threshold (0 = off)
  std::string crash_dir;            ///< `--crash-dir DIR` (empty = no crash reports)
  bool prom = false;                ///< `pfpl remote metrics --prom`
  bool history = false;             ///< `pfpl remote metrics --history`
  int interval_ms = 1000;           ///< `pfpl top --interval-ms N`
  int count = 0;                    ///< `pfpl top --count N` (0 = until ^C)
  std::size_t max_conns = 0;        ///< `pfpl serve --max-conns N` (0 = unlimited)
  // Temporal stream verbs (`pfpl stream` / `pfpl serve`).
  std::string dims;                 ///< `pfpl stream pack --dims ZxYxX`
  std::size_t frames = 0;           ///< `--frames N` (0 = suite default)
  std::size_t values = 0;           ///< `--values N` per frame (0 = default)
  unsigned keyframe_interval = 16;  ///< `--keyframe-interval N`
  u64 seed = 0;                     ///< `--seed S` (0 = suite default)
  std::string dump_raw;             ///< `--dump-raw DIR`: original frames
  std::string dump_recon;           ///< `--dump-recon DIR`: decoded frames
  std::size_t max_sessions = 64;    ///< `pfpl serve --max-sessions N`
  int session_idle_ms = 60000;      ///< `pfpl serve --session-idle-ms N`
};

/// The value of a numeric flag: a plain base-10 integer in [lo, hi], with no
/// sign and no trailing characters. Anything else is a usage error (exit 2).
u64 flag_uint(const char* flag, const std::string& v, u64 lo, u64 hi) {
  u64 n = 0;
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc() || stop != end || n < lo || n > hi) {
    std::fprintf(stderr, "pfpl: invalid value for %s: '%s' (expected %llu..%llu)\n", flag,
                 v.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
  }
  return n;
}

/// Parse `--flag value` pairs from argv[first..); non-flag arguments are
/// appended to `positional`.
Flags parse_flags(int argc, char** argv, int first, std::vector<std::string>* positional) {
  constexpr u64 kMaxThreads = 1024;
  constexpr u64 kInt = std::numeric_limits<int>::max();
  constexpr u64 kUint = std::numeric_limits<unsigned>::max();
  constexpr u64 kU64 = std::numeric_limits<u64>::max();
  Flags fl;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage();
      }
      return argv[++i];
    };
    auto num = [&](u64 lo, u64 hi) {
      return flag_uint(a.c_str(), need(a.c_str()), lo, hi);
    };
    if (a == "--dtype") {
      std::string v = need("--dtype");
      fl.dtype_set = true;
      if (v == "f32") {
        fl.dtype = DType::F32;
      } else if (v == "f64") {
        fl.dtype = DType::F64;
      } else {
        std::fprintf(stderr, "unknown --dtype '%s' (expected f32|f64)\n", v.c_str());
        usage();
      }
    } else if (a == "--eb") {
      std::string v = need("--eb");
      fl.eb_set = true;
      if (v == "abs") {
        fl.params.eb = EbType::ABS;
      } else if (v == "rel") {
        fl.params.eb = EbType::REL;
      } else if (v == "noa") {
        fl.params.eb = EbType::NOA;
      } else {
        std::fprintf(stderr, "unknown --eb '%s' (expected abs|rel|noa)\n", v.c_str());
        usage();
      }
    } else if (a == "--eps") {
      std::string v = need("--eps");
      fl.eps_set = true;
      try {
        fl.params.eps = std::stod(v);
      } catch (const std::exception&) {
        throw CompressionError("invalid value for --eps: '" + v + "'");
      }
    } else if (a == "--exec") {
      fl.params.exec = parse_exec(need("--exec"));
    } else if (a == "--threads") {
      fl.threads = static_cast<unsigned>(num(0, kMaxThreads));
    } else if (a == "--entry") {
      fl.entry = need("--entry");
    } else if (a == "--host") {
      fl.host = need("--host");
    } else if (a == "--bind") {
      fl.bind = need("--bind");
    } else if (a == "--port") {
      fl.port = static_cast<unsigned>(num(0, 65535));
    } else if (a == "--max-inflight") {
      fl.max_inflight = static_cast<std::size_t>(num(0, kU64));
    } else if (a == "--store") {
      fl.store_dir = need("--store");
    } else if (a == "--cache-mb") {
      fl.cache_mb = static_cast<unsigned>(num(1, kUint));
    } else if (a == "--timeout-ms") {
      fl.timeout_ms = static_cast<int>(num(0, kInt));
    } else if (a == "--slow-ms") {
      fl.slow_ms = static_cast<int>(num(0, kInt));
    } else if (a == "--slow-log") {
      fl.slow_log = need("--slow-log");
    } else if (a == "--flight-ms") {
      fl.flight_ms = static_cast<int>(num(0, kInt));
    } else if (a == "--flight-depth") {
      fl.flight_depth = static_cast<int>(num(1, kInt));
    } else if (a == "--stall-ms") {
      fl.stall_ms = num(0, kU64);
    } else if (a == "--crash-dir") {
      fl.crash_dir = need("--crash-dir");
    } else if (a == "--metrics-port") {
      fl.metrics_port = static_cast<int>(num(0, 65535));
    } else if (a == "--interval-ms") {
      fl.interval_ms = static_cast<int>(num(1, kInt));
    } else if (a == "--count") {
      fl.count = static_cast<int>(num(0, kInt));
    } else if (a == "--max-conns") {
      fl.max_conns = static_cast<std::size_t>(num(0, kU64));
    } else if (a == "--dims") {
      fl.dims = need("--dims");
    } else if (a == "--frames") {
      fl.frames = static_cast<std::size_t>(num(1, kU64));
    } else if (a == "--values") {
      fl.values = static_cast<std::size_t>(num(1, kU64));
    } else if (a == "--keyframe-interval") {
      fl.keyframe_interval = static_cast<unsigned>(num(0, kUint));
    } else if (a == "--seed") {
      fl.seed = num(0, kU64);
    } else if (a == "--dump-raw") {
      fl.dump_raw = need("--dump-raw");
    } else if (a == "--dump-recon") {
      fl.dump_recon = need("--dump-recon");
    } else if (a == "--max-sessions") {
      fl.max_sessions = static_cast<std::size_t>(num(0, kU64));
    } else if (a == "--session-idle-ms") {
      fl.session_idle_ms = static_cast<int>(num(0, kInt));
    } else if (a == "--prom") {
      fl.prom = true;
    } else if (a == "--history") {
      fl.history = true;
    } else if (a == "--suite") {
      fl.suite = need("--suite");
    } else if (a == "--json") {
      fl.json = true;
    } else if (a == "--audit") {
      fl.audit = true;
    } else if (a == "--progress") {
      fl.progress = true;
    } else if (a == "--full") {
      fl.full = true;
    } else if (!a.empty() && a[0] == '-') {
      usage();
    } else if (positional) {
      positional->push_back(a);
    } else {
      usage();
    }
  }
  return fl;
}

Field make_field(const std::vector<u8>& raw, DType dtype) {
  if (dtype == DType::F32)
    return Field(reinterpret_cast<const float*>(raw.data()), raw.size() / 4);
  return Field(reinterpret_cast<const double*>(raw.data()), raw.size() / 8);
}

int cmd_pack(const std::vector<std::string>& positional, const Flags& fl) {
  if (positional.size() < 2) usage();
  const std::string& out_path = positional[0];
  // Entries are named after input basenames; reject collisions up front,
  // before any compression work, so a clash cannot leave a partial archive
  // on disk (ArchiveWriter::add would throw mid-write otherwise).
  std::vector<std::string> names;
  names.reserve(positional.size() - 1);
  for (std::size_t i = 1; i < positional.size(); ++i) {
    std::string name = std::filesystem::path(positional[i]).filename().string();
    for (std::size_t j = 0; j < names.size(); ++j)
      if (names[j] == name)
        throw CompressionError("pack: inputs '" + positional[j + 1] + "' and '" +
                               positional[i] + "' both map to entry name '" + name +
                               "'; basenames must be unique");
    names.push_back(std::move(name));
  }
  std::unique_ptr<store::ChunkStore> chunk_store;
  if (!fl.store_dir.empty()) {
    store::ChunkStore::Options so;
    so.dir = fl.store_dir;
    if (fl.cache_mb) so.cache.byte_budget = static_cast<std::size_t>(fl.cache_mb) << 20;
    chunk_store = std::make_unique<store::ChunkStore>(so);
  }

  // The staged ingest pipeline overlaps reading, dedup probing, encoding,
  // and the batched segment appends.
  ingest::IngestPipeline::Options po;
  po.dtype = fl.dtype;
  po.params = fl.params;
  po.threads = fl.threads;
  po.audit = fl.audit;
  po.store = chunk_store.get();
  if (fl.progress)
    po.progress = [](const ingest::Result& r, std::size_t i, std::size_t n) {
      if (r.failed || r.cancelled) {
        std::fprintf(stderr, "pfpl: [%zu/%zu] %s: %s\n", i + 1, n, r.name.c_str(),
                     r.error.c_str());
      } else {
        std::fprintf(stderr, "pfpl: [%zu/%zu] %s: %llu -> %zu bytes (ratio %.2f)%s\n",
                     i + 1, n, r.name.c_str(),
                     static_cast<unsigned long long>(r.raw_bytes), r.stream.size(),
                     r.stream.empty() ? 0.0
                                      : static_cast<double>(r.raw_bytes) /
                                            static_cast<double>(r.stream.size()),
                     r.reused ? " [reused]" : "");
      }
    };
  std::vector<ingest::Item> items;
  items.reserve(positional.size() - 1);
  for (std::size_t i = 1; i < positional.size(); ++i)
    items.push_back(ingest::Item{names[i - 1], positional[i], {}});
  ingest::IngestPipeline pipe(po);
  const std::vector<ingest::Result> results = pipe.run(std::move(items));
  if (fl.progress) {
    const ingest::IngestStats& st = pipe.stats();
    std::fprintf(stderr,
                 "pfpl: stages read/hash/encode/append = %.1f/%.1f/%.1f/%.1f ms, "
                 "wall %.1f ms, %llu append batch(es), peak queue %.1f MB\n",
                 st.read_ms, st.hash_ms, st.encode_ms, st.append_ms, st.wall_ms,
                 static_cast<unsigned long long>(st.append_batches),
                 st.peak_queue_bytes / 1e6);
  }
  if (obs::enabled())
    obs::RunReport::global().add_section("ingest", pipe.stats().json());
  if (chunk_store) {
    chunk_store->sync();
    if (obs::enabled())
      obs::RunReport::global().add_section("store", chunk_store->stats_json());
  }

  int failed = 0;
  u64 audit_violations = 0;
  svc::ArchiveWriter writer(out_path);
  for (const ingest::Result& r : results) {
    if (r.failed || r.cancelled) {
      std::fprintf(stderr, "pfpl: %s: %s\n", r.name.c_str(), r.error.c_str());
      ++failed;
      continue;
    }
    if (r.audited && r.audit_violations) {
      std::fprintf(stderr, "pfpl: %s: audit found %llu bound violation(s)\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.audit_violations));
      audit_violations += r.audit_violations;
    }
    writer.add(r.name, r.header, r.stream, r.raw_bytes);
  }
  writer.finish();
  std::printf("%s: %zu entries\n%s\n", out_path.c_str(), results.size() - failed,
              pipe.stats().summary().c_str());
  if (failed) return 1;
  return audit_violations ? 3 : 0;
}

/// `pfpl audit` — run the continuous error-bound audit sweep. The shared
/// --dtype/--eb/--eps flags narrow the sweep along that axis only when given;
/// the default covers every suite x {f32,f64} x {abs,rel,noa} x two bounds.
int cmd_audit(const std::vector<std::string>& positional, const Flags& fl) {
  if (!positional.empty()) usage();
  obs::AuditConfig cfg;
  if (fl.full) cfg.scale_full();
  if (fl.dtype_set) cfg.dtypes = {fl.dtype};
  if (fl.eb_set) cfg.ebs = {fl.params.eb};
  if (fl.eps_set) cfg.bounds = {fl.params.eps};
  if (!fl.suite.empty()) cfg.suites = {fl.suite};
  cfg.exec = fl.params.exec;
  obs::ErrorBoundAuditor auditor(cfg);
  obs::AuditResult res = auditor.run();
  if (obs::enabled()) obs::RunReport::global().add_section("audit", res.json());
  if (fl.json)
    std::printf("%s\n", res.json().c_str());
  else
    std::printf("%s", res.text().c_str());
  return res.ok() ? 0 : 3;
}

int cmd_unpack(const std::vector<std::string>& positional, const Flags& fl) {
  if (positional.size() != 2) usage();
  svc::ArchiveReader reader(positional[0]);
  std::filesystem::create_directories(positional[1]);
  std::size_t n = 0;
  for (const svc::ArchiveEntry& e : reader.entries()) {
    if (!fl.entry.empty() && e.name != fl.entry) continue;
    Bytes stream = reader.read_entry(e);
    std::vector<u8> raw = pfpl::decompress(stream, fl.params.exec);
    std::string out = (std::filesystem::path(positional[1]) / e.name).string();
    io::write_file(out, raw.data(), raw.size());
    std::printf("%s: %zu -> %zu bytes\n", e.name.c_str(), stream.size(), raw.size());
    ++n;
  }
  if (!fl.entry.empty() && n == 0)
    throw CompressionError("PFPA: no entry named '" + fl.entry + "'");
  return 0;
}

int cmd_list(const std::vector<std::string>& positional) {
  if (positional.size() != 1) usage();
  svc::ArchiveReader reader(positional[0]);
  std::printf("%-24s %-5s %-4s %-10s %12s %12s %8s\n", "name", "dtype", "eb", "eps",
              "raw", "compressed", "ratio");
  for (const svc::ArchiveEntry& e : reader.entries()) {
    std::printf("%-24s %-5s %-4s %-10g %12llu %12llu %8.3f\n", e.name.c_str(),
                to_string(e.dtype), to_string(e.eb_type), e.eps,
                static_cast<unsigned long long>(e.raw_size),
                static_cast<unsigned long long>(e.size),
                e.size ? static_cast<double>(e.raw_size) / static_cast<double>(e.size) : 0.0);
  }
  std::printf("%zu entries\n", reader.entries().size());
  return 0;
}

/// First 4 bytes of `path` as a little-endian u32 (0 when shorter).
u32 peek_magic(const std::string& path) {
  std::vector<u8> head = io::read_file(path);
  if (head.size() < 4) return 0;
  return static_cast<u32>(head[0]) | static_cast<u32>(head[1]) << 8 |
         static_cast<u32>(head[2]) << 16 | static_cast<u32>(head[3]) << 24;
}

/// Exit 2 with a clear message for a container whose magic `verb` does not
/// handle — never fall through to misparsing it as something else.
[[noreturn]] void reject_magic(const char* verb, const std::string& path, u32 magic) {
  const u8 b[4] = {static_cast<u8>(magic), static_cast<u8>(magic >> 8),
                   static_cast<u8>(magic >> 16), static_cast<u8>(magic >> 24)};
  auto printable = [](u8 c) { return c >= 0x20 && c < 0x7F; };
  char tag[5] = {0};
  bool text = true;
  for (int i = 0; i < 4; ++i) {
    tag[i] = static_cast<char>(b[i]);
    text = text && printable(b[i]);
  }
  std::fprintf(stderr,
               "pfpl %s: %s: unhandled container magic 0x%08X%s%s%s "
               "(handled here: %s)\n",
               verb, path.c_str(), magic, text ? " ('" : "", text ? tag : "",
               text ? "')" : "",
               std::string(verb) == "stats" ? "PFPA, PFPL, PFPV" : "PFPV");
  std::exit(2);
}

/// `pfpl stats` on a PFPV frame stream (also the body of `pfpl stream info`).
int pfpv_stats(const std::string& path, bool json) {
  temporal::StreamReader reader(path);
  const temporal::SessionConfig& cfg = reader.config();
  u64 iframes = 0, pframes = 0, payload_bytes = 0, predicted_chunks = 0,
      intra_chunks = 0;
  for (std::size_t i = 0; i < reader.frame_count(); ++i) {
    const temporal::EncodedFrame f = reader.frame(i);
    (f.type == temporal::FrameType::Intra ? iframes : pframes) += 1;
    payload_bytes += f.byte_size();
    predicted_chunks += f.predicted_chunks;
    intra_chunks += f.intra_chunks;
  }
  const double raw_bytes =
      static_cast<double>(reader.frame_count()) * static_cast<double>(cfg.frame_bytes());
  const std::uintmax_t file_bytes = std::filesystem::file_size(path);
  const double ratio = file_bytes ? raw_bytes / static_cast<double>(file_bytes) : 0.0;
  if (json) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("file", path);
    w.kv("kind", "pfpv");
    w.kv("dtype", to_string(cfg.dtype));
    w.kv("eb", to_string(cfg.eb));
    w.kv("eps", cfg.eps);
    w.key("dims").begin_array();
    for (u32 d : cfg.dims) w.value(static_cast<unsigned long long>(d));
    w.end_array();
    w.kv("keyframe_interval", static_cast<unsigned long long>(cfg.keyframe_interval));
    w.kv("frames", static_cast<unsigned long long>(reader.frame_count()));
    w.kv("iframes", static_cast<unsigned long long>(iframes));
    w.kv("pframes", static_cast<unsigned long long>(pframes));
    w.kv("predicted_chunks", static_cast<unsigned long long>(predicted_chunks));
    w.kv("intra_chunks", static_cast<unsigned long long>(intra_chunks));
    w.kv("keyframes", static_cast<unsigned long long>(reader.keyframes().size()));
    w.kv("raw_bytes", raw_bytes);
    w.kv("file_bytes", static_cast<unsigned long long>(file_bytes));
    w.kv("payload_bytes", static_cast<unsigned long long>(payload_bytes));
    w.kv("ratio", ratio);
    w.kv("truncated", reader.truncated());
    w.kv("truncated_bytes", static_cast<unsigned long long>(reader.truncated_bytes()));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s: pfpv stream, dtype=%s eb=%s eps=%g dims=%ux%ux%u "
                "keyframe-interval=%u\n",
                path.c_str(), to_string(cfg.dtype), to_string(cfg.eb), cfg.eps,
                cfg.dims[0], cfg.dims[1], cfg.dims[2], cfg.keyframe_interval);
    std::printf("frames=%zu (%llu I + %llu P), chunks %llu predicted + %llu intra, "
                "%zu keyframe(s) indexed\n",
                reader.frame_count(), static_cast<unsigned long long>(iframes),
                static_cast<unsigned long long>(pframes),
                static_cast<unsigned long long>(predicted_chunks),
                static_cast<unsigned long long>(intra_chunks),
                reader.keyframes().size());
    std::printf("raw=%.0f file=%llu bytes ratio=%.3f\n", raw_bytes,
                static_cast<unsigned long long>(file_bytes), ratio);
    if (reader.truncated())
      std::printf("TRUNCATED: recovered %zu complete frame(s), discarded %zu torn "
                  "byte(s)\n",
                  reader.frame_count(), reader.truncated_bytes());
  }
  return 0;
}

int cmd_stats(const std::vector<std::string>& positional, const Flags& fl) {
  if (positional.size() != 1) usage();
  const std::string& path = positional[0];
  // Dispatch on the container magic up front: a file none of the handled
  // formats claims is rejected (exit 2) instead of misparsed by whichever
  // parser happens to throw last.
  const u32 magic = peek_magic(path);
  if (magic == temporal::kPfpvMagic) return pfpv_stats(path, fl.json);
  if (magic != svc::kArchiveMagic && magic != pfpl::kMagic)
    reject_magic("stats", path, magic);
  if (magic == svc::kArchiveMagic) {
    svc::ArchiveReader reader(path);
    u64 total_raw = 0, total_comp = 0;
    for (const svc::ArchiveEntry& e : reader.entries()) {
      total_raw += e.raw_size;
      total_comp += e.size;
    }
    double ratio = total_comp ? static_cast<double>(total_raw) / total_comp : 0.0;
    if (fl.json) {
      obs::JsonWriter w;
      w.begin_object();
      w.kv("file", path);
      w.kv("kind", "pfpa");
      w.key("entries").begin_array();
      for (const svc::ArchiveEntry& e : reader.entries()) {
        w.begin_object();
        w.kv("name", e.name);
        w.kv("dtype", to_string(e.dtype));
        w.kv("eb", to_string(e.eb_type));
        w.kv("eps", e.eps);
        w.kv("raw_bytes", static_cast<unsigned long long>(e.raw_size));
        w.kv("compressed_bytes", static_cast<unsigned long long>(e.size));
        w.kv("ratio", e.size ? static_cast<double>(e.raw_size) / e.size : 0.0);
        w.end_object();
      }
      w.end_array();
      w.key("totals").begin_object();
      w.kv("entries", static_cast<unsigned long long>(reader.entries().size()));
      w.kv("raw_bytes", static_cast<unsigned long long>(total_raw));
      w.kv("compressed_bytes", static_cast<unsigned long long>(total_comp));
      w.kv("ratio", ratio);
      w.end_object();
      w.end_object();
      std::printf("%s\n", w.str().c_str());
    } else {
      std::printf("%s: pfpa archive, %zu entries, raw=%llu compressed=%llu ratio=%.3f\n",
                  path.c_str(), reader.entries().size(),
                  static_cast<unsigned long long>(total_raw),
                  static_cast<unsigned long long>(total_comp), ratio);
    }
    return 0;
  }
  Bytes in = io::read_file(path);
  pfpl::Header h = pfpl::peek_header(in);
  double raw = static_cast<double>(h.value_count) * dtype_size(h.dtype);
  double ratio = in.size() ? raw / static_cast<double>(in.size()) : 0.0;
  if (fl.json) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("file", path);
    w.kv("kind", "pfpl");
    w.kv("dtype", to_string(h.dtype));
    w.kv("eb", to_string(h.eb_type));
    w.kv("eps", h.eps);
    w.kv("recon_param", h.recon_param);
    w.kv("values", static_cast<unsigned long long>(h.value_count));
    w.kv("chunks", static_cast<unsigned long long>(h.chunk_count));
    w.kv("compressed_bytes", static_cast<unsigned long long>(in.size()));
    w.kv("ratio", ratio);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s: pfpl stream, dtype=%s eb=%s eps=%g values=%llu chunks=%u "
                "compressed=%zu ratio=%.3f\n",
                path.c_str(), to_string(h.dtype), to_string(h.eb_type), h.eps,
                static_cast<unsigned long long>(h.value_count), h.chunk_count, in.size(),
                ratio);
  }
  return 0;
}

// SIGINT/SIGTERM handler target for `pfpl serve`. request_stop() is
// async-signal-safe (atomic store + one write() on the wake pipe).
net::Server* g_serving = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_serving) g_serving->request_stop();
}

int cmd_serve(const std::vector<std::string>& positional, const Flags& fl) {
  if (!positional.empty()) usage();
  net::Server::Options opts;
  opts.bind_host = fl.bind;
  opts.port = static_cast<u16>(fl.port);
  opts.threads = fl.threads;
  if (fl.max_inflight) opts.max_inflight_bytes = fl.max_inflight;
  opts.exec = fl.params.exec;
  opts.slow_ms = fl.slow_ms;
  opts.metrics_port = fl.metrics_port;
  opts.flight_ms = fl.flight_ms;
  opts.flight_depth = fl.flight_depth;
  opts.stall_ms = fl.stall_ms;
  opts.crash_dir = fl.crash_dir;
  opts.max_conns = fl.max_conns;
  opts.max_sessions = fl.max_sessions;
  opts.session_idle_ms = fl.session_idle_ms;
  if (!fl.slow_log.empty()) {
    // Route slow-request events (and any other EventLog traffic) to a file
    // instead of stderr. Deliberately independent of --trace/--metrics: the
    // slow log is a production artifact, not a span-recording artifact.
    obs::EventLog::Options lo;
    lo.path = fl.slow_log;
    obs::EventLog::global().configure(lo);
  }
  if (!fl.store_dir.empty() || fl.cache_mb) {
    // --store DIR enables the persistent tier; --cache-mb alone runs a
    // memory-only result cache in front of the workers.
    store::ChunkStore::Options so;
    so.dir = fl.store_dir;
    if (fl.cache_mb) so.cache.byte_budget = static_cast<std::size_t>(fl.cache_mb) << 20;
    opts.store = std::make_shared<store::ChunkStore>(so);
  }
  net::Server server(opts);
  g_serving = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  // One parseable line, flushed before the loop starts, so scripts (and the
  // CI smoke job) can learn the bound port even when stdout is a pipe.
  std::printf("pfpl: serving on %s:%u (threads=%u, exec=%s, max-inflight=%zu)\n",
              opts.bind_host.c_str(), static_cast<unsigned>(server.port()),
              opts.threads, to_string(opts.exec), opts.max_inflight_bytes);
  if (opts.store)
    std::printf("pfpl: chunk store: cache=%zuMB%s%s\n",
                opts.store->cache().byte_budget() >> 20,
                opts.store->persistent() ? " dir=" : " (memory only)",
                fl.store_dir.c_str());
  // Same contract as the serving line: parseable, flushed before the loop.
  if (fl.metrics_port >= 0)
    std::printf("pfpl: metrics on %s:%u (GET /metrics, /metrics.json, /stats, /history)\n",
                opts.bind_host.c_str(), static_cast<unsigned>(server.metrics_port()));
  if (fl.slow_ms > 0)
    std::printf("pfpl: slow-request capture: threshold=%dms log=%s\n", fl.slow_ms,
                fl.slow_log.empty() ? "stderr" : fl.slow_log.c_str());
  if (fl.flight_ms > 0 || fl.stall_ms > 0 || !fl.crash_dir.empty())
    std::printf("pfpl: flight recorder: interval=%dms depth=%d stall=%llums "
                "crash-dir=%s\n",
                fl.flight_ms > 0 ? fl.flight_ms : 1000, fl.flight_depth,
                static_cast<unsigned long long>(fl.stall_ms),
                fl.crash_dir.empty() ? "(none)" : fl.crash_dir.c_str());
  std::printf("pfpl: stream sessions: max=%zu idle-timeout=%dms\n", opts.max_sessions,
              opts.session_idle_ms);
  std::fflush(stdout);
  server.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serving = nullptr;
  const net::Server::Stats st = server.stats();
  std::printf("pfpl: server drained: %llu conns, %llu compress + %llu decompress + "
              "%llu other requests, %llu errors, rx=%llu tx=%llu bytes\n",
              static_cast<unsigned long long>(st.connections_accepted),
              static_cast<unsigned long long>(st.requests_compress),
              static_cast<unsigned long long>(st.requests_decompress),
              static_cast<unsigned long long>(st.requests_other),
              static_cast<unsigned long long>(st.errors),
              static_cast<unsigned long long>(st.bytes_rx),
              static_cast<unsigned long long>(st.bytes_tx));
  if (opts.store) {
    opts.store->sync();
    std::printf("pfpl: chunk store: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(st.store_hits),
                static_cast<unsigned long long>(st.store_misses));
  }
  if (st.sessions_opened)
    std::printf("pfpl: stream sessions: %llu opened, %llu closed, %llu evicted, "
                "%llu frames\n",
                static_cast<unsigned long long>(st.sessions_opened),
                static_cast<unsigned long long>(st.sessions_closed),
                static_cast<unsigned long long>(st.sessions_evicted),
                static_cast<unsigned long long>(st.stream_frames));
  if (obs::enabled()) obs::RunReport::global().add_section("net", server.stats_json());
  return 0;
}

int cmd_remote(const std::vector<std::string>& positional, const Flags& fl) {
  if (positional.empty()) usage();
  const std::string& verb = positional[0];
  if (fl.host.empty()) {
    std::fprintf(stderr, "pfpl remote: --host H:P is required\n");
    usage();
  }
  net::Client::Options copts;
  net::split_host_port(fl.host, copts.host, copts.port);
  if (fl.timeout_ms > 0) {
    copts.connect_timeout_ms = fl.timeout_ms;
    copts.request_timeout_ms = fl.timeout_ms;
  }
  net::Client client(copts);
  if (verb == "compress") {
    if (positional.size() != 3) usage();
    std::vector<u8> raw = io::read_file(positional[1]);
    Bytes out = client.compress(raw.data(), raw.size(), fl.dtype, fl.params.eb,
                                fl.params.eps);
    io::write_file(positional[2], out.data(), out.size());
    std::printf("%zu -> %zu bytes (ratio %.3f)\n", raw.size(), out.size(),
                out.empty() ? 0.0
                            : static_cast<double>(raw.size()) /
                                  static_cast<double>(out.size()));
    return 0;
  }
  if (verb == "decompress") {
    if (positional.size() != 3) usage();
    Bytes in = io::read_file(positional[1]);
    std::vector<u8> raw = client.decompress(in);
    io::write_file(positional[2], raw.data(), raw.size());
    std::printf("%zu -> %zu bytes\n", in.size(), raw.size());
    return 0;
  }
  if (positional.size() != 1) usage();
  if (verb == "stats") {
    std::printf("%s\n", client.stats().c_str());
    return 0;
  }
  if (verb == "metrics") {
    // Prometheus text already ends in '\n'; the JSON documents do not.
    const std::string doc = fl.history ? client.metrics_fmt("history")
                                       : client.metrics(fl.prom);
    std::printf(fl.prom ? "%s" : "%s\n", doc.c_str());
    return 0;
  }
  if (verb == "ping") {
    client.ping();
    std::printf("pfpl: %s is alive\n", fl.host.c_str());
    return 0;
  }
  if (verb == "shutdown") {
    client.shutdown_server();
    std::printf("pfpl: %s is draining\n", fl.host.c_str());
    return 0;
  }
  usage();
}

/// Scrape one server's METRICS document into a TopSample.
cli::TopSample scrape_metrics(net::Client& client) {
  auto num = [](const obs::JsonValue& o, const char* k) -> double {
    return o.has(k) ? o.at(k).num : 0.0;
  };
  cli::TopSample s;
  s.t = std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
  const obs::JsonValue doc = obs::parse_json(client.metrics(false));
  const obs::JsonValue& st = doc.at("stats");
  s.req = num(st, "requests_compress") + num(st, "requests_decompress") +
          num(st, "requests_other");
  s.bytes_rx = num(st, "bytes_rx");
  s.bytes_tx = num(st, "bytes_tx");
  s.hits = num(st, "store_hits");
  s.misses = num(st, "store_misses");
  s.conns = num(st, "connections_current");
  s.slow = num(st, "slow_requests_captured");
  s.errors = num(st, "errors");
  if (st.has("sessions")) s.sessions = num(st.at("sessions"), "current");
  const obs::JsonValue& m = doc.at("metrics");
  if (m.has("gauges") && m.at("gauges").has("svc.pool.queue_depth"))
    s.queue = num(m.at("gauges").at("svc.pool.queue_depth"), "value");
  if (m.has("histograms") && m.at("histograms").has("net.request_us")) {
    const obs::JsonValue& h = m.at("histograms").at("net.request_us");
    if (num(h, "count") > 0) {
      s.has_hist = true;
      s.p50 = num(h, "p50");
      s.p95 = num(h, "p95");
      s.p99 = num(h, "p99");
      if (h.has("bounds"))
        for (const obs::JsonValue& b : h.at("bounds").arr) s.bounds.push_back(b.num);
      if (h.has("buckets"))
        for (const obs::JsonValue& b : h.at("buckets").arr) s.buckets.push_back(b.num);
    }
  }
  return s;
}

/// `pfpl top` — poll the server's METRICS op and render one status line per
/// tick. Rates (req/s, MB/s, hit ratio) are deltas between consecutive
/// scrapes; latency quantiles come from the net.request_us histogram bucket
/// deltas over the same window, falling back to the server's cumulative
/// quantiles on the first tick or when the window saw no requests. Columns
/// show '-' when the server has span/metric recording disabled (the stats
/// block is always live, so throughput still renders).
int cmd_top(const std::vector<std::string>& positional, const Flags& fl) {
  if (!positional.empty()) usage();
  if (fl.host.empty()) {
    std::fprintf(stderr, "pfpl top: --host H:P is required\n");
    usage();
  }
  net::Client::Options copts;
  net::split_host_port(fl.host, copts.host, copts.port);
  if (fl.timeout_ms > 0) {
    copts.connect_timeout_ms = fl.timeout_ms;
    copts.request_timeout_ms = fl.timeout_ms;
  }
  net::Client client(copts);

  auto scrape = [&]() -> cli::TopSample { return scrape_metrics(client); };

  const std::string ticks =
      fl.count ? " (" + std::to_string(fl.count) + " ticks)" : std::string();
  std::printf("pfpl top: %s every %dms%s\n", fl.host.c_str(), fl.interval_ms,
              ticks.c_str());
  std::printf("%10s %10s %10s %9s %9s %9s %6s %6s %6s %6s %6s\n", "req/s",
              "rx MB/s", "tx MB/s", "p50(us)", "p95(us)", "p99(us)", "hit%", "conns",
              "sess", "queue", "slow");
  std::fflush(stdout);

  cli::TopSample prev = scrape();
  for (int tick = 0; fl.count == 0 || tick < fl.count; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fl.interval_ms));
    cli::TopSample cur = scrape();
    const cli::TopWindow w =
        cli::compute_window(prev, cur, fl.interval_ms / 1000.0);
    if (w.reset) {
      // Cumulative counters went backwards: the server restarted between
      // scrapes. Rates over that window are meaningless — say so and
      // re-anchor on the new process's counters.
      std::printf("%10s  -- server restarted, counters reset --\n", "");
      std::fflush(stdout);
      prev = cur;
      continue;
    }

    char q50[32], q95[32], q99[32], hitbuf[16];
    auto fmt_q = [](char* buf, std::size_t n, double v) {
      if (v < 0)
        std::snprintf(buf, n, "-");
      else
        std::snprintf(buf, n, "%.0f", v);
    };
    fmt_q(q50, sizeof q50, w.p50);
    fmt_q(q95, sizeof q95, w.p95);
    fmt_q(q99, sizeof q99, w.p99);
    if (w.have_hit)
      std::snprintf(hitbuf, sizeof hitbuf, "%.1f", w.hit_pct);
    else
      std::snprintf(hitbuf, sizeof hitbuf, "-");
    std::printf("%10.1f %10.2f %10.2f %9s %9s %9s %6s %6.0f %6.0f %6.0f %6.0f\n",
                w.rps, w.rx_mbps, w.tx_mbps, q50, q95, q99, hitbuf, cur.conns,
                cur.sessions, cur.queue, cur.slow);
    std::fflush(stdout);
    prev = cur;
  }
  return 0;
}

/// `pfpl profile` — per-kernel throughput attribution over the synthetic
/// suites. Forces metric recording on, runs compress -> decompress for every
/// (suite, file) of each dtype group, and prints the kernel attribution
/// table per group, with a consistency line against the whole-chunk timer
/// (attributed kernel time can never exceed core.encode_chunk_us — per-call
/// durations are floored to whole microseconds).
int cmd_profile(const std::vector<std::string>& positional, const Flags& fl) {
  if (!positional.empty()) usage();
  // Validate --suite against BOTH suite families up front: an unknown name
  // exits 2 with the full roster instead of silently profiling nothing.
  bool suite_is_evolving = false;
  if (!fl.suite.empty()) {
    bool known = false;
    for (const data::SuiteSpec& s : data::paper_suites())
      known = known || s.name == fl.suite;
    for (const data::EvolvingSpec& s : data::evolving_suites())
      if (s.name == fl.suite) known = suite_is_evolving = true;
    if (!known) {
      std::string roster;
      for (const data::SuiteSpec& s : data::paper_suites()) roster += s.name + " ";
      for (const data::EvolvingSpec& s : data::evolving_suites()) roster += s.name + " ";
      std::fprintf(stderr, "pfpl profile: unknown suite '%s' (snapshot + evolving "
                   "suites: %s)\n", fl.suite.c_str(), roster.c_str());
      return 2;
    }
  }
  obs::set_enabled(true);  // attribution is the whole point of the verb
  const std::size_t target_values = fl.full ? (1u << 20) : (1u << 16);
  const int max_files = fl.full ? 2 : 1;

  obs::JsonWriter jw;
  jw.begin_object();
  jw.kv("schema", "pfpl-profile/1");
  jw.kv("eb", to_string(fl.params.eb));
  jw.kv("eps", fl.params.eps);
  jw.kv("exec", pfpl::to_string(fl.params.exec));
  jw.key("groups").begin_array();

  bool ran_any = false;
  std::string last_report;
  for (DType dtype : {DType::F32, DType::F64}) {
    if (fl.dtype_set && dtype != fl.dtype) continue;
    std::vector<data::Suite> suites;
    std::size_t total_bytes = 0;
    for (const data::SuiteSpec& spec : data::paper_suites()) {
      if (spec.dtype != dtype) continue;
      if (!fl.suite.empty() && spec.name != fl.suite) continue;
      suites.push_back(data::generate(spec, target_values, max_files));
      total_bytes += suites.back().total_bytes();
    }
    if (suites.empty()) continue;
    ran_any = true;

    // Each dtype group starts from a clean registry so its table attributes
    // only its own traffic.
    obs::MetricsRegistry::global().reset();
    for (const data::Suite& s : suites)
      for (const data::SyntheticFile& f : s.files) {
        const Bytes stream = pfpl::compress(f.field(), fl.params);
        const std::vector<u8> back = pfpl::decompress(stream, fl.params.exec);
        (void)back;
      }

    const u64 chunk_us =
        obs::MetricsRegistry::global().histogram("core.encode_chunk_us").sum();
    u64 attributed_us = 0;
    for (const obs::KernelStat& k : obs::kernel_stats())
      if (k.encode) attributed_us += k.us;
    last_report = obs::kernel_report_json();

    if (!fl.json) {
      std::printf("== %s: %zu suite(s), %.1f MB, eb=%s eps=%g exec=%s ==\n",
                  to_string(dtype), suites.size(), total_bytes / 1e6,
                  to_string(fl.params.eb), fl.params.eps,
                  pfpl::to_string(fl.params.exec));
      std::printf("%s", obs::kernel_table_text().c_str());
      std::printf("encode: %llu us in kernels of %llu us per-chunk total (%.1f%% "
                  "attributed)\n\n",
                  static_cast<unsigned long long>(attributed_us),
                  static_cast<unsigned long long>(chunk_us),
                  chunk_us ? 100.0 * static_cast<double>(attributed_us) /
                                 static_cast<double>(chunk_us)
                           : 0.0);
    }
    jw.begin_object();
    jw.kv("dtype", to_string(dtype));
    jw.key("suites").begin_array();
    for (const data::Suite& s : suites) jw.value(s.spec.name);
    jw.end_array();
    jw.kv("bytes", static_cast<unsigned long long>(total_bytes));
    jw.kv("chunk_encode_us", static_cast<unsigned long long>(chunk_us));
    jw.kv("attributed_encode_us", static_cast<unsigned long long>(attributed_us));
    jw.key("kernels").raw(last_report);
    jw.end_object();
  }

  // Temporal groups: the evolving suites run through the PFPV frame path
  // (FrameEncoder/FrameDecoder), so the kernel table attributes the
  // closed-loop prediction traffic too.
  for (const data::EvolvingSpec& spec : data::evolving_suites()) {
    if (!fl.suite.empty() && spec.name != fl.suite) continue;
    if (fl.dtype_set && spec.dtype != fl.dtype) continue;
    if (fl.params.eb == EbType::REL && !suite_is_evolving)
      continue;  // REL sessions are all-intra; profile them only on request
    const std::size_t frames = fl.full ? 32 : 8;
    const data::FrameSequence seq =
        data::generate_evolving(spec, target_values, frames);
    ran_any = true;
    obs::MetricsRegistry::global().reset();
    temporal::SessionConfig cfg;
    cfg.dtype = spec.dtype;
    cfg.eb = fl.params.eb;
    cfg.eps = fl.params.eps;
    cfg.dims = {static_cast<u32>(seq.dims[0]), static_cast<u32>(seq.dims[1]),
                static_cast<u32>(seq.dims[2])};
    cfg.exec = fl.params.exec;
    temporal::FrameEncoder enc(cfg);
    temporal::FrameDecoder dec(cfg);
    std::size_t stream_bytes = 0;
    for (std::size_t i = 0; i < seq.frames(); ++i) {
      const temporal::EncodedFrame ef = enc.encode(seq.frame(i));
      stream_bytes += ef.byte_size();
      dec.decode(ef);
    }
    const u64 chunk_us =
        obs::MetricsRegistry::global().histogram("core.encode_chunk_us").sum();
    last_report = obs::kernel_report_json();
    const std::size_t raw_bytes = seq.frames() * cfg.frame_bytes();
    if (!fl.json) {
      std::printf("== temporal/%s: %zu frame(s), %.1f MB raw, %llu I + %llu P, "
                  "ratio %.2f ==\n",
                  spec.name.c_str(), seq.frames(), raw_bytes / 1e6,
                  static_cast<unsigned long long>(enc.intra_frames()),
                  static_cast<unsigned long long>(enc.predicted_frames()),
                  stream_bytes ? static_cast<double>(raw_bytes) / stream_bytes : 0.0);
      std::printf("%s\n", obs::kernel_table_text().c_str());
    }
    jw.begin_object();
    jw.kv("dtype", to_string(spec.dtype));
    jw.kv("temporal_suite", spec.name);
    jw.kv("frames", static_cast<unsigned long long>(seq.frames()));
    jw.kv("bytes", static_cast<unsigned long long>(raw_bytes));
    jw.kv("stream_bytes", static_cast<unsigned long long>(stream_bytes));
    jw.kv("iframes", static_cast<unsigned long long>(enc.intra_frames()));
    jw.kv("pframes", static_cast<unsigned long long>(enc.predicted_frames()));
    jw.kv("chunk_encode_us", static_cast<unsigned long long>(chunk_us));
    jw.key("kernels").raw(last_report);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();

  if (!ran_any) {
    std::fprintf(stderr, "pfpl profile: no suite matched the filters\n");
    return 1;
  }
  if (fl.json) std::printf("%s\n", jw.str().c_str());
  obs::RunReport::global().add_section("kernels", last_report);
  return 0;
}

/// `pfpl store put/get/ls/compact/verify` — operate a PFPS store directly.
int cmd_store(const std::vector<std::string>& positional, const Flags& fl) {
  if (positional.empty()) usage();
  const std::string& verb = positional[0];
  if (fl.store_dir.empty()) {
    std::fprintf(stderr, "pfpl store: --store DIR is required\n");
    usage();
  }
  store::ChunkStore::Options so;
  so.dir = fl.store_dir;
  if (fl.cache_mb) so.cache.byte_budget = static_cast<std::size_t>(fl.cache_mb) << 20;
  store::ChunkStore cs(so);
  store::SegmentStore& log = *cs.log();

  if (verb == "put") {
    if (positional.size() < 2) usage();
    if (positional.size() == 2) {
      // Single file: the synchronous path, which can print the content key
      // (the pipeline's probe computes keys internally).
      std::vector<u8> raw = io::read_file(positional[1]);
      const common::Hash128 key = store::compress_key(raw.data(), raw.size(), fl.dtype,
                                                      fl.params.eb, fl.params.eps);
      Bytes cached;
      if (cs.get(key, cached)) {
        std::printf("%s: already stored (%zu bytes)\n", key.hex().c_str(), cached.size());
        return 0;
      }
      Bytes stream = pfpl::compress(make_field(raw, fl.dtype), fl.params);
      cs.put(key, stream,
             store::ChunkMeta{fl.dtype, fl.params.eb, fl.params.eps, raw.size()});
      cs.sync();
      std::printf("%s: stored %zu -> %zu bytes (ratio %.3f)\n", key.hex().c_str(),
                  raw.size(), stream.size(),
                  stream.empty() ? 0.0
                                 : static_cast<double>(raw.size()) /
                                       static_cast<double>(stream.size()));
      return 0;
    }
    // Multiple files: the staged ingest pipeline (read / dedup probe /
    // encode / batched store appends overlapped) — the same machinery as
    // `pfpl pack`, with the store itself as the sink (no archive).
    ingest::IngestPipeline::Options po;
    po.dtype = fl.dtype;
    po.params = fl.params;
    po.threads = fl.threads;
    po.audit = fl.audit;
    po.store = &cs;
    if (fl.progress)
      po.progress = [](const ingest::Result& r, std::size_t i, std::size_t n) {
        std::fprintf(stderr, "pfpl: [%zu/%zu] %s: %s\n", i + 1, n, r.name.c_str(),
                     r.failed || r.cancelled ? r.error.c_str()
                     : r.reused             ? "already stored"
                                            : "stored");
      };
    std::vector<ingest::Item> items;
    items.reserve(positional.size() - 1);
    for (std::size_t i = 1; i < positional.size(); ++i)
      items.push_back(ingest::Item{positional[i], positional[i], {}});
    ingest::IngestPipeline pipe(po);
    const std::vector<ingest::Result> results = pipe.run(std::move(items));
    cs.sync();
    int failed = 0;
    u64 reused = 0, stored_bytes = 0, raw_bytes = 0, audit_violations = 0;
    for (const ingest::Result& r : results) {
      if (r.failed || r.cancelled) {
        std::fprintf(stderr, "pfpl: %s: %s\n", r.name.c_str(), r.error.c_str());
        ++failed;
        continue;
      }
      reused += r.reused ? 1 : 0;
      stored_bytes += r.stream.size();
      raw_bytes += r.raw_bytes;
      audit_violations += r.audit_violations;
    }
    std::printf("stored %zu file(s) (%llu deduped): %llu -> %llu bytes "
                "(ratio %.3f)\n%s\n",
                results.size() - static_cast<std::size_t>(failed),
                static_cast<unsigned long long>(reused),
                static_cast<unsigned long long>(raw_bytes),
                static_cast<unsigned long long>(stored_bytes),
                stored_bytes ? static_cast<double>(raw_bytes) / stored_bytes : 0.0,
                pipe.stats().summary().c_str());
    if (obs::enabled())
      obs::RunReport::global().add_section("ingest", pipe.stats().json());
    if (failed) return 1;
    return audit_violations ? 3 : 0;
  }
  if (verb == "get") {
    if (positional.size() != 3) usage();
    common::Hash128 key;
    if (!common::Hash128::parse(positional[1], key))
      throw CompressionError("store: '" + positional[1] +
                             "' is not a 32-hex-digit chunk key");
    Bytes payload;
    if (!cs.get(key, payload))
      throw CompressionError("store: no chunk with key " + positional[1]);
    io::write_file(positional[2], payload.data(), payload.size());
    std::printf("%s: %zu bytes -> %s\n", positional[1].c_str(), payload.size(),
                positional[2].c_str());
    return 0;
  }
  if (positional.size() != 1) usage();
  if (verb == "ls") {
    std::printf("%-32s %-5s %-4s %-10s %12s %10s %8s\n", "key", "dtype", "eb", "eps",
                "raw", "stored", "segment");
    u64 total_payload = 0;
    for (const store::StoredChunk& e : log.entries()) {
      std::printf("%-32s %-5s %-4s %-10g %12llu %10llu %8llu\n", e.key.hex().c_str(),
                  to_string(e.meta.dtype), to_string(e.meta.eb), e.meta.eps,
                  static_cast<unsigned long long>(e.meta.raw_size),
                  static_cast<unsigned long long>(e.payload_len),
                  static_cast<unsigned long long>(e.segment));
      total_payload += e.payload_len;
    }
    std::printf("%zu entries, %llu payload bytes, %llu live + %llu dead frame bytes, "
                "generation %llu\n",
                log.entry_count(), static_cast<unsigned long long>(total_payload),
                static_cast<unsigned long long>(log.live_bytes()),
                static_cast<unsigned long long>(log.dead_bytes()),
                static_cast<unsigned long long>(log.generation()));
    return 0;
  }
  if (verb == "compact") {
    const store::SegmentStore::CompactReport rep = log.compact();
    std::printf("compacted %llu -> %llu segments, %llu -> %llu bytes "
                "(%llu reclaimed), %llu live entries\n",
                static_cast<unsigned long long>(rep.segments_before),
                static_cast<unsigned long long>(rep.segments_after),
                static_cast<unsigned long long>(rep.bytes_before),
                static_cast<unsigned long long>(rep.bytes_after),
                static_cast<unsigned long long>(rep.reclaimed_bytes),
                static_cast<unsigned long long>(rep.live_entries));
    return 0;
  }
  if (verb == "verify") {
    const store::SegmentStore::OpenReport& orep = log.open_report();
    if (orep.torn_bytes)
      std::printf("recovery: truncated %llu torn byte(s) off the active segment\n",
                  static_cast<unsigned long long>(orep.torn_bytes));
    if (orep.manifest_recovered)
      std::printf("recovery: manifest was missing/corrupt, rebuilt from scan\n");
    const store::SegmentStore::VerifyReport rep = log.verify();
    std::printf("%llu segment(s), %llu frame(s) ok, %llu corrupt, %llu bytes scanned\n",
                static_cast<unsigned long long>(rep.segments),
                static_cast<unsigned long long>(rep.frames_ok),
                static_cast<unsigned long long>(rep.corrupt_frames),
                static_cast<unsigned long long>(rep.bytes_scanned));
    std::printf("store: %s\n", rep.ok() ? "OK" : "CORRUPT");
    return rep.ok() ? 0 : 1;
  }
  usage();
}

/// Parse `--dims ZxYxX` (slowest-first, matching temporal::SessionConfig).
std::array<u32, 3> parse_stream_dims(const std::string& s) {
  unsigned z = 0, y = 0, x = 0;
  char extra;
  if (std::sscanf(s.c_str(), "%ux%ux%u%c", &z, &y, &x, &extra) != 3 || !z || !y || !x)
    throw CompressionError("invalid --dims '" + s +
                           "' (expected ZxYxX with all dims > 0, e.g. 8x64x64)");
  return {z, y, x};
}

/// Bound-check one decoded frame through the shared audit verifier
/// (obs::ErrorBoundAuditor::verify_field) — the same external judge, audit.*
/// counters, and drill-down the snapshot paths use. A violating frame prints
/// its first offending value so the failure is immediately reproducible.
std::size_t stream_audit_frame(const temporal::SessionConfig& cfg, u64 frame_index,
                               const u8* orig, const u8* recon) {
  const std::array<std::size_t, 3> dims{cfg.dims[0], cfg.dims[1], cfg.dims[2]};
  const Field field = cfg.dtype == DType::F32
                          ? Field(reinterpret_cast<const float*>(orig), dims)
                          : Field(reinterpret_cast<const double*>(orig), dims);
  std::vector<u8> recon_raw(recon, recon + cfg.frame_bytes());
  char label[32];
  std::snprintf(label, sizeof label, "frame-%06llu",
                static_cast<unsigned long long>(frame_index));
  const obs::AuditCase c = obs::ErrorBoundAuditor::verify_field(
      field, recon_raw, cfg.eb, cfg.eps, "stream", label, /*seed=*/0,
      /*compressed_bytes=*/0);
  if (c.violations && c.has_first)
    std::fprintf(stderr,
                 "pfpl stream: FIRST VIOLATION in %s: chunk=%zu index=%zu "
                 "orig=%.17g recon=%.17g err=%.3e allowed=%.3e\n",
                 label, c.first.chunk, c.first.index, c.first.original,
                 c.first.reconstructed, c.first.error, c.first.allowed);
  return c.violations;
}

void write_frame_file(const std::string& dir, u64 index, const void* p,
                      std::size_t n) {
  char name[32];
  std::snprintf(name, sizeof name, "frame-%06llu.raw",
                static_cast<unsigned long long>(index));
  io::write_file((std::filesystem::path(dir) / name).string(), p, n);
}

/// `pfpl stream pack|unpack|info` — author, expand, and inspect PFPV frame
/// streams (docs/FORMAT.md §PFPV). pack sources frames either from raw files
/// (--dims) or from an evolving suite generator (--suite), encodes locally,
/// or — with --host — pushes every frame through a pfpld temporal session
/// and appends the returned records. On session loss (idle eviction, server
/// restart, drain) the remote path reopens a session and resumes: the
/// server's fresh encoder emits a keyframe, so the stream stays decodable.
int cmd_stream(const std::vector<std::string>& positional, const Flags& fl) {
  if (positional.empty()) usage();
  const std::string& verb = positional[0];

  if (verb == "info") {
    if (positional.size() != 2) usage();
    const u32 magic = peek_magic(positional[1]);
    if (magic != temporal::kPfpvMagic) reject_magic("stream info", positional[1], magic);
    return pfpv_stats(positional[1], fl.json);
  }

  if (verb == "unpack") {
    if (positional.size() != 3) usage();
    const u32 magic = peek_magic(positional[1]);
    if (magic != temporal::kPfpvMagic)
      reject_magic("stream unpack", positional[1], magic);
    temporal::StreamReader reader(positional[1]);
    std::filesystem::create_directories(positional[2]);
    temporal::FrameDecoder dec(reader.config());
    for (std::size_t i = 0; i < reader.frame_count(); ++i) {
      const temporal::EncodedFrame f = reader.frame(i);
      const std::vector<u8>& raw = dec.decode(f);
      write_frame_file(positional[2], f.frame_index, raw.data(), raw.size());
    }
    std::printf("%s: %zu frame(s) -> %s (%zu bytes each)\n", positional[1].c_str(),
                reader.frame_count(), positional[2].c_str(),
                reader.config().frame_bytes());
    if (reader.truncated())
      std::printf("TRUNCATED source: %zu torn byte(s) were discarded at pack time "
                  "or on recovery\n",
                  reader.truncated_bytes());
    return 0;
  }

  if (verb != "pack") usage();
  if (positional.size() < 2) usage();
  const std::string& out_path = positional[1];

  // -- assemble the frame source ---------------------------------------------
  temporal::SessionConfig cfg;
  cfg.eb = fl.params.eb;
  cfg.eps = fl.params.eps;
  cfg.keyframe_interval = fl.keyframe_interval;
  cfg.exec = fl.params.exec;
  data::FrameSequence seq;            // --suite mode: owns the frames
  std::vector<std::vector<u8>> raws;  // file mode: one raw buffer per frame
  std::size_t n_frames = 0;
  if (!fl.suite.empty()) {
    if (positional.size() != 2) usage();
    data::EvolvingSpec spec;
    try {
      spec = data::find_evolving(fl.suite);
    } catch (const std::invalid_argument&) {
      std::string roster;
      for (const data::EvolvingSpec& s : data::evolving_suites()) roster += s.name + " ";
      std::fprintf(stderr, "pfpl stream pack: unknown suite '%s' (evolving suites: %s)\n",
                   fl.suite.c_str(), roster.c_str());
      return 2;
    }
    cfg.dtype = spec.dtype;
    seq = data::generate_evolving(spec, fl.values ? fl.values : (1u << 16),
                                  fl.frames ? fl.frames : 64,
                                  fl.seed ? fl.seed : 0x5D12B1E5u);
    cfg.dims = {static_cast<u32>(seq.dims[0]), static_cast<u32>(seq.dims[1]),
                static_cast<u32>(seq.dims[2])};
    n_frames = seq.frames();
  } else {
    if (positional.size() < 3) usage();
    if (fl.dims.empty())
      throw CompressionError("stream pack: --dims ZxYxX is required for raw-file "
                             "frames (or use --suite)");
    cfg.dtype = fl.dtype;
    cfg.dims = parse_stream_dims(fl.dims);
    for (std::size_t i = 2; i < positional.size(); ++i) {
      raws.push_back(io::read_file(positional[i]));
      if (raws.back().size() != cfg.frame_bytes())
        throw CompressionError("stream pack: " + positional[i] + " is " +
                               std::to_string(raws.back().size()) + " bytes, want " +
                               std::to_string(cfg.frame_bytes()) + " (dims " +
                               fl.dims + " x " + to_string(cfg.dtype) + ")");
    }
    n_frames = raws.size();
  }
  // Raw scalar bytes of frame i, whichever source is active.
  auto frame_ptr = [&](std::size_t i) -> const u8* {
    if (!raws.empty()) return raws[i].data();
    if (seq.dtype == DType::F32)
      return reinterpret_cast<const u8*>(seq.f32[i].data());
    return reinterpret_cast<const u8*>(seq.f64[i].data());
  };
  if (!fl.dump_raw.empty()) std::filesystem::create_directories(fl.dump_raw);
  if (!fl.dump_recon.empty()) std::filesystem::create_directories(fl.dump_recon);

  // -- encode (local session or remote pfpld session) ------------------------
  temporal::StreamWriter writer(out_path, cfg);
  // The decoder runs whenever we need reconstructions (audit / dump-recon);
  // it consumes exactly the records that land in the file, so what we audit
  // is what a reader will see.
  const bool want_recon = fl.audit || !fl.dump_recon.empty();
  temporal::FrameDecoder dec(cfg);
  u64 iframes = 0, pframes = 0, violations = 0, reopens = 0;
  auto account = [&](const temporal::EncodedFrame& ef, std::size_t i) {
    (ef.type == temporal::FrameType::Intra ? iframes : pframes) += 1;
    if (!fl.dump_raw.empty())
      write_frame_file(fl.dump_raw, ef.frame_index, frame_ptr(i), cfg.frame_bytes());
    if (!want_recon) return;
    const std::vector<u8>& recon = dec.decode(ef);
    if (fl.audit)
      violations += stream_audit_frame(cfg, ef.frame_index, frame_ptr(i), recon.data());
    if (!fl.dump_recon.empty())
      write_frame_file(fl.dump_recon, ef.frame_index, recon.data(), recon.size());
  };

  if (fl.host.empty()) {
    temporal::FrameEncoder enc(cfg);
    for (std::size_t i = 0; i < n_frames; ++i) {
      Field field = cfg.dtype == DType::F32
                        ? Field(reinterpret_cast<const float*>(frame_ptr(i)),
                                cfg.frame_values())
                        : Field(reinterpret_cast<const double*>(frame_ptr(i)),
                                cfg.frame_values());
      const temporal::EncodedFrame ef = enc.encode(field, i);
      writer.append(ef);
      account(ef, i);
    }
  } else {
    net::Client::Options copts;
    net::split_host_port(fl.host, copts.host, copts.port);
    if (fl.timeout_ms > 0) {
      copts.connect_timeout_ms = fl.timeout_ms;
      copts.request_timeout_ms = fl.timeout_ms;
    }
    net::Client client(copts);
    auto open_session = [&]() {
      return client.stream_open(cfg.dtype, cfg.eb, cfg.eps, cfg.dims,
                                cfg.keyframe_interval);
    };
    u64 sid = open_session();
    // Reopen pacing: 100 ms doubling to a 2 s cap, jittered so clients that
    // lost the same server do not reconnect in lockstep. Five reopens wait
    // at least 1.55 s in total, enough to ride out a server restart.
    constexpr unsigned kMaxReopensPerFrame = 5;
    net::BackoffJitter jitter(net::process_jitter_seed());
    for (std::size_t i = 0; i < n_frames; ++i) {
      Bytes record;
      unsigned attempts = 0;
      for (;;) {
        try {
          record = client.stream_frame(sid, i, frame_ptr(i), cfg.frame_bytes());
          break;
        } catch (const net::RemoteError& e) {
          // BadSession (evicted / server restarted) and Draining are the two
          // recoverable refusals: a fresh session resumes at a keyframe.
          // Anything else is a real answer — propagate it.
          if (e.status() != static_cast<u16>(net::Status::BadSession) &&
              e.status() != static_cast<u16>(net::Status::Draining))
            throw;
          if (++attempts > kMaxReopensPerFrame) throw;
        } catch (const net::NetError&) {
          if (++attempts > kMaxReopensPerFrame) throw;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(net::backoff_ms(attempts, 100, 2000, jitter)));
        try {
          sid = open_session();
          ++reopens;
          std::fprintf(stderr,
                       "pfpl stream: session lost at frame %zu; reopened as %llu "
                       "(next frame is a keyframe)\n",
                       i, static_cast<unsigned long long>(sid));
        } catch (const net::NetError&) {
          // Server still down; the next loop iteration backs off and retries.
        }
      }
      writer.append_encoded(record);
      temporal::EncodedFrame ef;
      if (!temporal::decode_frame_record(record.data(), record.size(), ef))
        throw CompressionError("stream pack: server returned an invalid PFPV "
                               "record for frame " + std::to_string(i));
      account(ef, i);
    }
    try {
      client.stream_close(sid);
    } catch (const net::NetError&) {
      // Close is best-effort: the stream on disk is already complete and the
      // server will idle-evict the session.
    }
  }
  writer.finish();

  const std::uintmax_t file_bytes = std::filesystem::file_size(out_path);
  const double raw_bytes = static_cast<double>(n_frames) *
                           static_cast<double>(cfg.frame_bytes());
  std::printf("%s: %zu frame(s) (%llu I + %llu P), dims=%ux%ux%u %s eb=%s eps=%g\n",
              out_path.c_str(), n_frames, static_cast<unsigned long long>(iframes),
              static_cast<unsigned long long>(pframes), cfg.dims[0], cfg.dims[1],
              cfg.dims[2], to_string(cfg.dtype), to_string(cfg.eb), cfg.eps);
  const std::string via = fl.host.empty()
                              ? std::string()
                              : " via " + fl.host + ", " + std::to_string(reopens) +
                                    " session reopen(s)";
  std::printf("raw=%.0f -> file=%llu bytes (ratio %.3f)%s\n", raw_bytes,
              static_cast<unsigned long long>(file_bytes),
              file_bytes ? raw_bytes / static_cast<double>(file_bytes) : 0.0,
              via.c_str());
  if (fl.audit)
    std::printf("audit: %llu violation(s) across %zu decoded frame(s)%s\n",
                static_cast<unsigned long long>(violations), n_frames,
                violations ? " (BOUND VIOLATED)" : " (bound holds)");
  return violations ? 3 : 0;
}

int run_command(int argc, char** argv) {
  if (argc < 2) usage();
  std::string mode = argv[1];
  // `audit`, `serve`, `top`, and `profile` take no positional arguments;
  // every other verb needs at least one.
  if (mode != "audit" && mode != "serve" && mode != "top" && mode != "profile" &&
      argc < 3)
    usage();
  try {
    if (mode == "pack" || mode == "unpack" || mode == "list" || mode == "stats" ||
        mode == "audit" || mode == "serve" || mode == "remote" || mode == "store" ||
        mode == "top" || mode == "profile" || mode == "stream") {
      std::vector<std::string> positional;
      Flags fl = parse_flags(argc, argv, 2, &positional);
      if (mode == "pack") return cmd_pack(positional, fl);
      if (mode == "unpack") return cmd_unpack(positional, fl);
      if (mode == "stats") return cmd_stats(positional, fl);
      if (mode == "audit") return cmd_audit(positional, fl);
      if (mode == "serve") return cmd_serve(positional, fl);
      if (mode == "remote") return cmd_remote(positional, fl);
      if (mode == "store") return cmd_store(positional, fl);
      if (mode == "top") return cmd_top(positional, fl);
      if (mode == "profile") return cmd_profile(positional, fl);
      if (mode == "stream") return cmd_stream(positional, fl);
      return cmd_list(positional);
    }
    if (mode == "info") {
      Bytes in = io::read_file(argv[2]);
      pfpl::Header h = pfpl::peek_header(in);
      std::printf("dtype=%s eb=%s eps=%g recon_param=%g values=%llu chunks=%u\n",
                  to_string(h.dtype), to_string(h.eb_type), h.eps, h.recon_param,
                  static_cast<unsigned long long>(h.value_count), h.chunk_count);
      std::printf("compressed=%zu bytes  ratio=%.3f\n", in.size(),
                  static_cast<double>(h.value_count) * dtype_size(h.dtype) /
                      static_cast<double>(in.size()));
      return 0;
    }
    if (mode == "verify") {
      if (argc < 4) usage();
      std::vector<u8> orig = io::read_file(argv[2]);
      Bytes comp = io::read_file(argv[3]);
      pfpl::Header h = pfpl::peek_header(comp);
      std::vector<u8> back = pfpl::decompress(comp);
      std::size_t bad = 0;
      double max_abs = 0, max_rel = 0, psnr = 0;
      if (h.dtype == DType::F32) {
        std::span<const float> o(reinterpret_cast<const float*>(orig.data()), orig.size() / 4);
        std::span<const float> r(reinterpret_cast<const float*>(back.data()), back.size() / 4);
        bad = metrics::count_violations(o, r, h.eps, h.eb_type);
        auto st = metrics::compute_stats(o, r);
        max_abs = st.max_abs;
        max_rel = st.max_rel;
        psnr = st.psnr;
      } else {
        std::span<const double> o(reinterpret_cast<const double*>(orig.data()), orig.size() / 8);
        std::span<const double> r(reinterpret_cast<const double*>(back.data()), back.size() / 8);
        bad = metrics::count_violations(o, r, h.eps, h.eb_type);
        auto st = metrics::compute_stats(o, r);
        max_abs = st.max_abs;
        max_rel = st.max_rel;
        psnr = st.psnr;
      }
      std::printf("eb=%s eps=%g  max_abs_err=%.6g max_rel_err=%.6g psnr=%.2f dB\n",
                  to_string(h.eb_type), h.eps, max_abs, max_rel, psnr);
      std::printf("violations: %zu %s\n", bad, bad == 0 ? "(bound holds)" : "(BOUND VIOLATED)");
      return bad == 0 ? 0 : 3;
    }
    if (argc < 4) usage();
    std::string in_path = argv[2], out_path = argv[3];
    Flags fl = parse_flags(argc, argv, 4, nullptr);
    if (mode == "c") {
      std::vector<u8> raw = io::read_file(in_path);
      Bytes out = pfpl::compress(make_field(raw, fl.dtype), fl.params);
      io::write_file(out_path, out.data(), out.size());
      std::printf("%zu -> %zu bytes (ratio %.3f)\n", raw.size(), out.size(),
                  static_cast<double>(raw.size()) / static_cast<double>(out.size()));
      return 0;
    }
    if (mode == "d") {
      Bytes in = io::read_file(in_path);
      std::vector<u8> raw = pfpl::decompress(in, fl.params.exec);
      io::write_file(out_path, raw.data(), raw.size());
      std::printf("%zu -> %zu bytes\n", in.size(), raw.size());
      return 0;
    }
    usage();
  } catch (const CompressionError& e) {
    // Truncated/corrupt streams, bad bounds, archive checksum failures:
    // report cleanly, never let the exception escape as a crash.
    std::fprintf(stderr, "pfpl: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfpl: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ObsFlags obs_fl = strip_obs_flags(argc, argv);
  int rc = run_command(argc, argv);
  flush_obs(obs_fl);
  return rc;
}
