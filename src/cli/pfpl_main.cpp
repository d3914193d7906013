// pfpl — command-line front end for the PFPL compressor. usage() lists every
// verb and flag. main() reads argv once against kFlags and dispatches through
// kVerbs. Exit codes: 0 ok, 1 error, 2 usage, 3 bound violation.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/cpu.hpp"
#include "core/pfpl.hpp"
#include "data/evolving.hpp"
#include "data/synthetic.hpp"
#include "ingest/pipeline.hpp"
#include "io/raw_file.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/audit.hpp"
#include "obs/event_log.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"
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
               "       [--stall-ms N]     # watchdog: flag requests stuck N ms\n"
               "       [--crash-dir DIR]  # fatal-signal crash reports + stall reports\n"
               "       [--max-conns N]    # cap concurrent connections (0 = unlimited)\n"
               "  pfpl remote compress <in.raw> <out.pfpl> --host H:P --dtype f32|f64\n"
               "       --eb abs|rel|noa --eps <e>\n"
               "  pfpl remote decompress <in.pfpl> <out.raw> --host H:P\n"
               "  pfpl remote stats|ping|shutdown --host H:P [--timeout-ms N]\n"
               "  pfpl remote metrics --host H:P [--prom]\n"
               "  pfpl profile [--json] [--suite NAME] [--dtype f32|f64] [--full]\n"
               "       [--eb abs|rel|noa] [--eps <e>] [--exec serial|omp|gpusim]\n"
               "       per-kernel throughput attribution over the synthetic suites\n"
               "  pfpl store put <in1.raw> [in2.raw ...] --store DIR --dtype f32|f64\n"
               "       --eb abs|rel|noa --eps <e> [--exec serial|omp|gpusim]\n"
               "       [--threads N] [--audit] [--progress]  # the ingest pipeline\n"
               "       (dedup probe, parallel encode, group commits); prints each key\n"
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
               "  pfpl stream unpack <in.pfpv> <outdir>   # frame-NNNNNN.raw per frame\n"
               "  pfpl stream info <in.pfpv> [--json]\n"
               "observability (any verb): --trace FILE  --report FILE\n");
  std::exit(2);
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
  std::size_t max_inflight = 0;     ///< `pfpl serve --max-inflight BYTES` (0 = default)
  int timeout_ms = 0;               ///< `pfpl remote --timeout-ms N` (0 = default)
  /// `pfpl serve` flags stored straight into the server's options: --bind,
  /// --port, --slow-ms, --metrics-port, --stall-ms, --crash-dir,
  /// --max-conns.
  net::Server::Options serve;
  // PFPS chunk store (`pfpl serve|pack|store`).
  std::string store_dir;            ///< `--store DIR` (empty = no persistence)
  unsigned cache_mb = 0;            ///< `--cache-mb N` (0 = default 64)
  // Live introspection (`pfpl serve` / `pfpl remote metrics`).
  std::string slow_log;             ///< `pfpl serve --slow-log FILE` (empty = stderr)
  bool prom = false;                ///< `pfpl remote metrics --prom`
  // Temporal stream verbs (`pfpl stream pack`).
  std::string dims;                 ///< `pfpl stream pack --dims ZxYxX`
  std::size_t frames = 0;           ///< `--frames N` (0 = suite default)
  std::size_t values = 0;           ///< `--values N` per frame (0 = default)
  unsigned keyframe_interval = 16;  ///< `--keyframe-interval N`
  u64 seed = 0;                     ///< `--seed S` (0 = suite default)
  std::string dump_raw;             ///< `--dump-raw DIR`: original frames
  std::string dump_recon;           ///< `--dump-recon DIR`: decoded frames
  // Observability (any verb).
  std::string trace_path;           ///< `--trace FILE`: Chrome trace_event JSON
  std::string report_path;          ///< `--report FILE`: pfpl-metrics/1 document
  bool obs_any() const { return !trace_path.empty() || !report_path.empty(); }
};

/// The verb's own object (a complete JSON value) for the --report document's
/// "stats": pack's {"ingest","store"}, the audit result, the server's STATS
/// object, profile's groups. Empty for every other verb.
std::string g_report_stats;

/// Emit the requested observability artifacts (called on every exit path
/// that ran a command, including failures — a trace of a failed run is
/// exactly what you want on the operator's desk). False when one could not
/// be written.
bool flush_obs(const Flags& fl) {
  try {
    if (!fl.report_path.empty()) {
      const std::string doc = obs::metrics_json_doc(g_report_stats);
      io::write_file(fl.report_path, doc.data(), doc.size());
    }
    if (!fl.trace_path.empty())
      obs::TraceRecorder::global().write_chrome_json(fl.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfpl: obs: %s\n", e.what());
    return false;
  }
  return true;
}

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

/// The index of `v` in `names`; anything else is a usage error (exit 2).
std::size_t flag_choice(const char* flag, const std::string& v,
                        std::initializer_list<const char*> names) {
  std::size_t i = 0;
  std::string expected;
  for (const char* n : names) {
    if (v == n) return i;
    if (i++) expected += '|';
    expected += n;
  }
  std::fprintf(stderr, "unknown %s '%s' (expected %s)\n", flag, v.c_str(), expected.c_str());
  usage();
}

void set_dtype(Flags& fl, const char* flag, const std::string& v) {
  constexpr DType kTypes[] = {DType::F32, DType::F64};
  fl.dtype = kTypes[flag_choice(flag, v, {"f32", "f64"})];
  fl.dtype_set = true;
}

void set_eb(Flags& fl, const char* flag, const std::string& v) {
  constexpr EbType kTypes[] = {EbType::ABS, EbType::REL, EbType::NOA};
  fl.params.eb = kTypes[flag_choice(flag, v, {"abs", "rel", "noa"})];
  fl.eb_set = true;
}

void set_exec(Flags& fl, const char* flag, const std::string& v) {
  constexpr pfpl::Executor kExecs[] = {pfpl::Executor::Serial, pfpl::Executor::OpenMP,
                                       pfpl::Executor::GpuSim};
  fl.params.exec = kExecs[flag_choice(flag, v, {"serial", "omp", "gpusim"})];
}

void set_eps(Flags& fl, const char*, const std::string& v) {
  fl.eps_set = true;
  try {
    fl.params.eps = std::stod(v);
  } catch (const std::exception&) {
    throw CompressionError("invalid value for --eps: '" + v + "'");
  }
}

/// The field at the end of a member-pointer path from Flags, such as
/// `&Flags::serve, &net::Server::Options::port`.
template <auto... Path>
auto& field(Flags& fl) {
  return (fl .* ... .* Path);
}

template <auto... Path>
void set_switch(Flags& fl, const char*, const std::string&) {
  field<Path...>(fl) = true;
}

template <auto... Path>
void set_text(Flags& fl, const char*, const std::string& v) {
  field<Path...>(fl) = v;
}

template <u64 Lo, u64 Hi, auto... Path>
void set_uint(Flags& fl, const char* flag, const std::string& v) {
  auto& f = field<Path...>(fl);
  f = static_cast<std::remove_reference_t<decltype(f)>>(flag_uint(flag, v, Lo, Hi));
}

/// One row per flag. A switch takes no value; every other row consumes the
/// next argument and stores it through `store`.
struct FlagRow {
  const char* name;
  bool takes_value;
  void (*store)(Flags& fl, const char* flag, const std::string& value);
};

using Serve = net::Server::Options;
constexpr u64 kInt = std::numeric_limits<int>::max();
constexpr u64 kUint = std::numeric_limits<unsigned>::max();
constexpr u64 kU64 = std::numeric_limits<u64>::max();

constexpr FlagRow kFlags[] = {
    {"--dtype", true, set_dtype},
    {"--eb", true, set_eb},
    {"--eps", true, set_eps},
    {"--exec", true, set_exec},
    {"--threads", true, set_uint<0, 1024, &Flags::threads>},
    {"--entry", true, set_text<&Flags::entry>},
    {"--host", true, set_text<&Flags::host>},
    {"--bind", true, set_text<&Flags::serve, &Serve::bind_host>},
    {"--port", true, set_uint<0, 65535, &Flags::serve, &Serve::port>},
    {"--max-inflight", true, set_uint<0, kU64, &Flags::max_inflight>},
    {"--store", true, set_text<&Flags::store_dir>},
    {"--cache-mb", true, set_uint<1, kUint, &Flags::cache_mb>},
    {"--timeout-ms", true, set_uint<0, kInt, &Flags::timeout_ms>},
    {"--slow-ms", true, set_uint<0, kInt, &Flags::serve, &Serve::slow_ms>},
    {"--slow-log", true, set_text<&Flags::slow_log>},
    {"--stall-ms", true, set_uint<0, kU64, &Flags::serve, &Serve::stall_ms>},
    {"--crash-dir", true, set_text<&Flags::serve, &Serve::crash_dir>},
    {"--metrics-port", true, set_uint<0, 65535, &Flags::serve, &Serve::metrics_port>},
    {"--max-conns", true, set_uint<0, kU64, &Flags::serve, &Serve::max_conns>},
    {"--dims", true, set_text<&Flags::dims>},
    {"--frames", true, set_uint<1, kU64, &Flags::frames>},
    {"--values", true, set_uint<1, kU64, &Flags::values>},
    {"--keyframe-interval", true, set_uint<0, kUint, &Flags::keyframe_interval>},
    {"--seed", true, set_uint<0, kU64, &Flags::seed>},
    {"--dump-raw", true, set_text<&Flags::dump_raw>},
    {"--dump-recon", true, set_text<&Flags::dump_recon>},
    {"--suite", true, set_text<&Flags::suite>},
    {"--trace", true, set_text<&Flags::trace_path>},
    {"--report", true, set_text<&Flags::report_path>},
    {"--prom", false, set_switch<&Flags::prom>},
    {"--json", false, set_switch<&Flags::json>},
    {"--audit", false, set_switch<&Flags::audit>},
    {"--progress", false, set_switch<&Flags::progress>},
    {"--full", false, set_switch<&Flags::full>},
};

/// The one pass over argv: every flag goes through kFlags, wherever it
/// stands; everything else is positional (the verb first).
Flags parse_args(int argc, char** argv, std::vector<std::string>& positional) {
  Flags fl;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.empty() || a[0] != '-') {
      positional.push_back(a);
      continue;
    }
    const FlagRow* row = std::find_if(std::begin(kFlags), std::end(kFlags),
                                      [&](const FlagRow& r) { return a == r.name; });
    if (row == std::end(kFlags)) usage();
    std::string value;
    if (row->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", row->name);
        usage();
      }
      value = argv[++i];
    }
    row->store(fl, row->name, value);
  }
  return fl;
}

/// `raw / packed` bytes, 0 for an empty output.
double ratio(double raw, double packed) { return packed > 0 ? raw / packed : 0.0; }

/// The client of `--host H:P` (with `--timeout-ms`); `verb` requires the host.
net::Client::Options client_options(const Flags& fl, const char* verb) {
  if (fl.host.empty()) {
    std::fprintf(stderr, "pfpl %s: --host H:P is required\n", verb);
    usage();
  }
  net::Client::Options copts;
  net::split_host_port(fl.host, copts.host, copts.port);
  if (fl.timeout_ms > 0) {
    copts.connect_timeout_ms = fl.timeout_ms;
    copts.request_timeout_ms = fl.timeout_ms;
  }
  return copts;
}

/// The chunk store of `--store DIR` (with `--cache-mb`).
store::ChunkStore::Options store_options(const Flags& fl) {
  store::ChunkStore::Options so;
  so.dir = fl.store_dir;
  if (fl.cache_mb) so.cache.byte_budget = static_cast<std::size_t>(fl.cache_mb) << 20;
  return so;
}

/// What `pfpl pack` and `pfpl store put` keep of an ingest run.
struct IngestRun {
  std::vector<ingest::Result> stored;  ///< the items that did not fail, in order
  std::size_t failed = 0;
  u64 audit_violations = 0;
  std::string summary;                 ///< IngestStats::summary()
  /// 1 if an item failed, else 3 on an audit violation.
  int exit_code() const { return failed ? 1 : audit_violations ? 3 : 0; }
};

/// Run the ingest pipeline over `items` into `cs` (may be null). Failed items
/// and audit violations are reported on stderr, `--progress` adds one line
/// per item and the stage timings.
IngestRun run_ingest(std::vector<ingest::Item> items, const Flags& fl, store::ChunkStore* cs) {
  ingest::IngestPipeline::Options po;
  po.dtype = fl.dtype;
  po.params = fl.params;
  po.threads = fl.threads;
  po.audit = fl.audit;
  po.store = cs;
  if (fl.progress)
    po.progress = [](const ingest::Result& r, std::size_t i, std::size_t n) {
      if (r.failed)
        std::fprintf(stderr, "pfpl: [%zu/%zu] %s: %s\n", i + 1, n, r.name.c_str(),
                     r.error.c_str());
      else
        std::fprintf(stderr, "pfpl: [%zu/%zu] %s: %llu -> %zu bytes (ratio %.2f)%s\n",
                     i + 1, n, r.name.c_str(), static_cast<unsigned long long>(r.raw_bytes),
                     r.stream.size(), ratio(r.raw_bytes, r.stream.size()),
                     r.reused ? " [reused]" : "");
    };
  ingest::IngestPipeline pipe(po);
  std::vector<ingest::Result> results = pipe.run(std::move(items));
  const ingest::IngestStats& st = pipe.stats();
  if (fl.progress)
    std::fprintf(stderr,
                 "pfpl: stages read/hash/encode/append = %.1f/%.1f/%.1f/%.1f ms, "
                 "wall %.1f ms, %llu append batch(es), peak queue %.1f MB\n",
                 st.read_ms, st.hash_ms, st.encode_ms, st.append_ms, st.wall_ms,
                 static_cast<unsigned long long>(st.append_batches),
                 st.peak_queue_bytes / 1e6);
  obs::JsonWriter report;
  report.begin_object();
  report.key("ingest").raw(st.json());
  if (cs) {
    cs->sync();
    report.key("store").raw(cs->stats_json());
  }
  g_report_stats = report.end_object().take();
  IngestRun run;
  run.summary = st.summary();
  for (ingest::Result& r : results) {
    if (r.failed) {
      std::fprintf(stderr, "pfpl: %s: %s\n", r.name.c_str(), r.error.c_str());
      ++run.failed;
      continue;
    }
    if (r.audit_violations)
      std::fprintf(stderr, "pfpl: %s: audit found %llu bound violation(s)\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.audit_violations));
    run.audit_violations += r.audit_violations;
    run.stored.push_back(std::move(r));
  }
  return run;
}

int cmd_pack(const std::vector<std::string>& positional, const Flags& fl) {
  const std::string& out_path = positional[0];
  // Entries are named after input basenames; reject collisions up front,
  // before any compression work, so a clash cannot leave a partial archive
  // on disk (ArchiveWriter::add would throw mid-write otherwise).
  std::vector<ingest::Item> items;
  items.reserve(positional.size() - 1);
  for (std::size_t i = 1; i < positional.size(); ++i) {
    std::string name = std::filesystem::path(positional[i]).filename().string();
    for (std::size_t j = 0; j < items.size(); ++j)
      if (items[j].name == name)
        throw CompressionError("pack: inputs '" + positional[j + 1] + "' and '" +
                               positional[i] + "' both map to entry name '" + name +
                               "'; basenames must be unique");
    items.push_back(ingest::Item{std::move(name), positional[i], {}});
  }
  std::unique_ptr<store::ChunkStore> chunk_store;
  if (!fl.store_dir.empty()) chunk_store = std::make_unique<store::ChunkStore>(store_options(fl));
  // The ingest pipeline reads, probes, plans and encodes every file as pool
  // work; this thread only commits and collects the entries in order. A run
  // where every input failed leaves no archive behind.
  const IngestRun run = run_ingest(std::move(items), fl, chunk_store.get());
  if (run.stored.empty()) return run.exit_code();
  svc::ArchiveWriter writer(out_path);
  for (const ingest::Result& r : run.stored) writer.add(r.name, r.header, r.stream, r.raw_bytes);
  writer.finish();
  std::printf("%s: %zu entries\n%s\n", out_path.c_str(), run.stored.size(), run.summary.c_str());
  return run.exit_code();
}

/// `pfpl audit` — run the continuous error-bound audit sweep. The shared
/// --dtype/--eb/--eps flags narrow the sweep along that axis only when given;
/// the default covers every suite x {f32,f64} x {abs,rel,noa} x two bounds.
int cmd_audit(const std::vector<std::string>&, const Flags& fl) {
  obs::AuditConfig cfg;
  if (fl.full) cfg.scale_full();
  if (fl.dtype_set) cfg.dtypes = {fl.dtype};
  if (fl.eb_set) cfg.ebs = {fl.params.eb};
  if (fl.eps_set) cfg.bounds = {fl.params.eps};
  if (!fl.suite.empty()) cfg.suites = {fl.suite};
  cfg.exec = fl.params.exec;
  obs::ErrorBoundAuditor auditor(cfg);
  obs::AuditResult res = auditor.run();
  g_report_stats = res.json();
  if (fl.json)
    std::printf("%s\n", g_report_stats.c_str());
  else
    std::printf("%s", res.text().c_str());
  return res.ok() ? 0 : 3;
}

int cmd_unpack(const std::vector<std::string>& positional, const Flags& fl) {
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

int cmd_list(const std::vector<std::string>& positional, const Flags&) {
  svc::ArchiveReader reader(positional[0]);
  std::printf("%-24s %-5s %-4s %-10s %12s %12s %8s\n", "name", "dtype", "eb", "eps",
              "raw", "compressed", "ratio");
  for (const svc::ArchiveEntry& e : reader.entries()) {
    std::printf("%-24s %-5s %-4s %-10g %12llu %12llu %8.3f\n", e.name.c_str(),
                to_string(e.dtype), to_string(e.eb_type), e.eps,
                static_cast<unsigned long long>(e.raw_size),
                static_cast<unsigned long long>(e.size),
                ratio(e.raw_size, e.size));
  }
  std::printf("%zu entries\n", reader.entries().size());
  return 0;
}

/// First 4 bytes of `path` as a little-endian u32 (0 when shorter).
u32 peek_magic(const std::string& path) {
  if (io::file_size(path) < 4) return 0;
  return common::get_le<u32>(io::read_file_range(path, 0, 4).data());
}

/// Exit 2 with a clear message for a container whose magic `verb` does not
/// handle — never fall through to misparsing it as something else.
[[noreturn]] void reject_magic(const char* verb, const std::string& path, u32 magic) {
  std::string tag;  // the four bytes, quoted when all are printable
  for (int i = 0; i < 4; ++i) tag += static_cast<char>(magic >> (8 * i));
  tag = std::all_of(tag.begin(), tag.end(), [](char c) { return c >= 0x20 && c < 0x7F; })
            ? " ('" + tag + "')"
            : "";
  std::fprintf(stderr, "pfpl %s: %s: unhandled container magic 0x%08X%s (handled here: %s)\n",
               verb, path.c_str(), magic, tag.c_str(),
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
  const double r = ratio(raw_bytes, file_bytes);
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
    w.kv("ratio", r);
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
                static_cast<unsigned long long>(file_bytes), r);
    if (reader.truncated())
      std::printf("TRUNCATED: recovered %zu complete frame(s), discarded %zu torn "
                  "byte(s)\n",
                  reader.frame_count(), reader.truncated_bytes());
  }
  return 0;
}

/// `pfpl stats` on a PFPA archive.
int pfpa_stats(const std::string& path, bool json) {
  svc::ArchiveReader reader(path);
  u64 total_raw = 0, total_comp = 0;
  for (const svc::ArchiveEntry& e : reader.entries()) {
    total_raw += e.raw_size;
    total_comp += e.size;
  }
  if (!json) {
    std::printf("%s: pfpa archive, %zu entries, raw=%llu compressed=%llu ratio=%.3f\n",
                path.c_str(), reader.entries().size(),
                static_cast<unsigned long long>(total_raw),
                static_cast<unsigned long long>(total_comp), ratio(total_raw, total_comp));
    return 0;
  }
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
    w.kv("ratio", ratio(e.raw_size, e.size));
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  w.kv("entries", static_cast<unsigned long long>(reader.entries().size()));
  w.kv("raw_bytes", static_cast<unsigned long long>(total_raw));
  w.kv("compressed_bytes", static_cast<unsigned long long>(total_comp));
  w.kv("ratio", ratio(total_raw, total_comp));
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

/// `pfpl stats` and `pfpl info` on a PFPL stream.
int pfpl_stats(const std::string& path, bool json) {
  const Bytes in = io::read_file(path);
  const pfpl::Header h = pfpl::peek_header(in);
  const pfpl::GuaranteeCost g = pfpl::guarantee_cost(in);
  const double r = ratio(static_cast<double>(h.value_count) * dtype_size(h.dtype), in.size());
  if (!json) {
    std::printf("%s: pfpl stream, dtype=%s eb=%s eps=%g recon_param=%g values=%llu chunks=%u "
                "compressed=%zu ratio=%.3f values_lossless=%llu chunks_raw=%llu "
                "first_lossless_chunk=%lld\n",
                path.c_str(), to_string(h.dtype), to_string(h.eb_type), h.eps, h.recon_param,
                static_cast<unsigned long long>(h.value_count), h.chunk_count, in.size(), r,
                static_cast<unsigned long long>(g.values_lossless),
                static_cast<unsigned long long>(g.chunks_raw),
                static_cast<long long>(g.first_lossless_chunk));
    return 0;
  }
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
  w.kv("ratio", r);
  w.kv("values_lossless", static_cast<unsigned long long>(g.values_lossless));
  w.kv("chunks_raw", static_cast<unsigned long long>(g.chunks_raw));
  w.kv("first_lossless_chunk", static_cast<long long>(g.first_lossless_chunk));
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int cmd_stats(const std::vector<std::string>& positional, const Flags& fl) {
  const std::string& path = positional[0];
  // Dispatch on the container magic up front: a file none of the handled
  // formats claims is rejected (exit 2) instead of misparsed by whichever
  // parser happens to throw last.
  const u32 magic = peek_magic(path);
  if (magic == temporal::kPfpvMagic) return pfpv_stats(path, fl.json);
  if (magic == svc::kArchiveMagic) return pfpa_stats(path, fl.json);
  if (magic == pfpl::kMagic) return pfpl_stats(path, fl.json);
  reject_magic("stats", path, magic);
}

int cmd_info(const std::vector<std::string>& positional, const Flags& fl) {
  return pfpl_stats(positional[0], fl.json);
}

// SIGINT/SIGTERM handler target for `pfpl serve`. request_stop() is
// async-signal-safe (atomic store + one write() on the wake pipe).
net::Server* g_serving = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_serving) g_serving->request_stop();
}

int cmd_serve(const std::vector<std::string>&, const Flags& fl) {
  net::Server::Options opts = fl.serve;
  opts.threads = fl.threads;
  if (fl.max_inflight) opts.max_inflight_bytes = fl.max_inflight;
  opts.exec = fl.params.exec;
  if (!fl.slow_log.empty()) {
    // Route slow-request events (and any other EventLog traffic) to a file
    // instead of stderr. Deliberately independent of --trace/--report: the
    // slow log is a production artifact, not a span-recording artifact.
    obs::EventLog::Options lo;
    lo.path = fl.slow_log;
    obs::EventLog::global().configure(lo);
  }
  if (!fl.store_dir.empty() || fl.cache_mb) {
    // --store DIR enables the persistent tier; --cache-mb alone runs a
    // memory-only result cache in front of the workers.
    opts.store = std::make_shared<store::ChunkStore>(store_options(fl));
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
  if (opts.metrics_port >= 0)
    std::printf("pfpl: metrics on %s:%u (GET /metrics, /metrics.json, /stats)\n",
                opts.bind_host.c_str(), static_cast<unsigned>(server.metrics_port()));
  if (opts.slow_ms > 0)
    std::printf("pfpl: slow-request capture: threshold=%dms log=%s\n", opts.slow_ms,
                fl.slow_log.empty() ? "stderr" : fl.slow_log.c_str());
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
  g_report_stats = server.stats_json();
  return 0;
}

int cmd_remote_compress(const std::vector<std::string>& positional, const Flags& fl) {
  net::Client client(client_options(fl, "remote"));
  const std::vector<u8> raw = io::read_file(positional[0]);
  const Bytes out =
      client.compress(raw.data(), raw.size(), fl.dtype, fl.params.eb, fl.params.eps);
  io::write_file(positional[1], out.data(), out.size());
  std::printf("%zu -> %zu bytes (ratio %.3f)\n", raw.size(), out.size(),
              ratio(raw.size(), out.size()));
  return 0;
}

int cmd_remote_decompress(const std::vector<std::string>& positional, const Flags& fl) {
  net::Client client(client_options(fl, "remote"));
  const Bytes in = io::read_file(positional[0]);
  const std::vector<u8> raw = client.decompress(in);
  io::write_file(positional[1], raw.data(), raw.size());
  std::printf("%zu -> %zu bytes\n", in.size(), raw.size());
  return 0;
}

int cmd_remote_stats(const std::vector<std::string>&, const Flags& fl) {
  net::Client client(client_options(fl, "remote"));
  std::printf("%s\n", client.stats().c_str());
  return 0;
}

int cmd_remote_metrics(const std::vector<std::string>&, const Flags& fl) {
  net::Client client(client_options(fl, "remote"));
  // Prometheus text already ends in '\n'; the JSON document does not.
  const std::string doc = client.metrics(fl.prom);
  std::printf(fl.prom ? "%s" : "%s\n", doc.c_str());
  return 0;
}

int cmd_remote_ping(const std::vector<std::string>&, const Flags& fl) {
  net::Client(client_options(fl, "remote")).ping();
  std::printf("pfpl: %s is alive\n", fl.host.c_str());
  return 0;
}

int cmd_remote_shutdown(const std::vector<std::string>&, const Flags& fl) {
  net::Client(client_options(fl, "remote")).shutdown_server();
  std::printf("pfpl: %s is draining\n", fl.host.c_str());
  return 0;
}

/// `pfpl profile` — per-kernel throughput attribution over the synthetic
/// suites. Forces metric recording on, runs compress -> decompress for every
/// (suite, file) of each dtype group, and prints the kernel attribution
/// table per group, with the share of core.encode_chunk_ns spent in the
/// encode kernels (their spans nest inside the chunk's, so it is at most
/// 100%; NOA's whole-field range pass is its own "plan" row, outside it) and
/// what the guarantee cost the group's streams. `--json` prints the
/// pfpl-metrics/1 document `--report` writes.
int cmd_profile(const std::vector<std::string>&, const Flags& fl) {
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
  const char* isa = common::isa_name(common::isa());  // the rung every table measured

  obs::JsonWriter jw;
  jw.begin_object();
  jw.kv("eb", to_string(fl.params.eb));
  jw.kv("eps", fl.params.eps);
  jw.kv("exec", pfpl::to_string(fl.params.exec));
  jw.kv("isa", isa);
  jw.key("groups").begin_array();

  bool ran_any = false;
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
    pfpl::GuaranteeCost cost;  // summed over the group's streams
    for (const data::Suite& s : suites)
      for (const data::SyntheticFile& f : s.files) {
        const Bytes stream = pfpl::compress(f.field(), fl.params);
        const std::vector<u8> back = pfpl::decompress(stream, fl.params.exec);
        (void)back;
        obs::set_enabled(false);  // its lossless decode is not the table's traffic
        const pfpl::GuaranteeCost g = pfpl::guarantee_cost(stream);
        obs::set_enabled(true);
        cost.values_lossless += g.values_lossless;
        cost.chunks_raw += g.chunks_raw;
        // The lowest of any stream; as u64, -1 (none) is the largest.
        cost.first_lossless_chunk = static_cast<i64>(
            std::min<u64>(cost.first_lossless_chunk, g.first_lossless_chunk));
      }

    const u64 chunk_ns = obs::encode_chunk_ns();
    u64 attributed_ns = 0;
    for (const obs::KernelStat& k : obs::kernel_stats())
      if (k.encode) attributed_ns += k.ns;

    if (!fl.json) {
      std::printf("== %s: %zu suite(s), %.1f MB, eb=%s eps=%g exec=%s isa=%s ==\n",
                  to_string(dtype), suites.size(), total_bytes / 1e6,
                  to_string(fl.params.eb), fl.params.eps,
                  pfpl::to_string(fl.params.exec), isa);
      std::printf("%s", obs::kernel_table_text(total_bytes).c_str());
      std::printf("encode: %.3f ms in kernels of %.3f ms per-chunk total (%.1f%% "
                  "attributed)\n",
                  attributed_ns / 1e6, chunk_ns / 1e6,
                  chunk_ns ? 100.0 * static_cast<double>(attributed_ns) /
                                 static_cast<double>(chunk_ns)
                           : 0.0);
      std::printf("guarantee: values_lossless=%llu chunks_raw=%llu first_lossless_chunk=%lld\n\n",
                  static_cast<unsigned long long>(cost.values_lossless),
                  static_cast<unsigned long long>(cost.chunks_raw),
                  static_cast<long long>(cost.first_lossless_chunk));
    }
    jw.begin_object();
    jw.kv("dtype", to_string(dtype));
    jw.key("suites").begin_array();
    for (const data::Suite& s : suites) jw.value(s.spec.name);
    jw.end_array();
    jw.kv("bytes", static_cast<unsigned long long>(total_bytes));
    jw.kv("chunk_encode_ns", static_cast<unsigned long long>(chunk_ns));
    jw.kv("attributed_encode_ns", static_cast<unsigned long long>(attributed_ns));
    jw.kv("values_lossless", static_cast<unsigned long long>(cost.values_lossless));
    jw.kv("chunks_raw", static_cast<unsigned long long>(cost.chunks_raw));
    jw.kv("first_lossless_chunk", static_cast<long long>(cost.first_lossless_chunk));
    jw.key("kernels").raw(obs::kernel_json(total_bytes));
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
    const std::size_t raw_bytes = seq.frames() * cfg.frame_bytes();
    // Each NOA range pass scans one intra frame.
    const u64 plan_bytes = obs::noa_range_stat(0).calls * cfg.frame_bytes();
    if (!fl.json) {
      std::printf("== temporal/%s: %zu frame(s), %.1f MB raw, %llu I + %llu P, "
                  "ratio %.2f isa=%s ==\n",
                  spec.name.c_str(), seq.frames(), raw_bytes / 1e6,
                  static_cast<unsigned long long>(enc.intra_frames()),
                  static_cast<unsigned long long>(enc.predicted_frames()),
                  stream_bytes ? static_cast<double>(raw_bytes) / stream_bytes : 0.0, isa);
      std::printf("%s\n", obs::kernel_table_text(plan_bytes).c_str());
    }
    jw.begin_object();
    jw.kv("dtype", to_string(spec.dtype));
    jw.kv("temporal_suite", spec.name);
    jw.kv("frames", static_cast<unsigned long long>(seq.frames()));
    jw.kv("bytes", static_cast<unsigned long long>(raw_bytes));
    jw.kv("stream_bytes", static_cast<unsigned long long>(stream_bytes));
    jw.kv("iframes", static_cast<unsigned long long>(enc.intra_frames()));
    jw.kv("pframes", static_cast<unsigned long long>(enc.predicted_frames()));
    jw.kv("chunk_encode_ns", static_cast<unsigned long long>(obs::encode_chunk_ns()));
    jw.key("kernels").raw(obs::kernel_json(plan_bytes));
    jw.end_object();
  }
  jw.end_array();
  g_report_stats = jw.end_object().take();

  if (!ran_any) {
    std::fprintf(stderr, "pfpl profile: no suite matched the filters\n");
    return 1;
  }
  if (fl.json) std::printf("%s\n", obs::metrics_json_doc(g_report_stats).c_str());
  return 0;
}

/// The PFPS store every `pfpl store` verb operates on.
store::ChunkStore open_store(const Flags& fl) {
  if (fl.store_dir.empty()) {
    std::fprintf(stderr, "pfpl store: --store DIR is required\n");
    usage();
  }
  return store::ChunkStore(store_options(fl));
}

int cmd_store_put(const std::vector<std::string>& positional, const Flags& fl) {
  store::ChunkStore cs = open_store(fl);
  // The ingest pipeline (dedup probe, chunk-parallel encode, group commits),
  // the same machinery as `pfpl pack`, with the store itself as the sink.
  std::vector<ingest::Item> items;
  items.reserve(positional.size());
  for (const std::string& path : positional) items.push_back(ingest::Item{path, path, {}});
  const IngestRun run = run_ingest(std::move(items), fl, &cs);
  u64 reused = 0, stored_bytes = 0, raw_bytes = 0;
  for (const ingest::Result& r : run.stored) {
    if (r.reused)
      std::printf("%s: already stored (%zu bytes)\n", r.key.hex().c_str(), r.stream.size());
    else
      std::printf("%s: stored %llu -> %zu bytes (ratio %.3f)\n", r.key.hex().c_str(),
                  static_cast<unsigned long long>(r.raw_bytes), r.stream.size(),
                  ratio(r.raw_bytes, r.stream.size()));
    reused += r.reused ? 1 : 0;
    stored_bytes += r.stream.size();
    raw_bytes += r.raw_bytes;
  }
  std::printf("stored %zu file(s) (%llu deduped): %llu -> %llu bytes (ratio %.3f)\n%s\n",
              run.stored.size(), static_cast<unsigned long long>(reused),
              static_cast<unsigned long long>(raw_bytes),
              static_cast<unsigned long long>(stored_bytes), ratio(raw_bytes, stored_bytes),
              run.summary.c_str());
  return run.exit_code();
}

int cmd_store_get(const std::vector<std::string>& positional, const Flags& fl) {
  store::ChunkStore cs = open_store(fl);
  common::Hash128 key;
  if (!common::Hash128::parse(positional[0], key))
    throw CompressionError("store: '" + positional[0] + "' is not a 32-hex-digit chunk key");
  Bytes payload;
  if (!cs.get(key, payload)) throw CompressionError("store: no chunk with key " + positional[0]);
  io::write_file(positional[1], payload.data(), payload.size());
  std::printf("%s: %zu bytes -> %s\n", positional[0].c_str(), payload.size(),
              positional[1].c_str());
  return 0;
}

int cmd_store_ls(const std::vector<std::string>&, const Flags& fl) {
  store::ChunkStore cs = open_store(fl);
  store::SegmentStore& log = *cs.log();
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

int cmd_store_compact(const std::vector<std::string>&, const Flags& fl) {
  store::ChunkStore cs = open_store(fl);
  store::SegmentStore& log = *cs.log();
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

int cmd_store_verify(const std::vector<std::string>&, const Flags& fl) {
  store::ChunkStore cs = open_store(fl);
  store::SegmentStore& log = *cs.log();
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

/// Parse `--dims ZxYxX` (slowest-first, matching temporal::SessionConfig).
std::array<u32, 3> parse_stream_dims(const std::string& s) {
  unsigned z = 0, y = 0, x = 0;
  char extra;
  if (std::sscanf(s.c_str(), "%ux%ux%u%c", &z, &y, &x, &extra) != 3 || !z || !y || !x)
    throw CompressionError("invalid --dims '" + s +
                           "' (expected ZxYxX with all dims > 0, e.g. 8x64x64)");
  return {z, y, x};
}

/// Print a violating case's first offending value on stderr, so the failure
/// is immediately reproducible.
void print_first_violation(const char* who, const std::string& label, const obs::AuditCase& c) {
  if (c.violations && c.has_first)
    std::fprintf(stderr,
                 "%s: FIRST VIOLATION in %s: chunk=%zu index=%zu "
                 "orig=%.17g recon=%.17g err=%.3e allowed=%.3e\n",
                 who, label.c_str(), c.first.chunk, c.first.index, c.first.original,
                 c.first.reconstructed, c.first.error, c.first.allowed);
}

/// Bound-check one decoded frame through the shared audit verifier
/// (obs::ErrorBoundAuditor::verify_field) — the same external judge, audit.*
/// counters, and drill-down the snapshot paths use.
std::size_t stream_audit_frame(const temporal::SessionConfig& cfg, u64 frame_index,
                               const u8* orig, const u8* recon) {
  const Field field = raw_field(orig, cfg.frame_bytes(), cfg.dtype);
  std::vector<u8> recon_raw(recon, recon + cfg.frame_bytes());
  char label[32];
  std::snprintf(label, sizeof label, "frame-%06llu",
                static_cast<unsigned long long>(frame_index));
  const obs::AuditCase c = obs::ErrorBoundAuditor::verify_field(
      field, recon_raw, cfg.eb, cfg.eps, "stream", label, /*seed=*/0,
      /*compressed_bytes=*/0);
  print_first_violation("pfpl stream", label, c);
  return c.violations;
}

void write_frame_file(const std::string& dir, u64 index, const void* p,
                      std::size_t n) {
  char name[32];
  std::snprintf(name, sizeof name, "frame-%06llu.raw",
                static_cast<unsigned long long>(index));
  io::write_file((std::filesystem::path(dir) / name).string(), p, n);
}

/// Exit 2 unless `path` is a PFPV stream.
void require_pfpv(const char* verb, const std::string& path) {
  const u32 magic = peek_magic(path);
  if (magic != temporal::kPfpvMagic) reject_magic(verb, path, magic);
}

int cmd_stream_info(const std::vector<std::string>& positional, const Flags& fl) {
  require_pfpv("stream info", positional[0]);
  return pfpv_stats(positional[0], fl.json);
}

int cmd_stream_unpack(const std::vector<std::string>& positional, const Flags&) {
  require_pfpv("stream unpack", positional[0]);
  temporal::StreamReader reader(positional[0]);
  std::filesystem::create_directories(positional[1]);
  temporal::FrameDecoder dec(reader.config());
  for (std::size_t i = 0; i < reader.frame_count(); ++i) {
    const temporal::EncodedFrame f = reader.frame(i);
    const std::vector<u8>& raw = dec.decode(f);
    write_frame_file(positional[1], f.frame_index, raw.data(), raw.size());
  }
  std::printf("%s: %zu frame(s) -> %s (%zu bytes each)\n", positional[0].c_str(),
              reader.frame_count(), positional[1].c_str(), reader.config().frame_bytes());
  if (reader.truncated())
    std::printf("TRUNCATED source: %zu torn byte(s) were discarded at pack time "
                "or on recovery\n",
                reader.truncated_bytes());
  return 0;
}

/// `pfpl stream pack` — author a PFPV frame stream (docs/FORMAT.md §PFPV).
/// Frames come either from raw files (--dims) or from an evolving suite
/// generator (--suite), and are encoded locally: the encoder's closed-loop
/// reference is state no PFPN request carries.
int cmd_stream_pack(const std::vector<std::string>& positional, const Flags& fl) {
  const std::string& out_path = positional[0];
  if (!fl.host.empty()) {
    std::fprintf(stderr, "pfpl stream pack: --host is not supported; frames are "
                         "encoded locally\n");
    return 2;
  }

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
    if (positional.size() != 1) usage();
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
    if (positional.size() < 2) usage();
    if (fl.dims.empty())
      throw CompressionError("stream pack: --dims ZxYxX is required for raw-file "
                             "frames (or use --suite)");
    cfg.dtype = fl.dtype;
    cfg.dims = parse_stream_dims(fl.dims);
    for (std::size_t i = 1; i < positional.size(); ++i) {
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

  // -- encode ------------------------------------------------------------------
  temporal::StreamWriter writer(out_path, cfg);
  // The decoder runs whenever we need reconstructions (audit / dump-recon);
  // it consumes exactly the records that land in the file, so what we audit
  // is what a reader will see.
  const bool want_recon = fl.audit || !fl.dump_recon.empty();
  temporal::FrameDecoder dec(cfg);
  temporal::FrameEncoder enc(cfg);
  u64 iframes = 0, pframes = 0, violations = 0;
  for (std::size_t i = 0; i < n_frames; ++i) {
    const u8* raw = frame_ptr(i);
    const temporal::EncodedFrame ef =
        enc.encode(raw_field(raw, cfg.frame_bytes(), cfg.dtype), i);
    writer.append(ef);
    (ef.type == temporal::FrameType::Intra ? iframes : pframes) += 1;
    if (!fl.dump_raw.empty())
      write_frame_file(fl.dump_raw, ef.frame_index, raw, cfg.frame_bytes());
    if (!want_recon) continue;
    const std::vector<u8>& recon = dec.decode(ef);
    if (fl.audit) violations += stream_audit_frame(cfg, ef.frame_index, raw, recon.data());
    if (!fl.dump_recon.empty())
      write_frame_file(fl.dump_recon, ef.frame_index, recon.data(), recon.size());
  }
  writer.finish();

  const std::uintmax_t file_bytes = std::filesystem::file_size(out_path);
  const double raw_bytes = static_cast<double>(n_frames) *
                           static_cast<double>(cfg.frame_bytes());
  std::printf("%s: %zu frame(s) (%llu I + %llu P), dims=%ux%ux%u %s eb=%s eps=%g\n",
              out_path.c_str(), n_frames, static_cast<unsigned long long>(iframes),
              static_cast<unsigned long long>(pframes), cfg.dims[0], cfg.dims[1],
              cfg.dims[2], to_string(cfg.dtype), to_string(cfg.eb), cfg.eps);
  std::printf("raw=%.0f -> file=%llu bytes (ratio %.3f)\n", raw_bytes,
              static_cast<unsigned long long>(file_bytes), ratio(raw_bytes, file_bytes));
  if (fl.audit)
    std::printf("audit: %llu violation(s) across %zu decoded frame(s)%s\n",
                static_cast<unsigned long long>(violations), n_frames,
                violations ? " (BOUND VIOLATED)" : " (bound holds)");
  return violations ? 3 : 0;
}

int cmd_compress(const std::vector<std::string>& positional, const Flags& fl) {
  const std::vector<u8> raw = io::read_file(positional[0]);
  const Bytes out = pfpl::compress(raw_field(raw.data(), raw.size(), fl.dtype), fl.params);
  io::write_file(positional[1], out.data(), out.size());
  std::printf("%zu -> %zu bytes (ratio %.3f)\n", raw.size(), out.size(),
              ratio(raw.size(), out.size()));
  return 0;
}

int cmd_decompress(const std::vector<std::string>& positional, const Flags& fl) {
  const Bytes in = io::read_file(positional[0]);
  const std::vector<u8> raw = pfpl::decompress(in, fl.params.exec);
  io::write_file(positional[1], raw.data(), raw.size());
  std::printf("%zu -> %zu bytes\n", in.size(), raw.size());
  return 0;
}

/// `pfpl verify` — re-check the stream's bound against the original with the
/// audit's judge (obs::ErrorBoundAuditor::verify_field).
int cmd_verify(const std::vector<std::string>& positional, const Flags&) {
  const std::string& orig_path = positional[0];
  const std::vector<u8> orig = io::read_file(orig_path);
  const Bytes comp = io::read_file(positional[1]);
  const pfpl::Header h = pfpl::peek_header(comp);
  // Judge every value of the stream, never a prefix of it.
  const Field field = raw_field(orig.data(), orig.size(), h.dtype);
  if (field.count() != h.value_count)
    throw CompressionError("verify: " + orig_path + " is " + std::to_string(orig.size()) +
                           " bytes (" + std::to_string(field.count()) + " " +
                           to_string(h.dtype) + " values), " + positional[1] + " holds " +
                           std::to_string(h.value_count) + " values");
  const std::vector<u8> back = pfpl::decompress(comp);
  const obs::AuditCase c = obs::ErrorBoundAuditor::verify_field(
      field, back, h.eb_type, h.eps, "verify", positional[1], /*seed=*/0, comp.size());
  print_first_violation("pfpl verify", positional[1], c);
  std::printf("eb=%s eps=%g  values=%zu max_err=%.6g allowed=%.6g psnr=%.2f dB\n",
              to_string(h.eb_type), h.eps, c.values, c.max_err, c.allowed, c.psnr_db);
  std::printf("violations: %llu %s\n", static_cast<unsigned long long>(c.violations),
              c.violations ? "(BOUND VIOLATED)" : "(bound holds)");
  return c.violations ? 3 : 0;
}

/// One row per verb. A row with a sub-verb ("store", "put") takes two words
/// of argv; the counts are of the positionals after them.
struct VerbRow {
  const char* verb;
  const char* sub;  ///< "" for a verb without sub-verbs
  std::size_t min_args, max_args;
  int (*run)(const std::vector<std::string>& positional, const Flags& fl);
};

constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();

constexpr VerbRow kVerbs[] = {
    {"c", "", 2, 2, cmd_compress},
    {"d", "", 2, 2, cmd_decompress},
    {"info", "", 1, 1, cmd_info},
    {"verify", "", 2, 2, cmd_verify},
    {"pack", "", 2, kAny, cmd_pack},
    {"unpack", "", 2, 2, cmd_unpack},
    {"list", "", 1, 1, cmd_list},
    {"stats", "", 1, 1, cmd_stats},
    {"audit", "", 0, 0, cmd_audit},
    {"profile", "", 0, 0, cmd_profile},
    {"serve", "", 0, 0, cmd_serve},
    {"remote", "compress", 2, 2, cmd_remote_compress},
    {"remote", "decompress", 2, 2, cmd_remote_decompress},
    {"remote", "stats", 0, 0, cmd_remote_stats},
    {"remote", "metrics", 0, 0, cmd_remote_metrics},
    {"remote", "ping", 0, 0, cmd_remote_ping},
    {"remote", "shutdown", 0, 0, cmd_remote_shutdown},
    {"store", "put", 1, kAny, cmd_store_put},
    {"store", "get", 2, 2, cmd_store_get},
    {"store", "ls", 0, 0, cmd_store_ls},
    {"store", "compact", 0, 0, cmd_store_compact},
    {"store", "verify", 0, 0, cmd_store_verify},
    {"stream", "pack", 1, kAny, cmd_stream_pack},
    {"stream", "unpack", 2, 2, cmd_stream_unpack},
    {"stream", "info", 1, 1, cmd_stream_info},
};

}  // namespace

int main(int argc, char** argv) {
  Flags fl;
  int rc = 1;
  try {
    std::vector<std::string> args;
    fl = parse_args(argc, argv, args);
    const VerbRow* verb =
        std::find_if(std::begin(kVerbs), std::end(kVerbs), [&](const VerbRow& v) {
          return !args.empty() && args[0] == v.verb &&
                 (!*v.sub || (args.size() > 1 && args[1] == v.sub));
        });
    if (verb == std::end(kVerbs)) usage();
    args.erase(args.begin(), args.begin() + (*verb->sub ? 2 : 1));
    if (args.size() < verb->min_args || args.size() > verb->max_args) usage();
    if (fl.obs_any()) obs::set_enabled(true);
    rc = verb->run(args, fl);
  } catch (const std::exception& e) {
    // Truncated/corrupt streams, bad bounds, archive checksum failures, I/O:
    // report cleanly, never let the exception escape as a crash.
    std::fprintf(stderr, "pfpl: %s\n", e.what());
  }
  // An artifact that could not be written fails a run that otherwise passed.
  if (!flush_obs(fl) && rc == 0) rc = 1;
  return rc;
}
