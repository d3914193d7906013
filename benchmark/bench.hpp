// Shared pieces of the PFPL benchmark: the run configuration, workload items
// with their checked reference outputs, the output checker, timing
// statistics, benchmark-side trace spans, and the metric report.
//
// The benchmark measures every layer from outside: it times the calls it
// makes into the modules' public functions and reads the stats and histograms
// the modules already keep. Nothing under src/ knows it is being measured.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace pb {

using repro::Bytes;
using repro::DType;
using repro::EbType;
using repro::u32;
using repro::u64;
using repro::u8;

struct Config {
  std::string workload;
  u64 seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Flip one byte of a copy of one reference so the checker must fail.
  bool inject_fault = false;
  std::string out_dir = "build/benchmark_out";
};

/// Steady-clock seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used so far by every thread of this process.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One unit of work: a raw input, the bound it is compressed under, and the
/// reference outputs every program output is compared against byte for byte.
struct Item {
  std::string name;
  DType dtype = DType::F32;
  EbType eb = EbType::ABS;
  double eps = 1e-3;
  Bytes raw;     ///< input scalars
  Bytes stream;  ///< reference: local serial pfpl::compress(raw)
  Bytes recon;   ///< reference: local pfpl::decompress(stream)

  repro::Field field() const;
};

/// The 27 suite files of data::generate(spec, 1 << 20, 3, seed), as raw
/// inputs (references not yet built), in paper-suite order.
std::vector<Item> generate_suite(u64 seed);

/// Fill `it.stream` and `it.recon` from the serial codec and check the
/// reconstruction with metrics::count_violations. Throws on a violation: a
/// reference that breaks the bound would make every later check meaningless.
void build_reference(Item& it);

/// Counts checked operations and failures; prints the first few failures.
class Checker {
 public:
  /// Compare one program output with its reference.
  void check(const u8* got, std::size_t got_n, const Bytes& want, const char* op,
             const std::string& what);
  void check(const Bytes& got, const Bytes& want, const char* op, const std::string& what) {
    check(got.data(), got.size(), want, op, what);
  }
  /// Count one checked operation that passed iff `ok`.
  void expect(bool ok, const char* op, const std::string& what, const std::string& why);
  u64 attempted() const { return attempted_.load(); }
  u64 failed() const { return failed_.load(); }

 private:
  std::atomic<u64> attempted_{0};
  std::atomic<u64> failed_{0};
  std::atomic<int> printed_{0};
};

/// Times one call into the program. While obs is enabled (the traced phase)
/// it also records the call as a span in the program's own TraceRecorder, on
/// the calling thread's buffer, so the program's spans nest inside it. A
/// client request's id is known only after the call, so the span is written
/// at stop() rather than when it opens.
class Timed {
 public:
  explicit Timed(const char* span_name);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Seconds since construction; records the span tagged with `request_id`.
  double stop(u64 request_id = 0);

 private:
  const char* name_;
  std::chrono::steady_clock::time_point t0_;
  repro::obs::TraceRecorder::ThreadBuf* buf_ = nullptr;
  u64 start_ns_ = 0;
  u32 depth_ = 0;
};

double median(std::vector<double> v);
/// Quantile q in [0, 1], interpolated linearly between order statistics.
double quantile(std::vector<double> v, double q);

/// Metrics of one run, printed by name with their units, plus the
/// human-readable lines printed before the final JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Latency percentile `q` of `ms` as <name>. A tail (q > 0.5) needs at
  /// least ten samples beyond it; with fewer it is printed as invalid and
  /// left out of the metrics.
  void add_percentile(const std::string& name, const std::vector<double>& ms, double q);
  /// printf-style diagnostic line.
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// The final line: {"correct","attempted","failed","metrics"}.
  std::string json(const Checker& chk) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Resident-set accounting from /proc/self: the peak is reset through
/// clear_refs once the inputs exist, so the peak afterwards is what the
/// measured work added.
class PeakRss {
 public:
  /// Reset VmHWM and remember the current RSS as the base.
  void reset();
  /// Growth of VmHWM above the base, in MB.
  double growth_mb() const;

 private:
  double base_kb_ = 0;
};

/// Per-layer self time from the merged trace: each span's duration minus the
/// part its child spans on the same thread cover, summed by layer.
void report_self_time(Report& rep, const std::vector<repro::obs::SpanEvent>& events);

/// Chunk-level replay of the inputs through the public kernels (see
/// replay.cpp). Adds the core/bits/common/net per-layer metrics and counts a
/// replay that does not reproduce the program's bytes as a failure.
struct ReplayCosts {
  /// Program-path seconds for one request of each item: client framing,
  /// server parse, the codec call, response framing and response parse.
  std::vector<double> compress_s, decompress_s;
};
ReplayCosts replay(const std::vector<Item>& items, Report& rep, Checker& chk);

/// Raw bytes one round moved and the seconds they took: the time inside the
/// program's calls where one thread makes them one after another, the wall
/// time of the round where clients run concurrently.
struct Round {
  double bytes = 0;
  double seconds = 0;
  double mbps() const { return bytes / 1e6 / seconds; }
};

/// One workload. main.cpp prepares it, alternates compress and
/// decompress rounds for the run time, and in a traced run adds a traced pair
/// of rounds and the replay. Destruction releases its servers, threads and
/// work files.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs and references.
  virtual void prepare(const Config& cfg) = 0;
  /// One round in each direction.
  virtual Round compress_round() = 0;
  virtual Round decompress_round() = 0;
  /// End-to-end metrics of the untraced rounds.
  virtual void report(Report& rep) = 0;
  /// Per-layer metrics only this workload has, read after the traced pair
  /// and the replay (`costs` is indexed like `items`).
  virtual void report_layers(Report& rep, const ReplayCosts& costs) = 0;

  /// The inputs with their references; the replay walks all of them.
  std::vector<Item> items;
  Checker chk;
  /// Seconds of each repeated set-up, taken between the untraced rounds.
  std::vector<double> setup_s;
  /// Set by main.cpp before the traced pair, so rounds can keep its
  /// samples apart from the untraced ones.
  bool traced = false;
};

std::unique_ptr<Workload> make_codec();
std::unique_ptr<Workload> make_serve(std::size_t payload_bytes, std::size_t payloads);
std::unique_ptr<Workload> make_pack();

}  // namespace pb
