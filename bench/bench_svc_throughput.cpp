// Chunk-parallel batch throughput: aggregate GB/s over the synthetic suite
// mix vs. worker count, driven through ingest::IngestPipeline (the driver
// behind `pfpl pack` and `pfpl store put`) with in-memory items.
//
// The workload is the checkpoint/dump shape the service targets (cuSZ+ /
// FZ-GPU motivation: coarse-grained batch throughput, not single-buffer
// latency): every file of every synthetic suite is one item, and the batch
// is timed end to end (plan + chunk fan-out + assembly). A pipeline run has
// one dtype, so a batch is one run over the f32 items and one over the f64
// items. Each configuration also re-verifies the determinism invariant:
// stream bytes must equal single-threaded pfpl::compress.
//
// Output columns: threads, wall ms, aggregate GB/s (input bytes / wall),
// speedup vs. 1 thread, peak items held in a pipeline stage queue. Scaling
// tops out at the machine's core count — on fewer cores than workers the
// extra threads just time-slice.
// Observability flags:
//   --trace FILE       write a Chrome trace of the run (enables obs)
//   --report FILE      write the obs RunReport JSON (enables obs)
//   --overhead-check   measure the pay-for-what-you-use claim: the 4-thread
//                      configuration is timed with observability disabled and
//                      enabled; the delta is printed and the disabled run is
//                      asserted to have recorded nothing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/pfpl.hpp"
#include "data/synthetic.hpp"
#include "ingest/pipeline.hpp"
#include "obs/flight.hpp"
#include "obs/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

using namespace repro;

namespace {

const pfpl::Params kParams{1e-3, EbType::ABS};

/// The suite mix split by dtype; `names`/`raws` are index-aligned and a
/// batch result lists the f32 items first, then the f64 items.
struct Batch {
  std::vector<std::string> names[2];  ///< [0] = f32, [1] = f64
  std::vector<Bytes> raws[2];
  std::size_t size() const { return names[0].size() + names[1].size(); }
};

struct BatchRun {
  double ms = 0;
  u64 peak_queue_items = 0;
  std::vector<ingest::Result> results;
};

/// One batch through a pipeline per dtype. Items are copied before the
/// timer starts (run() consumes its input).
BatchRun run_batch(const Batch& b, unsigned threads) {
  BatchRun out;
  for (int d = 0; d < 2; ++d) {
    if (b.names[d].empty()) continue;
    std::vector<ingest::Item> items;
    for (std::size_t i = 0; i < b.names[d].size(); ++i)
      items.push_back(ingest::Item{b.names[d][i], "", b.raws[d][i]});
    ingest::IngestPipeline::Options o;
    o.dtype = d == 0 ? DType::F32 : DType::F64;
    o.params = kParams;
    o.threads = threads;
    ingest::IngestPipeline pipe(o);
    Timer t;
    std::vector<ingest::Result> rs = pipe.run(std::move(items));
    out.ms += t.seconds() * 1e3;
    out.peak_queue_items = std::max(out.peak_queue_items, pipe.stats().peak_queue_items);
    for (ingest::Result& r : rs) out.results.push_back(std::move(r));
    if (obs::enabled())
      obs::RunReport::global().add_section(d == 0 ? "ingest_f32" : "ingest_f64",
                                           pipe.stats().json());
  }
  return out;
}

/// Median batch wall time in ms over `reps` runs; `last` keeps the final run.
double median_batch_ms(const Batch& b, unsigned threads, int reps, BatchRun* last) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    *last = run_batch(b, threads);
    times.push_back(last->ms);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, report_path;
  bool overhead_check = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) trace_path = argv[++i];
    else if (!std::strcmp(argv[i], "--report") && i + 1 < argc) report_path = argv[++i];
    else if (!std::strcmp(argv[i], "--overhead-check")) overhead_check = true;
  }
  if (!trace_path.empty() || !report_path.empty()) obs::set_enabled(true);

  // Laptop-scale mix: every suite, 2 files each, ~256K values per file.
  auto suites = data::generate_all(/*target_values=*/1 << 18, /*max_files=*/2);
  Batch batch;
  std::vector<Bytes> reference[2];  // single-threaded pfpl::compress streams
  std::size_t total_bytes = 0;
  for (const auto& suite : suites) {
    for (const auto& file : suite.files) {
      const Field f = file.field();
      const int d = f.dtype == DType::F32 ? 0 : 1;
      const u8* p = static_cast<const u8*>(f.data);
      batch.names[d].push_back(suite.spec.name + "/" + file.name);
      batch.raws[d].emplace_back(p, p + f.byte_size());
      reference[d].push_back(pfpl::compress(f, kParams));
      total_bytes += f.byte_size();
    }
  }
  std::printf("svc batch throughput: %zu items, %.1f MB total\n", batch.size(),
              total_bytes / 1e6);

  std::printf("%8s %10s %10s %9s %8s\n", "threads", "wall_ms", "GB/s", "speedup",
              "peak_q");
  double base_ms = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    // Median-of-3 protocol (scaled down from the paper's 9 for batch size).
    BatchRun last;
    const double med_ms = median_batch_ms(batch, threads, 3, &last);

    bool identical = last.results.size() == batch.size();
    for (std::size_t i = 0; identical && i < last.results.size(); ++i) {
      const std::size_t n32 = batch.names[0].size();
      const Bytes& ref = i < n32 ? reference[0][i] : reference[1][i - n32];
      identical = !last.results[i].failed && last.results[i].stream == ref;
    }
    if (!identical) {
      std::fprintf(stderr, "FAIL: threads=%u produced non-identical output\n", threads);
      return 1;
    }

    if (threads == 1) base_ms = med_ms;
    std::printf("%8u %10.2f %10.3f %8.2fx %8llu\n", threads, med_ms,
                total_bytes / 1e6 / med_ms, base_ms / med_ms,
                static_cast<unsigned long long>(last.peak_queue_items));
  }

  if (overhead_check) {
    // Pay-for-what-you-use: time the 4-thread batch with observability off,
    // then on. The disabled run must record nothing; the delta quantifies
    // the cost of leaving the instrumentation compiled in but switched off
    // vs. fully active.
    const bool was_enabled = obs::enabled();
    BatchRun scratch;

    obs::set_enabled(false);
    obs::TraceRecorder::global().clear();
    obs::MetricsRegistry::global().reset();
    double off_ms = median_batch_ms(batch, 4, 5, &scratch);
    if (obs::TraceRecorder::global().event_count() != 0) {
      std::fprintf(stderr, "FAIL: disabled observability recorded spans\n");
      return 1;
    }
    // The kernel timers ride the same gate: a disabled run must attribute
    // nothing (no clock reads happened, so no bytes/latency either).
    for (const obs::KernelStat& st : obs::kernel_stats()) {
      if (st.calls != 0 || st.bytes != 0) {
        std::fprintf(stderr, "FAIL: disabled observability recorded kernel '%s'\n",
                     st.name);
        return 1;
      }
    }
    // Nobody configured the flight recorder here, so its sampler thread must
    // not exist — disabled observability means no background threads at all.
    if (obs::FlightRecorder::global().running()) {
      std::fprintf(stderr, "FAIL: flight-recorder sampler running unrequested\n");
      return 1;
    }

    obs::set_enabled(true);
    double on_ms = median_batch_ms(batch, 4, 5, &scratch);
    obs::set_enabled(was_enabled);

    double delta_pct = (on_ms - off_ms) / off_ms * 100.0;
    std::printf("overhead-check (4 threads): obs-off %.2f ms, obs-on %.2f ms, "
                "delta %+.2f%%\n", off_ms, on_ms, delta_pct);
  }

  if (!report_path.empty()) {
    obs::RunReport& report = obs::RunReport::global();
    report.set_meta("tool", "bench_svc_throughput");
    report.set_meta("items", std::to_string(batch.size()));
    report.write(report_path);
    std::printf("report: %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_chrome_json(trace_path);
    std::printf("trace: %s\n", trace_path.c_str());
  }
  return 0;
}
