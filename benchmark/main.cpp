// pfpl_bench — one workload of the repository benchmark per invocation.
//
//   pfpl_bench --workload codec|serve_small|serve_large|pack --seed N
//              --seconds S --trace 0|1 [--inject-fault] [--out-dir DIR]
//
// Prints the run header, one line per round, every metric by name with its
// unit, and as the last line one JSON object {correct, attempted, failed,
// metrics}. An untraced run reports the end-to-end metrics; a traced run
// reports the per-layer metrics, writes DIR/trace-<workload>.json (Chrome
// trace_event format) and checks that the kernel replay reproduces the
// program's bytes. Exit code 0 when every output matched its reference, 1
// when any did not, 2 on a usage or set-up error. run.py builds and drives
// this binary.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace pb;

int usage(const char* why) {
  std::fprintf(stderr,
               "pfpl_bench: %s\nusage: pfpl_bench --workload codec|serve_small|serve_large|pack "
               "--seed N --seconds S --trace 0|1 [--inject-fault] [--out-dir DIR]\n",
               why);
  return 2;
}

/// Pin this thread, and so every thread and child it starts later, to the
/// last CPU the process may use; returns that CPU, or -1 if it stays unpinned.
/// A request that wakes a thread on another vCPU waits for the hypervisor to
/// resume that vCPU, and how long that takes depends on the host's other
/// tenants: unpinned, serve_small's throughput spread over 70% between runs.
/// On one CPU a wake-up is a context switch, and wall time measures what the
/// program does, including the time it waits.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "codec") return make_codec();
  // serve_small: one 16 KiB chunk per request, 1536 payloads (25 MB);
  // serve_large: 1 MiB (64 chunks), every 1 MiB slot of the suite (80 in the
  // f32 files, 56 in the f64 files).
  if (name == "serve_small") return make_serve(16u << 10, 1536);
  if (name == "serve_large") return make_serve(1u << 20, 136);
  if (name == "pack") return make_pack();
  return nullptr;
}

int run(const Config& cfg) {
  std::unique_ptr<Workload> w = make_workload(cfg.workload);
  if (!w) return usage(("unknown workload '" + cfg.workload + "'").c_str());
  std::filesystem::create_directories(cfg.out_dir);
  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = pin_to_one_cpu();

  std::printf("pfpl benchmark  workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::printf("compiler: %s  build: %s\nflags: %s\n", PB_COMPILER, PB_BUILD_TYPE, PB_FLAGS);
  if (cpu >= 0)
    std::printf("host: nproc=%u, every thread of this run pinned to cpu %d\n", nproc, cpu);
  else
    std::printf("host: nproc=%u, NOT pinned: sched_setaffinity failed, numbers are noisier\n",
                nproc);

  const double t_prep = now_s();
  w->prepare(cfg);
  std::size_t raw = 0;
  for (const Item& it : w->items) raw += it.raw.size();
  std::printf("prepared %zu inputs, %.1f MB raw, references checked, in %.2f s\n",
              w->items.size(), raw / 1e6, now_s() - t_prep);
  if (cfg.inject_fault) {
    // A copy of one reference, not the input: the program still produces the
    // true bytes, and the checker must notice they no longer match.
    w->items.front().recon.front() ^= 0x01;
    std::printf("inject-fault: flipped byte 0 of the reference reconstruction of %s\n",
                w->items.front().name.c_str());
  }

  PeakRss rss;
  rss.reset();
  // A traced run spends part of its time on the untraced rounds the overhead
  // is measured against, then one traced pair, then the replay.
  const double untraced_s = cfg.trace ? 0.3 * cfg.seconds : cfg.seconds;
  std::vector<double> c_mbps, d_mbps, c_cpu, d_cpu;
  // MB per CPU-second of the whole process over the round (every thread,
  // checks included): what the round cost, apart from how long it waited.
  auto timed_round = [&](Round (Workload::*fn)(), std::vector<double>& mbps,
                         std::vector<double>& cpu) {
    const double c0 = process_cpu_s();
    const Round r = (w.get()->*fn)();
    mbps.push_back(r.mbps());
    cpu.push_back(r.bytes / 1e6 / (process_cpu_s() - c0));
  };
  const double t0 = now_s();
  do {
    timed_round(&Workload::compress_round, c_mbps, c_cpu);
    timed_round(&Workload::decompress_round, d_mbps, d_cpu);
    std::printf("round %2zu  compress %9.2f MB/s (%8.2f per cpu-s)  decompress %9.2f MB/s "
                "(%8.2f per cpu-s)\n",
                c_mbps.size(), c_mbps.back(), c_cpu.back(), d_mbps.back(), d_cpu.back());
  } while (now_s() - t0 < untraced_s);

  Report rep;
  std::printf("metrics (%s):\n", cfg.trace ? "per layer" : "end to end");
  if (!cfg.trace) {
    rep.add("setup_s", median(w->setup_s), "s");
    rep.add("compress_MBps", median(c_mbps), "MB/s");
    rep.add("decompress_MBps", median(d_mbps), "MB/s");
    // Below the wall-clock figures by the share of the round the CPU sat idle
    // or was taken by the host: waiting shows as the gap between the two.
    rep.add("compress_cpu_MBps", median(c_cpu), "MB/cpu-s");
    rep.add("decompress_cpu_MBps", median(d_cpu), "MB/cpu-s");
    w->report(rep);
    rep.add("peak_rss_MB", rss.growth_mb(), "MB");
    std::printf("  (setup_s: median of %zu set-ups, fastest %.6g s; MB/s: medians of %zu "
                "rounds each)\n",
                w->setup_s.size(), quantile(w->setup_s, 0), c_mbps.size());
  } else {
    repro::obs::MetricsRegistry::global().reset();
    repro::obs::TraceRecorder::global().clear();
    repro::obs::set_enabled(true);
    w->traced = true;
    const double tc = w->compress_round().mbps();
    const double td = w->decompress_round().mbps();
    repro::obs::set_enabled(false);
    std::printf("traced    compress %9.2f MB/s  decompress %9.2f MB/s\n", tc, td);
    // Seconds per MB of one compress + decompress pair, traced vs untraced.
    const double overhead =
        (1 / tc + 1 / td) / (1 / median(c_mbps) + 1 / median(d_mbps)) - 1;

    const std::vector<repro::obs::SpanEvent> events =
        repro::obs::TraceRecorder::global().events();
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload + ".json";
    repro::obs::TraceRecorder::global().write_chrome_json(path);
    rep.line("trace: %zu spans -> %s", events.size(), path.c_str());
    report_self_time(rep, events);
    const ReplayCosts costs = replay(w->items, rep, w->chk);
    w->report_layers(rep, costs);
    rep.add("trace_overhead_frac", overhead, "frac");
  }
  std::printf("attempted %llu  failed %llu\n",
              static_cast<unsigned long long>(w->chk.attempted()),
              static_cast<unsigned long long>(w->chk.failed()));
  const int rc = w->chk.failed() ? 1 : 0;
  const std::string json = rep.json(w->chk);
  w.reset();  // stop servers and threads, remove work files
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--inject-fault") {
      cfg.inject_fault = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" && a != "--trace" &&
        a != "--out-dir")
      return usage(("unknown argument " + a).c_str());
    if (!(v = value())) return usage(("missing value for " + a).c_str());
    if (a == "--workload") cfg.workload = v;
    if (a == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    if (a == "--seconds") cfg.seconds = std::atof(v);
    if (a == "--trace") cfg.trace = std::strcmp(v, "0") != 0;
    if (a == "--out-dir") cfg.out_dir = v;
  }
  if (cfg.workload.empty()) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pfpl_bench: %s\n", e.what());
    return 2;
  }
}
