#include "obs/kernels.hpp"

#include <array>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace repro::obs {
namespace {

constexpr const char* kNames[kKernelCount] = {
    "quantize", "delta_nb", "bitshuffle", "zerobyte",
    "zerobyte_dec", "bitshuffle_dec", "delta_nb_dec", "dequantize",
};

constexpr int kNoaRange = static_cast<int>(Kernel::NoaRange);

/// Registry handles for the eight kernels, the chunk encode and the NOA range
/// pass, resolved once per process. The registration mutex is paid on the
/// first recorded stage, not per chunk.
std::array<Histogram*, kNoaRange + 1>& handles() {
  static std::array<Histogram*, kNoaRange + 1> h = [] {
    std::array<Histogram*, kNoaRange + 1> out;
    MetricsRegistry& reg = MetricsRegistry::global();
    for (int i = 0; i < kKernelCount; ++i)
      out[i] = &reg.histogram(std::string("kernel.") + kNames[i] + "_ns");
    out[kKernelCount] = &reg.histogram("core.encode_chunk_ns");
    out[kNoaRange] = &reg.histogram("kernel.noa_range_ns");
    return out;
  }();
  return h;
}

KernelStat stat_of(int i, const char* name, bool encode, u64 bytes) {
  KernelStat s;
  s.name = name;
  s.encode = encode;
  s.calls = handles()[i]->count();
  s.bytes = bytes;
  s.ns = handles()[i]->sum();
  if (s.ns > 0) s.mbps = 1e3 * static_cast<double>(s.bytes) / static_cast<double>(s.ns);
  return s;
}

std::string row_text(const KernelStat& s, const char* path) {
  char line[160];
  std::snprintf(line, sizeof line, "%-16s %-6s %10llu %12.2f %12.3f %10.1f\n", s.name, path,
                static_cast<unsigned long long>(s.calls), static_cast<double>(s.bytes) / 1e6,
                static_cast<double>(s.ns) / 1e6, s.mbps);
  return line;
}

}  // namespace

void record_stage_ns(Kernel k, u64 ns) { handles()[static_cast<int>(k)]->record(ns); }

u64 encode_chunk_ns() { return handles()[kKernelCount]->sum(); }

std::vector<KernelStat> kernel_stats() {
  MetricsRegistry& reg = MetricsRegistry::global();
  const u64 bytes_in = reg.counter("core.bytes_in").value();
  const u64 bytes_decoded = reg.counter("core.bytes_decoded").value();
  std::vector<KernelStat> out;
  out.reserve(kKernelCount);
  for (int i = 0; i < kKernelCount; ++i)
    out.push_back(stat_of(i, kNames[i], i < 4, i < 4 ? bytes_in : bytes_decoded));
  return out;
}

KernelStat noa_range_stat(u64 field_bytes) {
  return stat_of(kNoaRange, "noa_range", true, field_bytes);
}

std::string kernel_json(u64 plan_bytes) {
  std::vector<KernelStat> rows[3];  // encode, decode, plan
  for (const KernelStat& s : kernel_stats()) rows[s.encode ? 0 : 1].push_back(s);
  rows[2].push_back(noa_range_stat(plan_bytes));
  JsonWriter w;
  w.begin_object();
  for (int path = 0; path < 3; ++path) {
    w.key(path == 0 ? "encode" : path == 1 ? "decode" : "plan").begin_array();
    for (const KernelStat& s : rows[path]) {
      if (s.calls == 0) continue;
      w.begin_object();
      w.kv("name", s.name);
      w.kv("calls", static_cast<unsigned long long>(s.calls));
      w.kv("bytes", static_cast<unsigned long long>(s.bytes));
      w.kv("ns", static_cast<unsigned long long>(s.ns));
      w.kv("MBps", s.mbps);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.take();
}

std::string kernel_table_text(u64 plan_bytes) {
  const std::vector<KernelStat> stats = kernel_stats();
  const KernelStat plan = noa_range_stat(plan_bytes);
  bool any = plan.calls > 0;
  for (const KernelStat& s : stats) any = any || s.calls > 0;
  if (!any) return "";
  char line[160];
  std::snprintf(line, sizeof line, "%-16s %-6s %10s %12s %12s %10s\n", "kernel", "path",
                "calls", "MB", "ms", "MB/s");
  std::string out = line;
  if (plan.calls > 0) out += row_text(plan, "plan");
  for (const KernelStat& s : stats)
    if (s.calls > 0) out += row_text(s, s.encode ? "enc" : "dec");
  return out;
}

}  // namespace repro::obs
