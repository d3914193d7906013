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

/// Registry handles for the eight kernels and the chunk encode, resolved once
/// per process. The registration mutex is paid on the first recorded stage,
/// not per chunk.
std::array<Histogram*, kKernelCount + 1>& handles() {
  static std::array<Histogram*, kKernelCount + 1> h = [] {
    std::array<Histogram*, kKernelCount + 1> out;
    MetricsRegistry& reg = MetricsRegistry::global();
    for (int i = 0; i < kKernelCount; ++i)
      out[i] = &reg.histogram(std::string("kernel.") + kNames[i] + "_ns");
    out[kKernelCount] = &reg.histogram("core.encode_chunk_ns");
    return out;
  }();
  return h;
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
  for (int i = 0; i < kKernelCount; ++i) {
    KernelStat s;
    s.name = kNames[i];
    s.encode = i < 4;
    s.calls = handles()[i]->count();
    s.bytes = s.encode ? bytes_in : bytes_decoded;
    s.ns = handles()[i]->sum();
    if (s.ns > 0) s.mbps = 1e3 * static_cast<double>(s.bytes) / static_cast<double>(s.ns);
    out.push_back(s);
  }
  return out;
}

std::string kernel_json() {
  JsonWriter w;
  w.begin_object();
  for (const bool encode : {true, false}) {
    w.key(encode ? "encode" : "decode").begin_array();
    for (const KernelStat& s : kernel_stats()) {
      if (s.encode != encode || s.calls == 0) continue;
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

std::string kernel_table_text() {
  const std::vector<KernelStat> stats = kernel_stats();
  bool any = false;
  for (const KernelStat& s : stats) any = any || s.calls > 0;
  if (!any) return "";
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-16s %-6s %10s %12s %12s %10s\n", "kernel", "path",
                "calls", "MB", "ms", "MB/s");
  out += line;
  for (const KernelStat& s : stats) {
    if (s.calls == 0) continue;
    std::snprintf(line, sizeof line, "%-16s %-6s %10llu %12.2f %12.3f %10.1f\n", s.name,
                  s.encode ? "enc" : "dec", static_cast<unsigned long long>(s.calls),
                  static_cast<double>(s.bytes) / 1e6, static_cast<double>(s.ns) / 1e6,
                  s.mbps);
    out += line;
  }
  return out;
}

}  // namespace repro::obs
