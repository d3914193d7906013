#include "obs/kernels.hpp"

#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace repro::obs {
namespace {

struct KernelHandles {
  Counter* bytes[kKernelCount];
  Histogram* us[kKernelCount];
};

constexpr const char* kNames[kKernelCount] = {
    "quantize", "delta_nb", "bitshuffle", "zerobyte",
    "zerobyte_dec", "bitshuffle_dec", "delta_nb_dec", "dequantize",
};

/// Registry handles for all eight kernels, resolved once per process. The
/// registration mutex is paid on the first recorded kernel, not per chunk.
KernelHandles& handles() {
  static KernelHandles h = [] {
    KernelHandles out;
    MetricsRegistry& reg = MetricsRegistry::global();
    for (int i = 0; i < kKernelCount; ++i) {
      const std::string stem = std::string("kernel.") + kNames[i];
      out.bytes[i] = &reg.counter(stem + ".bytes");
      out.us[i] = &reg.histogram(stem + "_us");
    }
    return out;
  }();
  return h;
}

}  // namespace

void record_kernel(Kernel k, u64 bytes, u64 us) {
  if (!enabled()) return;
  KernelHandles& h = handles();
  const int i = static_cast<int>(k);
  h.bytes[i]->add(bytes);
  h.us[i]->record(us);
}

std::vector<KernelStat> kernel_stats() {
  std::vector<KernelStat> out;
  out.reserve(kKernelCount);
  KernelHandles& h = handles();
  for (int i = 0; i < kKernelCount; ++i) {
    KernelStat s;
    s.name = kNames[i];
    s.encode = i < 4;
    s.calls = h.us[i]->count();
    s.bytes = h.bytes[i]->value();
    s.us = h.us[i]->sum();
    if (s.us > 0) s.mbps = static_cast<double>(s.bytes) / static_cast<double>(s.us);
    out.push_back(s);
  }
  return out;
}

std::string kernel_report_json() {
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
      w.kv("us", static_cast<unsigned long long>(s.us));
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
                  static_cast<double>(s.bytes) / 1e6, static_cast<double>(s.us) / 1e3,
                  s.mbps);
    out += line;
  }
  return out;
}

}  // namespace repro::obs
