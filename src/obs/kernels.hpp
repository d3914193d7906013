// Kernel-level performance attribution.
//
// The core pipeline is four hot kernels per direction:
//
//   encode: quantize -> delta+negabinary -> tile bitshuffle -> zero-byte elim
//   decode: zero-byte elim -> tile bitshuffle -> delta+negabinary -> dequantize
//
// The existing `core.*` metrics time whole chunks, which says nothing about
// *which* kernel dominates — the question the SIMD work needs answered. This
// unit attributes bytes and time per kernel:
//
//   kernel.<name>.bytes   counter    logical chunk bytes through the kernel
//   kernel.<name>_us      histogram  per-chunk kernel latency (count = calls)
//
// from which MB/s derives as bytes / sum(us). Per-chunk durations are floored
// to whole microseconds (same convention as core.encode_chunk_us), so the sum
// of kernel times can never exceed the enclosing chunk time.
//
// KernelTimer is the RAII recording point: when observability is disabled it
// is a relaxed load + branch — no clock read, nothing recorded (the PR 2
// zero-footprint invariant).
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/control.hpp"

namespace repro::obs {

enum class Kernel : int {
  // Encode path, pipeline order.
  Quantize = 0,
  DeltaNb,
  Bitshuffle,
  Zerobyte,
  // Decode path, pipeline order.
  ZerobyteDec,
  BitshuffleDec,
  DeltaNbDec,
  Dequantize,
};

inline constexpr int kKernelCount = 8;

/// Record one kernel invocation: `bytes` processed in `us` microseconds.
/// Gated on obs::enabled() like every registry update.
void record_kernel(Kernel k, u64 bytes, u64 us);

/// RAII kernel timer: captures the clock only when observability is enabled
/// at construction; the destructor floors the elapsed time to microseconds
/// and records bytes + latency.
class KernelTimer {
 public:
  KernelTimer(Kernel k, std::size_t bytes) {
    if (!obs::enabled()) return;
    k_ = k;
    bytes_ = bytes;
    armed_ = true;
    t0_ = std::chrono::steady_clock::now();
  }
  ~KernelTimer() {
    if (!armed_) return;
    const u64 us = static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - t0_)
                                        .count());
    record_kernel(k_, bytes_, us);
  }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  Kernel k_ = Kernel::Quantize;
  std::size_t bytes_ = 0;
  bool armed_ = false;
  std::chrono::steady_clock::time_point t0_;
};

/// One kernel's attribution snapshot, read back from the registry.
struct KernelStat {
  const char* name = "";  ///< metric-name stem
  bool encode = true;     ///< encode-path kernel
  u64 calls = 0;          ///< histogram count
  u64 bytes = 0;          ///< kernel.<name>.bytes
  u64 us = 0;             ///< histogram sum (total kernel microseconds)
  double mbps = 0;        ///< bytes / us, 0 when unmeasured
};

/// Snapshot all eight kernels from the global registry (zero rows included —
/// callers filter on calls/bytes as needed). Pipeline order, encode first.
std::vector<KernelStat> kernel_stats();

/// Pre-rendered RunReport section: {"encode":[{name,calls,bytes,us,MBps}...],
/// "decode":[...]} with zero-call kernels omitted.
std::string kernel_report_json();

/// Human-readable attribution table (used by `pfpl profile`); empty string
/// when nothing was recorded.
std::string kernel_table_text();

}  // namespace repro::obs
