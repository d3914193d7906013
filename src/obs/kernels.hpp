// Kernel-level performance attribution.
//
// The core pipeline is four hot kernels per direction:
//
//   encode: quantize -> delta+negabinary -> tile bitshuffle -> zero-byte elim
//   decode: zero-byte elim -> tile bitshuffle -> delta+negabinary -> dequantize
//
// Each kernel runs under one instrument, a ScopedSpan that names its Kernel
// (obs/trace.hpp). The span's end() records its own duration, so the trace
// event and the histogram come from the same two clock reads:
//
//   kernel.<name>_ns      histogram  per-chunk kernel nanoseconds (count = calls)
//   core.encode_chunk_ns  histogram  the whole chunk encode around its kernels
//   kernel.noa_range_ns   histogram  NOA's range pass over a whole field
//
// The kernel spans nest inside the chunk span, so the encode kernels' sum
// never exceeds core.encode_chunk_ns. MB/s derives from the logical bytes of
// the kernel's direction (core.bytes_in, core.bytes_decoded) over its sum.
// The NOA range pass runs before any chunk: it is a "plan" row outside that
// share, over field bytes only the caller knows.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

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
  /// Not a kernel: the whole chunk encode, the attributed share's denominator.
  EncodeChunk,
  /// Not a chunk kernel: NOA's finite range over the whole field.
  NoaRange,
};

inline constexpr int kKernelCount = 8;

/// Record one stage run of `ns` nanoseconds. Gated on obs::enabled() like
/// every registry update.
void record_stage_ns(Kernel k, u64 ns);

/// One kernel's attribution snapshot, read back from the registry.
struct KernelStat {
  const char* name = "";  ///< metric-name stem
  bool encode = true;     ///< encode-path kernel
  u64 calls = 0;          ///< histogram count
  u64 bytes = 0;          ///< core.bytes_in (encode) or core.bytes_decoded (decode)
  u64 ns = 0;             ///< histogram sum (total kernel nanoseconds)
  double mbps = 0;        ///< bytes / ns, 0 when unmeasured
};

/// Snapshot all eight kernels from the global registry (zero rows included —
/// callers filter on calls as needed). Pipeline order, encode first.
std::vector<KernelStat> kernel_stats();

/// The NOA range pass's row over the `field_bytes` it scanned.
KernelStat noa_range_stat(u64 field_bytes);

/// Sum of core.encode_chunk_ns.
u64 encode_chunk_ns();

/// {"encode":[{name,calls,bytes,ns,MBps}...],"decode":[...],"plan":[...]}
/// with zero-call kernels omitted; `plan_bytes` as in noa_range_stat.
std::string kernel_json(u64 plan_bytes = 0);

/// Human-readable attribution table (used by `pfpl profile`); empty string
/// when nothing was recorded.
std::string kernel_table_text(u64 plan_bytes = 0);

}  // namespace repro::obs
