// PFPL — Portable Floating-Point Lossy compressor (public API).
//
// Reproduction of: Fallin, Azami, Di, Cappello, Burtscher, "Fast and
// Effective Lossy Compression on GPUs and CPUs with Guaranteed Error
// Bounds", IPDPS 2025.
//
// Guarantees, by construction:
//   * the requested point-wise bound (ABS, REL, or NOA) holds for every
//     value, including NaNs, infinities, and denormals (stored losslessly or
//     within bound);
//   * all three executors (Serial, OpenMP, GpuSim) produce bit-for-bit
//     identical compressed streams and bit-for-bit identical decompressed
//     values, and any executor can decode any executor's stream.
//
// Typical use:
//   std::vector<float> data = ...;
//   Bytes c = pfpl::compress(Field(data.data(), data.size()),
//                            {.eps = 1e-3, .eb = EbType::ABS});
//   std::vector<float> back = pfpl::decompress_as<float>(c);
#pragma once

#include <cstring>
#include <vector>

#include "common/compressor.hpp"
#include "common/types.hpp"
#include "core/format.hpp"

namespace repro::pfpl {

/// Execution backend. GpuSim runs the CUDA algorithm (warp shuffles, block
/// scans) in a functional simulator — see src/sim and DESIGN.md §1.
enum class Executor : u8 { Serial = 0, OpenMP = 1, GpuSim = 2 };

inline const char* to_string(Executor e) {
  switch (e) {
    case Executor::Serial: return "Serial";
    case Executor::OpenMP: return "OMP";
    case Executor::GpuSim: return "CUDAsim";
  }
  return "?";
}

struct Params {
  double eps = 1e-3;                  ///< error bound (interpretation: eb)
  EbType eb = EbType::ABS;            ///< bound type
  Executor exec = Executor::Serial;   ///< execution backend
};

/// Compress a field. Throws CompressionError on invalid bounds
/// (ABS requires eps >= the smallest positive normal value of the dtype;
/// REL requires eps > 0; NOA requires eps >= 0).
Bytes compress(const Field& in, const Params& p);

/// Decompress a stream produced by any executor. Returns raw scalar bytes
/// (dtype recorded in the stream header).
std::vector<u8> decompress(const Bytes& stream, Executor exec = Executor::Serial);

/// Header of a compressed stream (for inspecting dtype/eb/count).
Header peek_header(const Bytes& stream);

/// What the error-bound guarantee cost a stream (paper Section III-B): the
/// words that hold a value's bit pattern instead of a bin, the chunks stored
/// raw, and the first chunk with such a word (-1: none).
struct GuaranteeCost {
  u64 values_lossless = 0;
  u64 chunks_raw = 0;
  i64 first_lossless_chunk = -1;
};

/// One serial lossless decode of every chunk, without dequantizing. Throws
/// CompressionError on a stream decompress() would reject.
GuaranteeCost guarantee_cost(const Bytes& stream);

template <typename T>
std::vector<T> decompress_as(const Bytes& stream, Executor exec = Executor::Serial) {
  std::vector<u8> raw = decompress(stream, exec);
  std::vector<T> out(raw.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), raw.data(), out.size() * sizeof(T));
  return out;
}

/// Compressor-interface adapter so PFPL plugs into the benchmark harness
/// alongside the baselines.
class PfplCompressor final : public Compressor {
 public:
  explicit PfplCompressor(Executor exec = Executor::Serial) : exec_(exec) {}

  std::string name() const override {
    return std::string("PFPL_") + pfpl::to_string(exec_);
  }
  Features features() const override {
    Features f;
    f.abs = f.rel = f.noa = f.f32 = f.f64 = true;
    f.cpu = exec_ != Executor::GpuSim;
    f.gpu = exec_ == Executor::GpuSim;
    f.guarantee_abs = f.guarantee_rel = f.guarantee_noa = true;
    return f;
  }
  Bytes compress(const Field& in, double eps, EbType eb) const override {
    return pfpl::compress(in, Params{eps, eb, exec_});
  }
  std::vector<u8> decompress(const Bytes& stream) const override {
    return pfpl::decompress(stream, exec_);
  }

 private:
  Executor exec_;
};

}  // namespace repro::pfpl
