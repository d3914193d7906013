// The ISA ladder: the one place that decides which SIMD tier runs.
//
// The quantizers (core/quantize_avx2.cpp, core/quantize_avx512.cpp), the
// lossless stages (bits/lossless_avx2.cpp, bits/lossless_avx512.cpp) and the
// CRC-32 (common/checksum.hpp) each keep a scalar reference and SIMD tiers
// that write the same bytes. Each tier is a rung of one ordered ladder, and
// every dispatch site asks `isa() >= rung`. The rung is this CPU's, resolved
// once per process; no env var, flag or build option moves it. Tests lower
// it with ScopedIsaCeiling (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <atomic>

namespace repro::common {

/// Each rung needs everything below it. Clmul is PCLMULQDQ + SSE4.1 (the
/// folded CRC-32): a rung of its own, since some CPUs have it without AVX2.
/// Avx512 is AVX-512 F+BW+VL+DQ+VBMI+VBMI2 (Ice Lake, Sapphire Rapids, Zen 4):
/// the zero-byte kernels need VBMI2's byte compress/expand, so Skylake-SP and
/// Cascade Lake, which lack it, stay on Avx2.
enum class Isa { Scalar, Clmul, Avx2, Avx512 };
inline constexpr Isa kTopIsa = Isa::Avx512;

inline const char* isa_name(Isa i) {
  constexpr const char* kNames[] = {"scalar", "clmul", "avx2", "avx512"};
  return kNames[static_cast<int>(i)];
}

namespace detail {

/// The highest rung this CPU and OS run. __builtin_cpu_supports reports an
/// AVX or AVX-512 feature only when XCR0 shows the OS saves its registers.
inline Isa native_isa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("sse4.1")) return Isa::Scalar;
  if (!__builtin_cpu_supports("avx2")) return Isa::Clmul;
  const bool avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq") &&
                      __builtin_cpu_supports("avx512vbmi") &&
                      __builtin_cpu_supports("avx512vbmi2");
  return avx512 ? Isa::Avx512 : Isa::Avx2;
#else
  return Isa::Scalar;
#endif
}

/// Process-wide, so OpenMP and pool workers see a test's ceiling too.
inline std::atomic<Isa>& rung() {
  static std::atomic<Isa> r{native_isa()};
  return r;
}

}  // namespace detail

/// The rung in force: this CPU's, unless a ScopedIsaCeiling lowered it.
inline Isa isa() { return detail::rung().load(); }

/// For tests: sets the rung to `ceiling`, clamped to this CPU's, until
/// destruction restores the previous rung.
class ScopedIsaCeiling {
 public:
  explicit ScopedIsaCeiling(Isa ceiling) : saved_(isa()) {
    detail::rung().store(std::min(ceiling, detail::native_isa()));
  }
  ~ScopedIsaCeiling() { detail::rung().store(saved_); }
  ScopedIsaCeiling(const ScopedIsaCeiling&) = delete;
  ScopedIsaCeiling& operator=(const ScopedIsaCeiling&) = delete;

 private:
  Isa saved_;
};

}  // namespace repro::common
