// Build-flag independence of the quantizers. Encodes a fixed set of f32 and
// f64 values (random patterns, subnormals, ABS and REL bin edges) under ABS,
// REL and NOA, with the scalar encode() and with the block kernels, and
// prints one FNV-1a digest of all the words.
//
//   quantize_digest            print the digest
//   quantize_digest --check    also decode every bin word and judge it with
//                              the integer oracle; exit 1 if one fails
//   quantize_digest --check --ftz
//                              the same, encoding and decoding with FTZ and
//                              DAZ set in MXCSR
//
// ctest builds it with -mlong-double-64, -80 and -128 and requires one
// digest, and builds it with -ffp-contract=fast -O3 -march=native and
// requires --check to pass with and without --ftz (tests/CMakeLists.txt).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "bound_oracle.hpp"
#include "core/quantizers.hpp"

using namespace repro;
using namespace repro::pfpl;

namespace {

u64 splitmix(u64& s) {
  u64 z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <typename T>
void window(std::vector<T>& out, T c, int k) {
  if (!std::isfinite(c)) return;
  for (int i = 0; i < k; ++i) c = std::nextafter(c, T(0));
  for (int i = 0; i < 2 * k + 1 && std::isfinite(c); ++i) {
    out.push_back(c);
    out.push_back(-c);
    c = std::nextafter(c, std::numeric_limits<T>::infinity());
  }
}

/// Random patterns, subnormals, and windows around the ABS edges
/// (2b+1)*eps and the REL edges r*(1+eps), r/(1+eps) of `eps`.
template <typename T>
std::vector<T> values(double eps, u64 seed) {
  using FT = fpmath::FloatTraits<T>;
  using Bits = typename FT::Bits;
  std::vector<T> v;
  for (int i = 0; i < 10000; ++i)
    v.push_back(fpmath::from_bits<T>(static_cast<Bits>(splitmix(seed))));
  for (int i = 0; i < 2000; ++i)
    v.push_back(fpmath::from_bits<T>(static_cast<Bits>(splitmix(seed) % FT::denormal_limit)));
  const double l = fpmath::det_log1p(eps);
  const double span = 0.95 * std::log(static_cast<double>(std::numeric_limits<T>::max())) / l;
  for (int i = 0; i < 1500; ++i) {
    const double b = static_cast<double>(splitmix(seed) % 4096);
    window(v, static_cast<T>((2 * b + 1) * eps), 3);
    const double unit = static_cast<double>(splitmix(seed) >> 11) * 0x1p-53;
    const double bin = std::floor(unit * span - span / 2);
    const double r = fpmath::det_exp(2 * bin * l);
    window(v, static_cast<T>(r + r * eps), 4);
    window(v, static_cast<T>(r / (1 + eps)), 4);
  }
  return v;
}

/// FTZ (MXCSR bit 15) and DAZ (bit 6) on or off.
void set_ftz_daz(bool on) {
#if defined(__x86_64__) || defined(__i386__)
  _mm_setcsr(on ? _mm_getcsr() | 0x8040 : _mm_getcsr() & ~0x8040u);
#else
  (void)on;
#endif
}

struct Run {
  bool check = false, ftz = false;
  u64 digest = 0xCBF29CE484222325ull;
  u64 words = 0, bins = 0, rejected = 0;

  void mix(u64 w) {
    for (int i = 0; i < 8; ++i) digest = (digest ^ ((w >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    ++words;
  }

  /// Encode and decode `vals` per value and by block (under FTZ/DAZ with
  /// `ftz`); with `check`, judge every bin word against bound `e`.
  template <typename Q>
  void encode(const Q& q, const std::vector<typename Q::Value>& vals, double e, EbType eb) {
    const std::size_t n = vals.size();
    std::vector<typename Q::Bits> one(n), block(n);
    std::vector<typename Q::Value> one_back(n), block_back(n);
    set_ftz_daz(ftz);
    for (std::size_t i = 0; i < n; ++i) {
      one[i] = q.encode(vals[i]);
      one_back[i] = q.decode(one[i]);
    }
    q.encode_block(vals.data(), block.data(), n);
    q.decode_block(block.data(), block_back.data(), n);
    set_ftz_daz(false);  // the oracle reads values as doubles
    for (std::size_t i = 0; i < n; ++i) {
      mix(one[i]);
      mix(block[i]);
      if (check) {
        judge(q, vals[i], one[i], one_back[i], e, eb);
        judge(q, vals[i], block[i], block_back[i], e, eb);
      }
    }
  }

  template <typename Q, typename T>
  void judge(const Q&, T v, typename Q::Bits word, T r, double e, EbType eb) {
    if (!Q::is_bin(word) || !std::isfinite(v)) return;
    ++bins;
    if (!oracle::holds(v, r, e, eb) && ++rejected <= 10)
      std::printf("REJECTED %s eps=%a v=%a r=%a\n", to_string(eb), e, static_cast<double>(v),
                  static_cast<double>(r));
  }
};

template <typename T>
void run_type(Run& run, u64 seed) {
  for (double eps : {1e-1, 1e-3, 0x1p-10, 1e-5, 1e-30}) {
    const std::vector<T> vals = values<T>(eps, seed++);
    run.encode(AbsQuantizer<T>(eps), vals, eps, EbType::ABS);
    run.encode(RelQuantizer<T>(eps), vals, eps, EbType::REL);
    const double noa = fpmath::noa_bound(eps, std::span<const T>(vals));
    run.encode(AbsQuantizer<T>(noa), vals, noa, EbType::NOA);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i < argc; ++i) {
    run.check |= std::strcmp(argv[i], "--check") == 0;
    run.ftz |= std::strcmp(argv[i], "--ftz") == 0;
  }
#if !defined(__x86_64__) && !defined(__i386__)
  if (run.ftz) {
    std::printf("quantize_digest: --ftz is x86 only\n");
    return 2;
  }
#endif
  run_type<float>(run, 1);
  run_type<double>(run, 101);
  std::printf("digest %016" PRIx64 " over %" PRIu64 " words\n", run.digest, run.words);
  if (run.check)
    std::printf("oracle: %" PRIu64 " bins checked, %" PRIu64 " rejected%s\n", run.bins,
                run.rejected, run.ftz ? " (FTZ/DAZ)" : "");
  return run.rejected == 0 ? 0 : 1;
}
