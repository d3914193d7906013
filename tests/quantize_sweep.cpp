// Exhaustive f32 check of the AVX2 quantizer tier against the scalar
// specification: all 2^32 float bit patterns are encoded by the lane kernels
// and by encode(), for ABS and REL at eps 1e-3, and decoded as words (both
// the raw pattern and the encoder's word) by the lane kernels and decode().
// Prints the mismatch count per bound type; exits 1 if any word differs.
//
//   quantize_sweep [threads]    (default: all hardware threads)
//
// Built with the tests but not registered with ctest: it takes minutes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/quantizers.hpp"

using namespace repro;
using namespace repro::pfpl;

namespace {

constexpr u64 kPatterns = u64{1} << 32;
constexpr u32 kBatch = 1u << 16;

template <typename Q>
u64 batch_mismatches(const Q& q, u32 base, std::vector<float>& vals, std::vector<u32>& raw,
                     std::vector<u32>& words, std::vector<float>& dec) {
  u64 bad = 0;
  for (u32 j = 0; j < kBatch; ++j) {
    raw[j] = base + j;
    vals[j] = fpmath::from_bits<float>(raw[j]);
  }
  avx2::Kernels::encode(q, vals.data(), words.data(), kBatch);
  for (u32 j = 0; j < kBatch; ++j) bad += words[j] != q.encode(vals[j]);
  for (const auto* src : {&raw, &words}) {
    avx2::Kernels::decode(q, src->data(), dec.data(), kBatch);
    for (u32 j = 0; j < kBatch; ++j)
      bad += fpmath::to_bits(dec[j]) != fpmath::to_bits(q.decode((*src)[j]));
  }
  return bad;
}

template <typename Q>
u64 sweep(const Q& q, unsigned threads) {
  std::atomic<u64> next{0}, bad{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      std::vector<float> vals(kBatch), dec(kBatch);
      std::vector<u32> raw(kBatch), words(kBatch);
      u64 local = 0;
      for (u64 base; (base = next.fetch_add(kBatch)) < kPatterns;)
        local += batch_mismatches(q, static_cast<u32>(base), vals, raw, words, dec);
      bad += local;
    });
  }
  for (auto& th : pool) th.join();
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  if (argc > 1) threads = static_cast<unsigned>(std::max(1, std::atoi(argv[1])));
  if (!common::has_avx2()) {
    std::printf("quantize_sweep: this CPU has no AVX2; only the scalar tier runs\n");
    return 0;
  }
  const double eps = 1e-3;
  const u64 abs_bad = sweep(AbsQuantizer<float>(eps), threads);
  std::printf("ABS eps=%g: %llu mismatches over %llu f32 patterns\n", eps,
              static_cast<unsigned long long>(abs_bad), static_cast<unsigned long long>(kPatterns));
  const u64 rel_bad = sweep(RelQuantizer<float>(eps), threads);
  std::printf("REL eps=%g: %llu mismatches over %llu f32 patterns\n", eps,
              static_cast<unsigned long long>(rel_bad), static_cast<unsigned long long>(kPatterns));
  return abs_bad + rel_bad == 0 ? 0 : 1;
}
