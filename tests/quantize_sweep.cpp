// Exhaustive f32 check of the quantizer block API, at every lane rung of the
// ISA ladder (common/cpu.hpp) this CPU has, against the scalar
// specification: all 2^32 float bit patterns are encoded by encode_block()
// and by encode(), for ABS and REL at eps 1e-3, and decoded as words (both
// the raw pattern and the encoder's word) by decode_block() and decode().
// Each rung from Avx2 up is swept with the ceiling lowered to it, so an
// Avx512 CPU sweeps the AVX2 lanes too. Prints the mismatch count per rung
// and bound type; exits 1 if any word differs, and 2 below the Avx2 rung,
// where the block API is the scalar loop and the sweep would compare the
// reference with itself.
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
#include <utility>
#include <vector>

#include "common/cpu.hpp"
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
  q.encode_block(vals.data(), words.data(), kBatch);
  for (u32 j = 0; j < kBatch; ++j) bad += words[j] != q.encode(vals[j]);
  for (const auto* src : {&raw, &words}) {
    q.decode_block(src->data(), dec.data(), kBatch);
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
  const common::Isa native = common::isa();
  std::printf("quantize_sweep: this CPU's rung is %s\n", common::isa_name(native));
  if (native < common::Isa::Avx2) {
    std::fprintf(stderr, "quantize_sweep: no quantizer kernel below the avx2 rung\n");
    return 2;
  }
  const double eps = 1e-3;
  u64 bad = 0;
  for (int r = static_cast<int>(common::Isa::Avx2); r <= static_cast<int>(native); ++r) {
    const auto rung = static_cast<common::Isa>(r);
    const common::ScopedIsaCeiling ceiling(rung);
    const u64 abs_bad = sweep(AbsQuantizer<float>(eps), threads);
    const u64 rel_bad = sweep(RelQuantizer<float>(eps), threads);
    for (const auto& [name, n] : {std::pair{"ABS", abs_bad}, std::pair{"REL", rel_bad}})
      std::printf("rung %s %s eps=%g: %llu mismatches over %llu f32 patterns\n",
                  common::isa_name(rung), name, eps, static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(kPatterns));
    bad += abs_bad + rel_bad;
  }
  return bad == 0 ? 0 : 1;
}
