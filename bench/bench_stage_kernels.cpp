// Section V-F analogue: per-stage micro-benchmarks (google-benchmark).
//
// The paper profiles the CUDA kernels and finds PFPL compute-bound with the
// quantizer doing only a few FP operations. These micro-benchmarks measure
// each pipeline stage and the fused end-to-end paths on this host, giving
// the per-stage cost breakdown behind the Figure 6/7 throughput numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bits/bitshuffle.hpp"
#include "bits/delta.hpp"
#include "bits/zerobyte.hpp"
#include "core/pfpl.hpp"
#include "core/pipeline.hpp"
#include "core/quantizers.hpp"
#include "data/rng.hpp"

using namespace repro;

namespace {

std::vector<float> smooth_input(std::size_t n) {
  data::Rng rng(7);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(std::sin(acc) + acc * 0.1);
  }
  return v;
}

std::vector<u32> quantized_words(std::size_t n) {
  auto v = smooth_input(n);
  pfpl::AbsQuantizer<float> q(1e-3);
  std::vector<u32> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = q.encode(v[i]);
  return w;
}

constexpr std::size_t kN = 1 << 20;  // 4 MB of f32

void BM_QuantizeAbs(benchmark::State& state) {
  auto v = smooth_input(kN);
  pfpl::AbsQuantizer<float> q(1e-3);
  std::vector<u32> w(kN);
  for (auto _ : state) {
    q.encode_block(v.data(), w.data(), kN);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_QuantizeAbs);

/// Positive inputs for the REL benches (away from the zero bin).
std::vector<float> rel_input(std::size_t n) {
  auto v = smooth_input(n);
  for (auto& x : v) x += 2.0f;
  return v;
}

void BM_QuantizeRel(benchmark::State& state) {
  auto v = rel_input(kN);
  pfpl::RelQuantizer<float> q(1e-3);
  std::vector<u32> w(kN);
  for (auto _ : state) {
    q.encode_block(v.data(), w.data(), kN);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_QuantizeRel);

/// The per-value encode() the block kernels must match word for word.
void BM_QuantizeRelScalar(benchmark::State& state) {
  auto v = rel_input(kN);
  pfpl::RelQuantizer<float> q(1e-3);
  std::vector<u32> w(kN);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kN; ++i) w[i] = q.encode(v[i]);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_QuantizeRelScalar);

void BM_DequantizeRel(benchmark::State& state) {
  auto v = rel_input(kN);
  pfpl::RelQuantizer<float> q(1e-3);
  std::vector<u32> w(kN);
  q.encode_block(v.data(), w.data(), kN);
  for (auto _ : state) {
    q.decode_block(w.data(), v.data(), kN);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_DequantizeRel);

void BM_DeltaNegabinary(benchmark::State& state) {
  auto w = quantized_words(kN);
  std::vector<u32> buf(kN);
  for (auto _ : state) {
    buf = w;
    bits::delta_negabinary_encode(buf.data(), kN);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_DeltaNegabinary);

void BM_BitShuffle(benchmark::State& state) {
  auto w = quantized_words(kN);
  for (auto _ : state) {
    bits::bitshuffle(w.data(), kN);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_BitShuffle);

void BM_ZeroByteEncode(benchmark::State& state) {
  auto w = quantized_words(kN);
  bits::delta_negabinary_encode(w.data(), kN);
  bits::bitshuffle(w.data(), kN);
  for (auto _ : state) {
    std::vector<u8> out;
    out.reserve(kN * 4);
    bits::zerobyte_encode(reinterpret_cast<const u8*>(w.data()), kN * 4, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_ZeroByteEncode);

/// Decodes the BM_ZeroByteEncode stream with `decode`.
void zerobyte_decode_bench(benchmark::State& state,
                           std::size_t (*decode)(const u8*, std::size_t, u8*, std::size_t)) {
  auto w = quantized_words(kN);
  bits::delta_negabinary_encode(w.data(), kN);
  bits::bitshuffle(w.data(), kN);
  std::vector<u8> enc;
  bits::zerobyte_encode(reinterpret_cast<const u8*>(w.data()), kN * 4, enc);
  std::vector<u8> out(kN * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode(enc.data(), enc.size(), out.data(), out.size()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}

void BM_ZeroByteDecode(benchmark::State& state) {
  zerobyte_decode_bench(state, bits::zerobyte_decode);
}
BENCHMARK(BM_ZeroByteDecode);

void BM_ZeroByteDecodeScalar(benchmark::State& state) {
  zerobyte_decode_bench(state, bits::scalar::zerobyte_decode);
}
BENCHMARK(BM_ZeroByteDecodeScalar);

void BM_ChunkPipeline(benchmark::State& state) {
  auto w = quantized_words(kN);
  constexpr std::size_t cw = pfpl::chunk_words<u32>();
  for (auto _ : state) {
    std::vector<u8> out;
    out.reserve(kN * 4);
    for (std::size_t beg = 0; beg < kN; beg += cw)
      pfpl::chunk_encode(w.data() + beg, std::min(cw, kN - beg), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_ChunkPipeline);

void BM_PfplCompressSerial(benchmark::State& state) {
  auto v = smooth_input(kN);
  Field f(v.data(), v.size());
  for (auto _ : state) {
    Bytes c = pfpl::compress(f, {1e-3, EbType::ABS, pfpl::Executor::Serial});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PfplCompressSerial);

void BM_PfplCompressOmp(benchmark::State& state) {
  auto v = smooth_input(kN);
  Field f(v.data(), v.size());
  for (auto _ : state) {
    Bytes c = pfpl::compress(f, {1e-3, EbType::ABS, pfpl::Executor::OpenMP});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PfplCompressOmp);

void BM_PfplDecompressSerial(benchmark::State& state) {
  auto v = smooth_input(kN);
  Bytes c = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  for (auto _ : state) {
    auto raw = pfpl::decompress(c);
    benchmark::DoNotOptimize(raw.data());
  }
  state.SetBytesProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_PfplDecompressSerial);

}  // namespace

BENCHMARK_MAIN();
