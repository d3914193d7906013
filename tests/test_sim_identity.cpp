// CPU/GPU bit-compatibility tests — the reproduction of the paper's central
// portability claim: "bit-for-bit identical deterministic compressed and
// decompressed output on both types of devices."
//
// The GPU side is the simulated CUDA algorithm (src/sim): warp-shuffle bit
// transposes, block-wide scans, decoupled look-back concatenation. Every test
// asserts *byte* equality, not just value equality.
#include <gtest/gtest.h>

#include <numeric>

#include "core/pfpl.hpp"
#include "core/pipeline.hpp"
#include "data/rng.hpp"
#include "sim/block.hpp"
#include "sim/gpu_pipeline.hpp"
#include "sim/lookback.hpp"
#include "sim/warp.hpp"
#include "tiers.hpp"

using namespace repro;
using pfpl::Executor;
using pfpl::Params;

// --- primitive equivalence ---------------------------------------------------

TEST(SimWarp, TransposeMatchesCpu32) {
  data::Rng rng(41);
  for (int t = 0; t < 200; ++t) {
    u32 cpu[32], gpu[32];
    for (int i = 0; i < 32; ++i) cpu[i] = gpu[i] = static_cast<u32>(rng.next_u64());
    bits::transpose_bits_32(cpu);
    sim::warp_transpose_bits(gpu);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(cpu[i], gpu[i]);
  }
}

TEST(SimWarp, TransposeMatchesCpu64) {
  data::Rng rng(42);
  for (int t = 0; t < 100; ++t) {
    u64 cpu[64], gpu[64];
    for (int i = 0; i < 64; ++i) cpu[i] = gpu[i] = rng.next_u64();
    bits::transpose_bits_64(cpu);
    sim::warp_transpose_bits(gpu);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(cpu[i], gpu[i]);
  }
}

TEST(SimBlock, ScanMatchesStd) {
  data::Rng rng(43);
  for (std::size_t n : {1u, 2u, 3u, 31u, 32u, 1000u, 4096u}) {
    std::vector<u32> a(n), want(n);
    for (auto& x : a) x = static_cast<u32>(rng.next_u64() & 0xFFFF);
    std::inclusive_scan(a.begin(), a.end(), want.begin());
    sim::block_inclusive_scan(a.data(), n);
    EXPECT_EQ(a, want);
  }
}

TEST(SimLookback, MatchesExclusiveScan) {
  data::Rng rng(44);
  for (std::size_t n : {0u, 1u, 2u, 17u, 256u}) {
    std::vector<u64> sizes(n);
    for (auto& s : sizes) s = rng.next_u64() % 10000;
    std::vector<u64> want(n, 0);
    if (n) std::exclusive_scan(sizes.begin(), sizes.end(), want.begin(), u64{0});
    for (std::size_t wave : {1u, 2u, 8u, 64u})
      EXPECT_EQ(sim::lookback_exclusive_offsets(sizes, wave), want) << n << " " << wave;
  }
}

// --- chunk-level byte identity ----------------------------------------------

template <typename U>
void chunk_identity_case(std::vector<U> words) {
  tiers::for_each_rung([&] {
    std::vector<u8> cpu, gpu;
    bool c1 = pfpl::chunk_encode(words.data(), words.size(), cpu);
    bool c2 = sim::gpu_chunk_encode(words.data(), words.size(), gpu);
    EXPECT_EQ(c1, c2);
    ASSERT_EQ(cpu, gpu);
    // Cross decode: CPU decodes the GPU bytes, GPU decodes the CPU bytes.
    std::vector<U> back_cpu(words.size()), back_gpu(words.size());
    pfpl::chunk_decode(gpu.data(), gpu.size(), c2, back_cpu.data(), words.size());
    sim::gpu_chunk_decode(cpu.data(), cpu.size(), c1, back_gpu.data(), words.size());
    EXPECT_EQ(back_cpu, words);
    EXPECT_EQ(back_gpu, words);
  });
}

TEST(SimChunk, ByteIdentitySmoothU32) {
  std::vector<u32> w(4096);
  data::Rng rng(45);
  u32 acc = 1000;
  for (auto& x : w) {
    acc += static_cast<u32>(rng.next_u64() % 7) - 3;
    x = acc;
  }
  chunk_identity_case(w);
}

TEST(SimChunk, ByteIdentityRandomU32) {
  std::vector<u32> w(4096);
  data::Rng rng(46);
  for (auto& x : w) x = static_cast<u32>(rng.next_u64());
  chunk_identity_case(w);  // incompressible: exercises the raw fallback
}

TEST(SimChunk, ByteIdentityU64) {
  std::vector<u64> w(2048);
  data::Rng rng(47);
  u64 acc = 0;
  for (auto& x : w) {
    acc += rng.next_u64() % 100;
    x = acc;
  }
  chunk_identity_case(w);
}

TEST(SimChunk, ByteIdentityPartialChunks) {
  data::Rng rng(48);
  for (std::size_t n : {1u, 5u, 31u, 32u, 33u, 100u, 4000u}) {
    std::vector<u32> w(n);
    u32 acc = 50;
    for (auto& x : w) {
      acc += static_cast<u32>(rng.next_u64() % 5);
      x = acc;
    }
    chunk_identity_case(w);
  }
}

// --- full-stream byte identity ----------------------------------------------

TEST(SimStream, CompressedStreamsIdenticalAcrossExecutors) {
  data::Rng rng(49);
  std::vector<float> v(100000);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(acc);
  }
  tiers::for_each_rung([&] {
    for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
      Bytes serial = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, eb, Executor::Serial});
      Bytes omp = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, eb, Executor::OpenMP});
      Bytes gpu = pfpl::compress(Field(v.data(), v.size()), Params{1e-3, eb, Executor::GpuSim});
      EXPECT_EQ(serial, omp) << to_string(eb);
      EXPECT_EQ(serial, gpu) << to_string(eb);
      // Decompressed bytes identical on every executor too.
      auto d_serial = pfpl::decompress(serial, Executor::Serial);
      auto d_omp = pfpl::decompress(serial, Executor::OpenMP);
      auto d_gpu = pfpl::decompress(serial, Executor::GpuSim);
      EXPECT_EQ(d_serial, d_omp);
      EXPECT_EQ(d_serial, d_gpu);
    }
  });
}

TEST(SimStream, DoublePrecisionIdentity) {
  data::Rng rng(50);
  std::vector<double> v(30000);
  double acc = 0;
  for (auto& x : v) {
    acc += rng.gaussian();
    x = acc;
  }
  // All three bound types: the 64-bit warp path must match the CPU bytes.
  tiers::for_each_rung([&] {
    for (EbType eb : {EbType::ABS, EbType::REL, EbType::NOA}) {
      Bytes serial =
          pfpl::compress(Field(v.data(), v.size()), Params{1e-4, eb, Executor::Serial});
      Bytes gpu =
          pfpl::compress(Field(v.data(), v.size()), Params{1e-4, eb, Executor::GpuSim});
      EXPECT_EQ(serial, gpu) << to_string(eb);
      EXPECT_EQ(pfpl::decompress(serial, Executor::Serial),
                pfpl::decompress(serial, Executor::GpuSim))
          << to_string(eb);
    }
  });
}
