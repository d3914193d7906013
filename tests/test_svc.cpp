// Tests for the svc layer: the FIFO thread pool (bounded queue, graceful
// shutdown, submission-order dispatch), the chunked primitives the ingest
// pipeline's chunk fan-out builds on, and the PFPA archive container
// (round-trip, random access, corruption rejection, injected write
// failures). The pipeline's byte identity to single-threaded pfpl::compress
// is pinned in test_ingest.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chunked.hpp"
#include "core/pfpl.hpp"
#include "data/rng.hpp"
#include "io/raw_file.hpp"
#include "recording_ops.hpp"
#include "svc/archive.hpp"
#include "common/checksum.hpp"
#include "common/cpu.hpp"
#include "svc/thread_pool.hpp"
#include "tiers.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

std::string tmp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("pfpl_svc_" + name)).string();
}

std::vector<float> wave_f32(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(std::sin(acc) + acc);
  }
  return v;
}

std::vector<double> wave_f64(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<double> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = std::cos(acc) * 3.0 + acc;
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce) {
  svc::ThreadPool pool(3, /*queue_capacity=*/16);  // small bound: forces backpressure
  std::atomic<int> sum{0};
  for (int i = 1; i <= 500; ++i) pool.submit([i, &sum] { sum.fetch_add(i); });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 500 * 501 / 2);
  auto c = pool.counters();
  EXPECT_EQ(c.submitted, 500u);
  EXPECT_EQ(c.executed, 500u);
  EXPECT_LE(c.peak_pending, 16u);  // the bounded queue held
}

TEST(ThreadPool, WaitIdleDrains) {
  svc::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, GracefulShutdownRunsQueuedTasks) {
  std::atomic<int> done{0};
  {
    svc::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      pool.submit([&done] { done.fetch_add(1); });
    // Destructor must drain the queue, not drop it.
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  svc::ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CompressionError);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  svc::ThreadPool pool(1);
  std::latch started{1}, release{1};
  pool.submit([&started, &release] {
    started.count_down();
    release.wait();
  });
  started.wait();  // the only worker is now parked on the gate

  std::mutex m;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    pool.submit([i, &m, &order] {
      std::lock_guard<std::mutex> lk(m);
      order.push_back(i);
    });
  EXPECT_EQ(pool.pending(), 8u);
  release.count_down();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------------
// Chunked primitives (the contract the ingest chunk fan-out builds on)
// ---------------------------------------------------------------------------

TEST(Chunked, ManualChunkLoopMatchesOneShot) {
  auto v = wave_f32(4096 * 2 + 100, 7);
  Field field(v.data(), v.size());
  pfpl::Params p{1e-3, EbType::ABS};
  pfpl::Header h = pfpl::plan_header(field, p);
  ASSERT_EQ(h.chunk_count, 3u);
  std::vector<Bytes> payloads(h.chunk_count);
  std::vector<u32> sizes(h.chunk_count);
  // Encode in reverse order to prove order-independence.
  for (std::size_t c = h.chunk_count; c-- > 0;)
    sizes[c] = pfpl::encode_chunk(field, h, c, p.exec, payloads[c]);
  Bytes assembled = pfpl::assemble_stream(h, sizes, payloads, p.exec);
  EXPECT_EQ(assembled, pfpl::compress(field, p));
}

// ---------------------------------------------------------------------------
// PFPA archive
// ---------------------------------------------------------------------------

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file name: ctest runs discovered tests as parallel processes,
    // and a shared path would let one test corrupt another's archive.
    const std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path = tmp_path(tag + "_archive.pfpa");
    f32 = wave_f32(20000, 11);
    f64 = wave_f64(9000, 12);
    results = {entry("temp.f32", Field(f32.data(), f32.size()), {1e-3, EbType::ABS}),
               entry("pres.f64", Field(f64.data(), f64.size()), {1e-2, EbType::REL})};
    svc::ArchiveWriter writer(path);
    for (const auto& r : results) writer.add(r.name, r.header, r.stream, r.raw_bytes);
    writer.finish();
  }
  void TearDown() override { fs::remove(path); }

  std::string path;
  std::vector<float> f32;
  std::vector<double> f64;
  struct Entry {
    std::string name;
    pfpl::Header header;
    Bytes stream;
    u64 raw_bytes = 0;
  };
  static Entry entry(const std::string& name, const Field& field, const pfpl::Params& p) {
    Entry e{name, {}, pfpl::compress(field, p), field.byte_size()};
    e.header = pfpl::peek_header(e.stream);
    return e;
  }
  std::vector<Entry> results;
};

TEST_F(ArchiveTest, RoundTrip) {
  svc::ArchiveReader reader(path);
  ASSERT_EQ(reader.entries().size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::ArchiveEntry& e = reader.entries()[i];
    EXPECT_EQ(e.name, results[i].name);
    EXPECT_EQ(e.raw_size, results[i].raw_bytes);
    Bytes stream = reader.read_entry(e);
    EXPECT_EQ(stream, results[i].stream);  // entry bytes survive the container
  }
  auto back = pfpl::decompress_as<float>(reader.read_entry("temp.f32"));
  ASSERT_EQ(back.size(), f32.size());
  for (std::size_t i = 0; i < f32.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(f32[i]) - back[i]), 1e-3) << i;
}

TEST_F(ArchiveTest, RandomAccessReadsOnlyTheEntryRange) {
  svc::ArchiveReader reader(path);
  const svc::ArchiveEntry& e = reader.find("pres.f64");
  // The reader's contract is range-reads only; emulate it directly to prove
  // the entry is self-contained: bytes [offset, offset+size) alone decode.
  Bytes stream = io::read_file_range(path, e.offset, static_cast<std::size_t>(e.size));
  EXPECT_EQ(common::crc32(stream.data(), stream.size()), e.crc32);
  auto back = pfpl::decompress_as<double>(stream);
  ASSERT_EQ(back.size(), f64.size());
  pfpl::Header h = pfpl::peek_header(stream);
  EXPECT_EQ(h.eb_type, EbType::REL);
}

TEST_F(ArchiveTest, FindMissingEntryThrows) {
  svc::ArchiveReader reader(path);
  EXPECT_THROW(reader.find("nonexistent"), CompressionError);
}

TEST_F(ArchiveTest, CorruptedIndexIsRejected) {
  // Flip one byte inside the index region: the index CRC must catch it.
  Bytes raw = io::read_file(path);
  u64 index_offset, index_size;
  std::memcpy(&index_offset, raw.data() + raw.size() - svc::kArchiveFooterSize, 8);
  std::memcpy(&index_size, raw.data() + raw.size() - svc::kArchiveFooterSize + 8, 8);
  ASSERT_GT(index_size, 0u);
  raw[static_cast<std::size_t>(index_offset) + 3] ^= 0x5A;
  io::write_file(path, raw.data(), raw.size());
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST_F(ArchiveTest, HostileEntryNamesAreRejected) {
  // A crafted archive whose index smuggles a path-like entry name must be
  // rejected by the reader even though every CRC and bound checks out —
  // otherwise unpack would join the name onto the output directory and
  // write outside it ("../..", absolute paths, backslash separators).
  const Bytes orig = io::read_file(path);
  u64 index_offset, index_size;
  std::memcpy(&index_offset, orig.data() + orig.size() - svc::kArchiveFooterSize, 8);
  std::memcpy(&index_size, orig.data() + orig.size() - svc::kArchiveFooterSize + 8, 8);
  // First record starts with u16 name_len, then the 8-byte name "temp.f32";
  // overwrite it in place (same length) and re-sign the index so only the
  // name validation — not the CRC — can catch it.
  for (const char* evil : {"../../ab", "/abs/pth", "dir\\file"}) {
    Bytes raw = orig;
    std::memcpy(raw.data() + index_offset + 2, evil, 8);
    u32 crc = common::crc32(raw.data() + index_offset, static_cast<std::size_t>(index_size));
    std::memcpy(raw.data() + raw.size() - svc::kArchiveFooterSize + 20, &crc, 4);
    io::write_file(path, raw.data(), raw.size());
    EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError) << evil;
  }
}

TEST_F(ArchiveTest, CorruptedEntryPayloadIsRejected) {
  svc::ArchiveReader clean(path);
  const svc::ArchiveEntry e = clean.find("temp.f32");
  Bytes raw = io::read_file(path);
  raw[static_cast<std::size_t>(e.offset) + e.size / 2] ^= 0xFF;
  io::write_file(path, raw.data(), raw.size());
  svc::ArchiveReader reader(path);  // index is intact: open succeeds
  EXPECT_THROW(reader.read_entry("temp.f32"), CompressionError);
  // The other entry is untouched and still extractable (fault isolation).
  EXPECT_NO_THROW(reader.read_entry("pres.f64"));
}

TEST_F(ArchiveTest, TruncatedFileIsRejected) {
  Bytes raw = io::read_file(path);
  io::write_file(path, raw.data(), raw.size() / 2);
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
  io::write_file(path, raw.data(), 4);  // shorter than header+footer
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST_F(ArchiveTest, BadFooterMagicIsRejected) {
  Bytes raw = io::read_file(path);
  raw[raw.size() - 1] ^= 0x01;  // footer magic is the last field
  io::write_file(path, raw.data(), raw.size());
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST_F(ArchiveTest, HostileEntryCountIsTypedError) {
  // The footer's entry count has no CRC of its own. 0xFFFFFFFF records of at
  // least 53 bytes cannot fit the index, so the reader must refuse the count
  // before it sizes anything from it.
  Bytes raw = io::read_file(path);
  const u32 hostile = 0xFFFFFFFFu;
  std::memcpy(raw.data() + raw.size() - svc::kArchiveFooterSize + 16, &hostile, 4);
  io::write_file(path, raw.data(), raw.size());
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST(Archive, WriterRejectsBadNames) {
  std::string path = tmp_path("badnames.pfpa");
  auto v = wave_f32(100, 13);
  Bytes stream = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  pfpl::Header h = pfpl::peek_header(stream);
  svc::ArchiveWriter writer(path);
  EXPECT_THROW(writer.add("", h, stream, 400), CompressionError);
  EXPECT_THROW(writer.add("a/b", h, stream, 400), CompressionError);
  writer.add("ok", h, stream, 400);
  EXPECT_THROW(writer.add("ok", h, stream, 400), CompressionError);  // duplicate
  writer.finish();
  fs::remove(path);
}

TEST(Archive, EmptyArchiveRoundTrips) {
  std::string path = tmp_path("empty.pfpa");
  svc::ArchiveWriter writer(path);
  writer.finish();
  svc::ArchiveReader reader(path);
  EXPECT_TRUE(reader.entries().empty());
  fs::remove(path);
}

TEST(ArchiveCrash, EveryInjectedFailureIsAnError) {
  // 3 entries and finish(), with each operation in turn failing with each
  // fault. The call that attempted the operation throws, and what it leaves
  // has no footer, so the reader rejects it: never a partial entry list.
  std::vector<Bytes> streams;
  for (u64 i = 0; i < 3; ++i) {
    const auto v = wave_f32(3000 + 500 * i, 20 + i);
    streams.push_back(pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS}));
  }
  const char* const kNames[] = {"temp", "pres", "wind"};
  const std::string path = tmp_path("crash.pfpa");
  // Calls: the constructor, one add() per entry, finish(). Returns the
  // index of the call that threw (calls.size() when none did) and records
  // the operations attempted once each call returned in `calls`.
  auto write = [&](recording::RecordingOps& ops, std::vector<std::size_t>& calls) {
    std::unique_ptr<svc::ArchiveWriter> w;
    calls.clear();
    try {
      w = std::make_unique<svc::ArchiveWriter>(path, ops);
      calls.push_back(ops.attempted);
      for (std::size_t i = 0; i < streams.size(); ++i) {
        w->add(kNames[i], pfpl::peek_header(streams[i]), streams[i], 1);
        calls.push_back(ops.attempted);
      }
      w->finish();
      calls.push_back(ops.attempted);
    } catch (const CompressionError&) {
    }
    return calls.size();
  };
  std::vector<std::size_t> clean_calls;
  {
    recording::RecordingOps ops;
    ASSERT_EQ(write(ops, clean_calls), streams.size() + 2);
    ASSERT_EQ(svc::ArchiveReader(path).entries().size(), streams.size());
  }
  const std::size_t ops_total = clean_calls.back();
  ASSERT_EQ(ops_total, streams.size() + 3);  // create, header, entries, tail

  std::size_t runs = 0;
  for (std::size_t k = 0; k < ops_total; ++k) {
    const std::size_t want_call =
        std::upper_bound(clean_calls.begin(), clean_calls.end(), k) - clean_calls.begin();
    for (recording::Fault fault :
         {recording::Fault::Eio, recording::Fault::Enospc, recording::Fault::Short,
          recording::Fault::ShortThenCutFails}) {
      SCOPED_TRACE("op " + std::to_string(k) + " fails with " + recording::fault_name(fault));
      fs::remove(path);
      recording::RecordingOps ops;
      ops.fail_at = k;
      ops.fault = fault;
      std::vector<std::size_t> calls;
      EXPECT_EQ(write(ops, calls), want_call) << "the wrong call threw";
      EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
      ++runs;
    }
    if (HasFailure()) break;
  }
  fs::remove(path);
  EXPECT_EQ(runs, 4 * ops_total);
}

TEST(Checksum, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
  EXPECT_EQ(common::crc32("123456789", 9), 0xCBF43926u);
  // Incremental == one-shot.
  u32 a = common::crc32("12345", 5);
  EXPECT_EQ(common::crc32("6789", 4, a), 0xCBF43926u);
}

// --- CRC-32 -------------------------------------------------------------------

namespace {

/// The CRC computed bit by bit, without tables: both tiers must match it.
u32 crc32_bytewise(const u8* p, std::size_t n, u32 seed) {
  u32 c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

}  // namespace

TEST(Crc32, CheckValue) {
  // CRC-32("123456789") = 0xCBF43926, the IEEE 802.3 check value.
  EXPECT_EQ(common::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(common::scalar::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(common::crc32(nullptr, 0), 0u);
  // Incremental == one-shot.
  EXPECT_EQ(common::crc32("6789", 4, common::crc32("12345", 5)), 0xCBF43926u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  data::Rng rng(77);
  std::vector<u8> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<u8>(rng.next_u64());
  for (std::size_t align = 0; align < 8; ++align) {
    u32 chained = 0, chained_scalar = 0, chained_ref = 0;
    for (std::size_t n = 0; n <= 1024; ++n) {
      const u8* p = buf.data() + align;
      const u32 ref = crc32_bytewise(p, n, 0);
      ASSERT_EQ(common::scalar::crc32(p, n), ref) << "n=" << n << " align=" << align;
      ASSERT_EQ(common::crc32(p, n), ref) << "n=" << n << " align=" << align;
      // Chained seeds: continue from the previous result.
      chained = common::crc32(p, n, chained);
      chained_scalar = common::scalar::crc32(p, n, chained_scalar);
      chained_ref = crc32_bytewise(p, n, chained_ref);
      ASSERT_EQ(chained_scalar, chained_ref) << "n=" << n << " align=" << align;
      ASSERT_EQ(chained, chained_ref) << "n=" << n << " align=" << align;
    }
  }
}

TEST(Crc32, SplitAnywhereEqualsOneShot) {
  const std::string s = "The quick brown fox jumps over the lazy dog, twice over.";
  const u32 whole = common::crc32(s.data(), s.size());
  for (std::size_t cut = 0; cut <= s.size(); ++cut)
    EXPECT_EQ(common::crc32(s.data() + cut, s.size() - cut, common::crc32(s.data(), cut)), whole);
}

// --- CRC-32 tiers: the PCLMULQDQ folding tier against the scalar spec --------
//
// common::crc32 folds from the Clmul rung up; each test compares it with
// common::scalar::crc32 at each such rung (tests/tiers.hpp). Every buffer is
// a vector of exactly the bytes under test, so an AddressSanitizer build
// reports any read past p + n.

namespace {

std::vector<u8> random_block(std::size_t n, data::Rng& rng) {
  std::vector<u8> b(n);
  for (auto& x : b) x = static_cast<u8>(rng.next_u64());
  return b;
}

}  // namespace

TEST(Crc32Tiers, EveryLengthAtEveryOffset) {
  tiers::for_each_rung(common::Isa::Clmul, [&] {
    data::Rng rng(28);
    for (std::size_t offset = 0; offset < 16; ++offset)
      for (std::size_t n = 0; n <= 1100; ++n) {
        // p sits `offset` bytes past the heap block's 16-byte-aligned start;
        // the block ends at p + n.
        const auto block = random_block(offset + n, rng);
        const u8* p = block.data() + offset;
        ASSERT_EQ(common::crc32(p, n), common::scalar::crc32(p, n))
            << "n=" << n << " offset=" << offset;
      }
  });
}

TEST(Crc32Tiers, ChainedSeeds) {
  tiers::for_each_rung(common::Isa::Clmul, [&] {
    data::Rng rng(29);
    u32 fast = 0, spec = 0;
    for (std::size_t n = 0; n <= 1100; n += 7) {
      const auto block = random_block(n, rng);
      fast = common::crc32(block.data(), n, fast);
      spec = common::scalar::crc32(block.data(), n, spec);
      ASSERT_EQ(fast, spec) << "n=" << n;
      // An arbitrary seed, not just a previous result.
      const u32 seed = static_cast<u32>(rng.next_u64());
      ASSERT_EQ(common::crc32(block.data(), n, seed), common::scalar::crc32(block.data(), n, seed))
          << "n=" << n << " seed=" << seed;
    }
  });
}

TEST(Crc32Tiers, SplitAtEveryCut) {
  tiers::for_each_rung(common::Isa::Clmul, [&] {
    data::Rng rng(30);
    constexpr std::size_t kN = 300;
    const auto block = random_block(kN, rng);
    const u32 whole = common::scalar::crc32(block.data(), kN);
    ASSERT_EQ(common::crc32(block.data(), kN), whole);
    for (std::size_t cut = 0; cut <= kN; ++cut) {
      const std::vector<u8> head(block.begin(), block.begin() + cut);
      const std::vector<u8> tail(block.begin() + cut, block.end());
      EXPECT_EQ(common::crc32(tail.data(), tail.size(), common::crc32(head.data(), cut)), whole)
          << "cut=" << cut;
    }
  });
}

TEST(Crc32Tiers, OneMebibytePlusThirteen) {
  tiers::for_each_rung(common::Isa::Clmul, [&] {
    data::Rng rng(31);
    constexpr std::size_t kN = (std::size_t{1} << 20) + 13;
    const auto block = random_block(kN, rng);
    EXPECT_EQ(common::crc32(block.data(), kN), common::scalar::crc32(block.data(), kN));
  });
}

TEST(Crc32Tiers, AllZeroAndAllOnes) {
  tiers::for_each_rung(common::Isa::Clmul, [&] {
    for (const u8 fill : {u8{0x00}, u8{0xFF}})
      for (const std::size_t n : {std::size_t{64}, std::size_t{79}, std::size_t{128},
                                  std::size_t{1000}, std::size_t{65536 + 3}}) {
        const std::vector<u8> block(n, fill);
        EXPECT_EQ(common::crc32(block.data(), n), common::scalar::crc32(block.data(), n))
            << "fill=" << int{fill} << " n=" << n;
        EXPECT_EQ(common::crc32(block.data(), n, 0xFFFFFFFFu),
                  common::scalar::crc32(block.data(), n, 0xFFFFFFFFu))
            << "fill=" << int{fill} << " n=" << n;
      }
  });
}

// --- The ISA ladder (common/cpu.hpp) -------------------------------------------

namespace {

using common::Isa;

const char* rung_name() { return common::isa_name(common::isa()); }

}  // namespace

TEST(IsaLadder, CeilingAboveNativeClampsToNative) {
  const Isa native = common::isa();
  const common::ScopedIsaCeiling above(static_cast<Isa>(static_cast<int>(common::kTopIsa) + 1));
  EXPECT_STREQ(rung_name(), common::isa_name(native));
}

TEST(IsaLadder, NestedCeilingsRestoreInOrder) {
  const Isa native = common::isa();
  const Isa clmul = std::min(Isa::Clmul, native);
  {
    const common::ScopedIsaCeiling outer(Isa::Scalar);
    EXPECT_STREQ(rung_name(), "scalar");
    {
      const common::ScopedIsaCeiling inner(Isa::Clmul);
      EXPECT_STREQ(rung_name(), common::isa_name(clmul));
      // Process-wide: another thread runs at the same rung.
      const char* seen = nullptr;
      std::thread([&] { seen = rung_name(); }).join();
      EXPECT_STREQ(seen, common::isa_name(clmul));
    }
    EXPECT_STREQ(rung_name(), "scalar");
  }
  EXPECT_STREQ(rung_name(), common::isa_name(native));
}

#if defined(__linux__) && defined(__x86_64__)
TEST(IsaLadder, NativeRungMatchesProcCpuinfo) {
  // The kernel's reading of CPUID and XCR0, independent of __builtin_cpu_*.
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line) && line.rfind("flags", 0) != 0) {
  }
  ASSERT_EQ(line.rfind("flags", 0), 0u) << "no flags line in /proc/cpuinfo";
  std::istringstream words(line.substr(line.find(':') + 1));
  const std::set<std::string> flags{std::istream_iterator<std::string>(words), {}};
  // The flags each rung adds to the one below it, from Clmul up.
  const std::vector<std::vector<std::string>> adds = {
      {"pclmulqdq", "sse4_1"},
      {"avx2"},
      {"avx512f", "avx512bw", "avx512vl", "avx512dq", "avx512vbmi", "avx512_vbmi2", "gfni"}};
  Isa want = Isa::Scalar;
  for (const auto& need : adds) {
    if (!std::all_of(need.begin(), need.end(), [&](const auto& f) { return flags.count(f); }))
      break;
    want = static_cast<Isa>(static_cast<int>(want) + 1);
  }
  EXPECT_STREQ(rung_name(), common::isa_name(want));
}
#endif
