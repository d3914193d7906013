// Tests for the PFPS tiered chunk store: the 128-bit content hash, the
// sharded in-memory LRU, the persistent segment log (including crash
// recovery and corruption detection), the two-tier facade, and the ingest
// pipeline's stored-stream reuse.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/resource.h>
#endif

#include "common/hash.hpp"
#include "core/pfpl.hpp"
#include "gated_store.hpp"
#include "ingest/pipeline.hpp"
#include "store/cache.hpp"
#include "store/segment_log.hpp"
#include "store/store.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test store directory under the system temp dir.
class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("pfpl_test_store_" + tag)) {
    fs::remove_all(path_);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

common::Hash128 key_of(unsigned i) {
  return common::hash128(&i, sizeof i);
}

Bytes bytes_of(std::size_t n, u8 fill) { return Bytes(n, fill); }

Bytes make_field_bytes(std::size_t n, unsigned seed) {
  Bytes raw(n * sizeof(float));
  for (std::size_t i = 0; i < n; ++i) {
    const float v = static_cast<float>((i % 97) * 0.25 + seed);
    std::memcpy(raw.data() + i * sizeof(float), &v, sizeof(float));
  }
  return raw;
}

}  // namespace

// ---------------------------------------------------------------- Hash128

TEST(Hash128, StableDigests) {
  // On-disk keys must never change across refactors: these digests are part
  // of the PFPS format (a silent hash change would orphan every stored
  // chunk). Reference values computed once from the shipped implementation.
  const char* s = "PFPS hash stability probe";
  EXPECT_EQ(common::hash128(s, 25).hex(), "26f8eebab553a34003d15427f66709be");
  EXPECT_EQ(common::hash128(s, 25, 42).hex(), "43273c9f5ca65d7978851ee8ac53d856");
  EXPECT_TRUE(common::hash128("", 0).is_zero());
}

TEST(Hash128, HexParseRoundTrip) {
  const common::Hash128 h = common::hash128("roundtrip", 9);
  EXPECT_EQ(h.hex().size(), 32u);
  common::Hash128 back;
  ASSERT_TRUE(common::Hash128::parse(h.hex(), back));
  EXPECT_EQ(back, h);
  common::Hash128 junk;
  EXPECT_FALSE(common::Hash128::parse("zz", junk));
  EXPECT_FALSE(common::Hash128::parse(std::string(32, 'g'), junk));
  EXPECT_TRUE(common::Hash128::parse(std::string(32, '0'), junk));
  EXPECT_TRUE(junk.is_zero());
}

TEST(Hash128, SensitiveToEveryInput) {
  Bytes a(64, 0x5a);
  const common::Hash128 base = common::hash128(a.data(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] ^= 1;
    EXPECT_NE(common::hash128(a.data(), a.size()), base) << "byte " << i;
    a[i] ^= 1;
  }
  EXPECT_NE(common::hash128(a.data(), a.size() - 1), base);
  EXPECT_NE(common::hash128(a.data(), a.size(), 1), base);
}

namespace {

/// MurmurHash3 x64/128 with every little-endian word assembled one byte at
/// a time: the reference for hash128's word loads. The two must agree on
/// every length, alignment and seed, or every stored key would change.
common::Hash128 byte_loop_hash128(const u8* p, std::size_t n, u64 seed) {
  auto rotl = [](u64 x, int r) { return (x << r) | (x >> (64 - r)); };
  auto fmix = [](u64 k) {
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDull;
    k ^= k >> 33;
    k *= 0xC4CEB9FE1A85EC53ull;
    return k ^ (k >> 33);
  };
  auto load = [](const u8* q, std::size_t bytes) {  // little-endian, byte by byte
    u64 v = 0;
    for (std::size_t i = 0; i < bytes; ++i) v |= static_cast<u64>(q[i]) << (8 * i);
    return v;
  };
  constexpr u64 c1 = 0x87C37B91114253D5ull, c2 = 0x4CF5AD432745937Full;
  u64 h1 = seed, h2 = seed;
  const std::size_t nblocks = n / 16;
  for (std::size_t b = 0; b < nblocks; ++b) {
    u64 k1 = load(p + b * 16, 8), k2 = load(p + b * 16 + 8, 8);
    k1 *= c1; k1 = rotl(k1, 31); k1 *= c2; h1 ^= k1;
    h1 = rotl(h1, 27); h1 += h2; h1 = h1 * 5 + 0x52DCE729u;
    k2 *= c2; k2 = rotl(k2, 33); k2 *= c1; h2 ^= k2;
    h2 = rotl(h2, 31); h2 += h1; h2 = h2 * 5 + 0x38495AB5u;
  }
  const u8* tail = p + nblocks * 16;
  const std::size_t rest = n & 15;
  if (rest > 8) {
    u64 k2 = load(tail + 8, rest - 8);
    k2 *= c2; k2 = rotl(k2, 33); k2 *= c1; h2 ^= k2;
  }
  if (rest > 0) {
    u64 k1 = load(tail, rest < 8 ? rest : 8);
    k1 *= c1; k1 = rotl(k1, 31); k1 *= c2; h1 ^= k1;
  }
  h1 ^= static_cast<u64>(n);
  h2 ^= static_cast<u64>(n);
  h1 += h2;
  h2 += h1;
  h1 = fmix(h1);
  h2 = fmix(h2);
  h1 += h2;
  h2 += h1;
  return common::Hash128{h1, h2};
}

}  // namespace

TEST(Hash128, WordLoadsMatchTheByteReference) {
  // Every length 0..257 at every start offset 0..7 (so the word loads run
  // unaligned), with seeds 0, 1 and 2^63.
  Bytes buf(257 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 131 + 7);
  for (const u64 seed : {u64{0}, u64{1}, u64{1} << 63})
    for (std::size_t off = 0; off < 8; ++off)
      for (std::size_t n = 0; n <= 257; ++n)
        ASSERT_EQ(common::hash128(buf.data() + off, n, seed),
                  byte_loop_hash128(buf.data() + off, n, seed))
            << "length " << n << ", offset " << off << ", seed " << seed;
}

TEST(StoreKeys, DomainSeparation) {
  Bytes raw(256, 0x11);
  const auto c = store::compress_key(raw.data(), raw.size(), DType::F32,
                                     EbType::ABS, 1e-3);
  // Same bytes, different request parameters -> different keys.
  EXPECT_NE(c, store::compress_key(raw.data(), raw.size(), DType::F64,
                                   EbType::ABS, 1e-3));
  EXPECT_NE(c, store::compress_key(raw.data(), raw.size(), DType::F32,
                                   EbType::REL, 1e-3));
  EXPECT_NE(c, store::compress_key(raw.data(), raw.size(), DType::F32,
                                   EbType::ABS, 1e-4));
  // Compress and decompress keys over the same bytes never alias.
  EXPECT_NE(c, store::decompress_key(raw.data(), raw.size()));
  // Deterministic.
  EXPECT_EQ(c, store::compress_key(raw.data(), raw.size(), DType::F32,
                                   EbType::ABS, 1e-3));
}

// ------------------------------------------------------------- ResultCache

TEST(ResultCache, HitMissAndAccounting) {
  store::ResultCache::Options o;
  o.byte_budget = 1 << 20;
  o.shards = 4;
  store::ResultCache cache(o);
  Bytes out;
  EXPECT_FALSE(cache.get(key_of(1), out));
  cache.put(key_of(1), bytes_of(100, 0xaa));
  ASSERT_TRUE(cache.get(key_of(1), out));
  EXPECT_EQ(out, bytes_of(100, 0xaa));
  EXPECT_TRUE(cache.contains(key_of(1)));
  EXPECT_FALSE(cache.contains(key_of(2)));

  const store::ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.bytes, 100u);
  EXPECT_EQ(st.entries, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_FALSE(cache.get(key_of(1), out));
}

TEST(ResultCache, LruEvictionByBytes) {
  // One shard so recency order is global and deterministic.
  store::ResultCache::Options o;
  o.byte_budget = 1000;
  o.shards = 1;
  store::ResultCache cache(o);
  for (unsigned i = 0; i < 10; ++i) cache.put(key_of(i), bytes_of(100, u8(i)));
  EXPECT_EQ(cache.stats().entries, 10u);

  // Touch key 0 so it is MRU, then insert past the budget: key 1 (now LRU)
  // must be the eviction victim, key 0 must survive.
  Bytes out;
  ASSERT_TRUE(cache.get(key_of(0), out));
  cache.put(key_of(100), bytes_of(100, 0xff));
  EXPECT_TRUE(cache.contains(key_of(0)));
  EXPECT_TRUE(cache.contains(key_of(100)));
  EXPECT_FALSE(cache.contains(key_of(1)));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 1000u);
}

TEST(ResultCache, OversizeValueRejected) {
  store::ResultCache::Options o;
  o.byte_budget = 1000;
  o.shards = 4;  // shard budget = 250
  store::ResultCache cache(o);
  cache.put(key_of(1), bytes_of(100, 1));
  cache.put(key_of(2), bytes_of(500, 2));  // larger than any shard budget
  EXPECT_TRUE(cache.contains(key_of(1)));
  EXPECT_FALSE(cache.contains(key_of(2)));
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
}

TEST(ResultCache, SameKeyPutRefreshesNotDuplicates) {
  store::ResultCache::Options o;
  o.byte_budget = 1 << 16;
  o.shards = 1;
  store::ResultCache cache(o);
  cache.put(key_of(7), bytes_of(64, 1));
  cache.put(key_of(7), bytes_of(64, 1));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 64u);
}

TEST(ResultCache, ConcurrentMixedTraffic) {
  store::ResultCache::Options o;
  o.byte_budget = 1 << 20;
  o.shards = 8;
  store::ResultCache cache(o);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t)
    threads.emplace_back([&cache, t] {
      Bytes out;
      for (unsigned i = 0; i < 500; ++i) {
        const unsigned k = (t * 131 + i) % 64;
        if (cache.get(key_of(k), out)) {
          ASSERT_EQ(out.size(), 32u + k);
        } else {
          cache.put(key_of(k), bytes_of(32 + k, u8(k)));
        }
      }
    });
  for (auto& th : threads) th.join();
  const store::ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 8u * 500u);
  EXPECT_LE(st.bytes, o.byte_budget);
}

// ------------------------------------------------------------ SegmentStore

TEST(SegmentStore, PutGetRoundTripWithMeta) {
  StoreDir dir("roundtrip");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  store::SegmentStore log(o);
  const store::ChunkMeta meta{DType::F64, EbType::REL, 1e-4, 4096};
  EXPECT_TRUE(log.put(key_of(1), bytes_of(333, 0x42), meta));
  Bytes out;
  store::ChunkMeta back;
  ASSERT_TRUE(log.get(key_of(1), out, &back));
  EXPECT_EQ(out, bytes_of(333, 0x42));
  EXPECT_EQ(back.dtype, DType::F64);
  EXPECT_EQ(back.eb, EbType::REL);
  EXPECT_DOUBLE_EQ(back.eps, 1e-4);
  EXPECT_EQ(back.raw_size, 4096u);
  EXPECT_FALSE(log.get(key_of(2), out));
}

TEST(SegmentStore, DedupByContentKey) {
  StoreDir dir("dedup");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  store::SegmentStore log(o);
  EXPECT_TRUE(log.put(key_of(1), bytes_of(100, 1), {}));
  const u64 live = log.live_bytes();
  EXPECT_FALSE(log.put(key_of(1), bytes_of(100, 1), {}));  // no-op
  EXPECT_EQ(log.live_bytes(), live);
  EXPECT_EQ(log.entry_count(), 1u);
}

TEST(SegmentStore, PersistsAcrossReopen) {
  StoreDir dir("reopen");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  {
    store::SegmentStore log(o);
    for (unsigned i = 0; i < 20; ++i)
      log.put(key_of(i), bytes_of(50 + i, u8(i)), {DType::F32, EbType::ABS, 1e-3, 50});
  }
  store::SegmentStore log(o);
  EXPECT_EQ(log.entry_count(), 20u);
  EXPECT_EQ(log.open_report().torn_bytes, 0u);
  EXPECT_FALSE(log.open_report().manifest_recovered);
  for (unsigned i = 0; i < 20; ++i) {
    Bytes out;
    ASSERT_TRUE(log.get(key_of(i), out)) << i;
    EXPECT_EQ(out, bytes_of(50 + i, u8(i)));
  }
  EXPECT_TRUE(log.verify().ok());
}

TEST(SegmentStore, TornTailTruncatedOnReopen) {
  StoreDir dir("torn");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  fs::path active;
  {
    store::SegmentStore log(o);
    log.put(key_of(1), bytes_of(200, 1), {});
    log.sync();
    active = dir.path() / "seg-00000001.pfps";
    ASSERT_TRUE(fs::exists(active));
  }
  // Simulate a crash mid-append: garbage after the last valid frame.
  {
    std::FILE* f = std::fopen(active.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const Bytes garbage = bytes_of(37, 0xde);
    std::fwrite(garbage.data(), 1, garbage.size(), f);
    std::fclose(f);
  }
  store::SegmentStore log(o);
  EXPECT_EQ(log.open_report().torn_bytes, 37u);
  EXPECT_EQ(log.entry_count(), 1u);
  Bytes out;
  ASSERT_TRUE(log.get(key_of(1), out));
  EXPECT_EQ(out, bytes_of(200, 1));
  EXPECT_TRUE(log.verify().ok());
  // The torn bytes are gone from disk, so appends resume cleanly.
  EXPECT_TRUE(log.put(key_of(2), bytes_of(10, 2), {}));
  EXPECT_TRUE(log.verify().ok());
}

TEST(SegmentStore, SealedSegmentCorruptionDetected) {
  StoreDir dir("corrupt");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  o.max_segment_bytes = 512;  // force rotation -> sealed segments
  {
    store::SegmentStore log(o);
    for (unsigned i = 0; i < 8; ++i) log.put(key_of(i), bytes_of(200, u8(i)), {});
    ASSERT_GT(log.open_report().segments + 1, 1u);
  }
  // Flip a payload byte inside the first (sealed) segment.
  const fs::path seg = dir.path() / "seg-00000001.pfps";
  ASSERT_TRUE(fs::exists(seg));
  {
    std::FILE* f = std::fopen(seg.string().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(store::kSegmentHeaderSize +
                                    store::kChunkFrameHeaderSize + 5),
               SEEK_SET);
    u8 b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0xff;
    std::fseek(f, -1, SEEK_CUR);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);
  }
  store::SegmentStore log(o);
  const store::SegmentStore::VerifyReport rep = log.verify();
  EXPECT_FALSE(rep.ok());
  EXPECT_GE(rep.corrupt_frames, 1u);
}

TEST(SegmentStore, GetRejectsBytesCorruptedAfterOpen) {
  // get() reads the frame header to the stack and the payload straight into
  // its output: a flipped payload or header byte on disk after the open scan
  // must still throw, never return the bytes.
  StoreDir dir("get_corrupt");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  store::SegmentStore log(o);
  ASSERT_TRUE(log.put(key_of(1), bytes_of(300, 7), {}));
  ASSERT_TRUE(log.put(key_of(2), bytes_of(300, 8), {}));
  const std::string seg = (dir.path() / "seg-00000001.pfps").string();
  auto flip = [&](std::size_t off) {
    std::FILE* f = std::fopen(seg.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(off), SEEK_SET);
    u8 b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0x01;
    std::fseek(f, -1, SEEK_CUR);
    std::fwrite(&b, 1, 1, f);
    std::fclose(f);
  };
  const std::size_t frame2 = store::kSegmentHeaderSize + store::kChunkFrameHeaderSize + 300;
  flip(store::kSegmentHeaderSize + store::kChunkFrameHeaderSize + 299);  // last payload byte
  flip(frame2 + 20);                                                       // key.lo in the header
  Bytes out;
  for (unsigned k : {1u, 2u}) {
    try {
      log.get(key_of(k), out);
      ADD_FAILURE() << "get of corrupted frame " << k << " did not throw";
    } catch (const CompressionError& e) {
      EXPECT_NE(std::string(e.what()).find("failed CRC verification"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SegmentStore, AppendsPastTheWritebackThresholdReadBack) {
  // Past every 1 MiB appended, the POSIX append also starts writeback of the
  // file: frames written across several of those points read back intact,
  // before and after a reopen.
  StoreDir dir("writeback");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  std::vector<Bytes> payloads;
  for (unsigned i = 0; i < 5; ++i) payloads.push_back(bytes_of((600u << 10) + i, u8(i + 1)));
  {
    store::SegmentStore log(o);
    for (unsigned i = 0; i < payloads.size(); ++i)
      ASSERT_TRUE(log.put(key_of(i), payloads[i], {}));
    Bytes out;
    ASSERT_TRUE(log.get(key_of(4), out));
    EXPECT_EQ(out, payloads[4]);
  }
  store::SegmentStore log(o);
  EXPECT_TRUE(log.verify().ok());
  EXPECT_EQ(log.open_report().torn_bytes, 0u);
  for (unsigned i = 0; i < payloads.size(); ++i) {
    Bytes out;
    ASSERT_TRUE(log.get(key_of(i), out));
    EXPECT_EQ(out, payloads[i]) << "frame " << i;
  }
}

TEST(SegmentStore, ManifestRecoveredAfterDeletion) {
  StoreDir dir("manifest");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  {
    store::SegmentStore log(o);
    log.put(key_of(1), bytes_of(64, 1), {});
  }
  fs::remove(dir.path() / "manifest.pfps");
  store::SegmentStore log(o);
  EXPECT_TRUE(log.open_report().manifest_recovered);
  Bytes out;
  EXPECT_TRUE(log.get(key_of(1), out));
  // Reopen once more: the rebuilt manifest must now be clean.
  log.sync();
}

TEST(SegmentStore, RotationAndCompact) {
  StoreDir dir("compact");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  o.max_segment_bytes = 1024;
  store::SegmentStore log(o);
  // Interleave unique puts with duplicate puts (dedup leaves no dead bytes;
  // dead bytes here come only from what compact() is told to drop).
  for (unsigned i = 0; i < 16; ++i)
    log.put(key_of(i), bytes_of(300, u8(i)), {});
  const u64 gen_before = log.generation();
  ASSERT_GT(log.open_report().segments + log.generation(), 0u);

  const store::SegmentStore::CompactReport rep = log.compact();
  EXPECT_EQ(rep.live_entries, 16u);
  EXPECT_GT(log.generation(), gen_before);
  EXPECT_EQ(log.dead_bytes(), 0u);
  for (unsigned i = 0; i < 16; ++i) {
    Bytes out;
    ASSERT_TRUE(log.get(key_of(i), out)) << i;
    EXPECT_EQ(out, bytes_of(300, u8(i)));
  }
  EXPECT_TRUE(log.verify().ok());
  // And everything still reads back after a reopen of the compacted store.
  log.sync();
}

// -------------------------------------------------------------- ChunkStore

TEST(ChunkStore, MemoryOnlyTier) {
  store::ChunkStore cs(store::ChunkStore::Options{});
  EXPECT_FALSE(cs.persistent());
  EXPECT_EQ(cs.log(), nullptr);
  cs.put(key_of(1), bytes_of(128, 7), {});
  Bytes out;
  ASSERT_TRUE(cs.get(key_of(1), out));
  EXPECT_EQ(out, bytes_of(128, 7));
  cs.sync();  // no-op, must not throw
}

TEST(ChunkStore, LogHitPromotesIntoCache) {
  StoreDir dir("promote");
  store::ChunkStore::Options o;
  o.dir = dir.str();
  store::ChunkStore cs(o);
  ASSERT_TRUE(cs.persistent());
  cs.put(key_of(1), bytes_of(99, 3), {});
  cs.cache().clear();
  EXPECT_FALSE(cs.cache().contains(key_of(1)));
  Bytes out;
  ASSERT_TRUE(cs.get(key_of(1), out));  // served by the log...
  EXPECT_EQ(out, bytes_of(99, 3));
  EXPECT_TRUE(cs.cache().contains(key_of(1)));  // ...and promoted
}

TEST(ChunkStore, StatsJsonShape) {
  store::ChunkStore cs(store::ChunkStore::Options{});
  const std::string js = cs.stats_json();
  EXPECT_NE(js.find("\"cache\""), std::string::npos);
  EXPECT_NE(js.find("\"hits\""), std::string::npos);
  EXPECT_NE(js.find("\"persistent\":false"), std::string::npos);
}

// The stats never wait behind an append: the server renders them on its
// event loop (STATS, METRICS) and in the flight sampler, which must keep
// checking for stalls while a disk write is stuck.
TEST(ChunkStore, StatsJsonDoesNotWaitForAStuckAppend) {
  StoreDir dir("stats_stuck_append");
  gated::GatedStore gs(dir.path());
  gs.store->put(key_of(1), bytes_of(100, 1), {});
  gs.ops.hold();
  auto put = std::async(std::launch::async,
                        [&] { gs.store->put(key_of(2), bytes_of(100, 2), {}); });
  ASSERT_TRUE(gs.ops.wait_held());
  auto stats = std::async(std::launch::async, [&] { return gs.store->stats_json(); });
  const bool answered = stats.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gs.ops.open();
  put.get();
  ASSERT_TRUE(answered) << "stats_json() waited for the held append";
  EXPECT_NE(stats.get().find("\"entries\":1"), std::string::npos);
  EXPECT_EQ(gs.store->log()->entry_count(), 2u);
}

// ------------------------------------------------- IngestPipeline + store

TEST(BatchStoreReuse, SecondRunServedFromStore) {
  store::ChunkStore cs(store::ChunkStore::Options{});
  ingest::IngestPipeline::Options o;
  o.threads = 2;
  o.params.eps = 1e-3;
  o.store = &cs;
  ingest::IngestPipeline pipe(o);

  const Bytes raw = make_field_bytes(20000, 1);
  auto items = [&] {
    std::vector<ingest::Item> v;
    v.push_back({"a", "", raw});
    v.push_back({"b", "", raw});
    return v;
  };

  // First run: "b" has the same content as "a"; whether its probe sees "a"
  // already appended depends on timing, but both streams must be identical.
  // The second *run* must be answered entirely from the store.
  const std::vector<ingest::Result> first = pipe.run(items());
  ASSERT_EQ(first.size(), 2u);
  ASSERT_FALSE(first[0].failed) << first[0].error;
  ASSERT_FALSE(first[1].failed) << first[1].error;
  EXPECT_EQ(first[0].stream, first[1].stream);

  const std::vector<ingest::Result> second = pipe.run(items());
  ASSERT_FALSE(second[0].failed) << second[0].error;
  ASSERT_FALSE(second[1].failed) << second[1].error;
  EXPECT_TRUE(second[0].reused);
  EXPECT_TRUE(second[1].reused);
  EXPECT_EQ(pipe.stats().files_reused, 2u);
  EXPECT_EQ(second[0].stream, first[0].stream);
  EXPECT_EQ(second[1].stream, first[1].stream);

  // Reused results decompress to the same size as fresh ones.
  const std::vector<u8> back = pfpl::decompress(second[0].stream);
  EXPECT_EQ(back.size(), raw.size());
}


// ------------------------------------------------------------ append_batch

TEST(SegmentStore, AppendBatchGroupCommit) {
  StoreDir dir("batch");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  store::SegmentStore log(o);

  // A key that is already stored must be skipped by the batch's dedup.
  ASSERT_TRUE(log.put(key_of(0), bytes_of(64, 0xAA), {}));

  const Bytes p1 = bytes_of(100, 1), p2 = bytes_of(200, 2), p3 = bytes_of(300, 3);
  const Bytes p_old = bytes_of(64, 0xAA);
  std::vector<store::SegmentStore::BatchEntry> entries;
  entries.push_back({key_of(1), &p1, {DType::F32, EbType::ABS, 1e-3, 400}});
  entries.push_back({key_of(2), &p2, {}});
  entries.push_back({key_of(0), &p_old, {}});  // duplicate of the earlier put
  entries.push_back({key_of(2), &p2, {}});     // duplicate within the batch
  entries.push_back({key_of(3), &p3, {}});

  EXPECT_EQ(log.append_batch(entries), 3u);  // only the three new keys
  EXPECT_EQ(log.entry_count(), 4u);

  Bytes out;
  store::ChunkMeta meta;
  ASSERT_TRUE(log.get(key_of(1), out, &meta));
  EXPECT_EQ(out, p1);
  EXPECT_EQ(meta.raw_size, 400u);
  ASSERT_TRUE(log.get(key_of(2), out));
  EXPECT_EQ(out, p2);
  ASSERT_TRUE(log.get(key_of(3), out));
  EXPECT_EQ(out, p3);
  EXPECT_TRUE(log.verify().ok());
}

TEST(SegmentStore, AppendBatchPersistsAcrossReopenAndRotation) {
  StoreDir dir("batch_reopen");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  o.max_segment_bytes = 2048;  // force rotation mid-batch
  {
    store::SegmentStore log(o);
    std::vector<Bytes> payloads;
    for (unsigned i = 0; i < 12; ++i) payloads.push_back(bytes_of(400 + i, u8(i)));
    std::vector<store::SegmentStore::BatchEntry> entries;
    for (unsigned i = 0; i < 12; ++i)
      entries.push_back({key_of(i), &payloads[i], {DType::F32, EbType::ABS, 1e-3, 400}});
    EXPECT_EQ(log.append_batch(entries), 12u);
    EXPECT_GT(log.verify().segments, 1u);  // the batch crossed a rotation
  }
  store::SegmentStore log(o);
  EXPECT_EQ(log.entry_count(), 12u);
  EXPECT_EQ(log.open_report().torn_bytes, 0u);
  for (unsigned i = 0; i < 12; ++i) {
    Bytes out;
    ASSERT_TRUE(log.get(key_of(i), out)) << i;
    EXPECT_EQ(out, bytes_of(400 + i, u8(i)));
  }
  EXPECT_TRUE(log.verify().ok());
}

#ifndef _WIN32
namespace {

/// Caps the size of every file this process writes (RLIMIT_FSIZE, with
/// SIGXFSZ ignored so an over-limit write fails with EFBIG) until destroyed.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &old_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = old_;
    cap.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &cap);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit old_{};
  void (*old_handler_)(int) = nullptr;
};

}  // namespace

TEST(SegmentStore, FailedAppendLeavesLaterAppendsReadable) {
  // A put that fails mid-frame must not shift where the next frame lands:
  // the next acknowledged put reads back, now and after a reopen.
  StoreDir dir("failed_append");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  {
    store::SegmentStore log(o);
    ASSERT_TRUE(log.put(key_of(1), bytes_of(1000, 1), {}));
    {
      FileSizeLimit cap(100000);
      EXPECT_THROW(log.put(key_of(2), bytes_of(200000, 2), {}), CompressionError);
    }
    ASSERT_TRUE(log.put(key_of(3), bytes_of(500, 3), {}));
    Bytes out;
    ASSERT_TRUE(log.get(key_of(3), out));
    EXPECT_EQ(out, bytes_of(500, 3));
    EXPECT_FALSE(log.get(key_of(2), out));
    EXPECT_TRUE(log.verify().ok());
  }
  store::SegmentStore log(o);
  EXPECT_EQ(log.entry_count(), 2u);
  EXPECT_EQ(log.open_report().torn_bytes, 0u);
  Bytes out;
  ASSERT_TRUE(log.get(key_of(1), out));
  EXPECT_EQ(out, bytes_of(1000, 1));
  ASSERT_TRUE(log.get(key_of(3), out));
  EXPECT_EQ(out, bytes_of(500, 3));
}

TEST(SegmentStore, FailedCompactKeepsTheOldLayout) {
  // A compact() that fails part-way must leave the store usable on its old
  // segments, with no partial new segment left on disk.
  StoreDir dir("failed_compact");
  store::SegmentStore::Options o;
  o.dir = dir.str();
  {
    store::SegmentStore log(o);
    for (unsigned i = 0; i < 4; ++i)
      ASSERT_TRUE(log.put(key_of(i), bytes_of(50000, u8(i)), {}));
    const u64 gen = log.generation();
    {
      FileSizeLimit cap(60000);
      EXPECT_THROW(log.compact(), CompressionError);
    }
    EXPECT_EQ(log.generation(), gen);
    EXPECT_FALSE(fs::exists(dir.path() / "seg-00000002.pfps"));
    EXPECT_TRUE(log.put(key_of(4), bytes_of(700, 4), {}));
    for (unsigned i = 0; i < 5; ++i) {
      Bytes out;
      ASSERT_TRUE(log.get(key_of(i), out)) << i;
      EXPECT_EQ(out, bytes_of(i < 4 ? 50000 : 700, u8(i)));
    }
    EXPECT_TRUE(log.verify().ok());
    // The next compact() succeeds and keeps every entry.
    EXPECT_EQ(log.compact().live_entries, 5u);
  }
  store::SegmentStore log(o);
  EXPECT_EQ(log.entry_count(), 5u);
  EXPECT_TRUE(log.verify().ok());
}
#endif

TEST(ChunkStore, PutBatchFillsBothTiers) {
  StoreDir dir("put_batch");
  store::ChunkStore::Options o;
  o.dir = dir.str();
  std::vector<Bytes> payloads;
  for (unsigned i = 0; i < 6; ++i) payloads.push_back(bytes_of(128 + i, u8(i)));
  {
    store::ChunkStore cs(o);
    std::vector<store::SegmentStore::BatchEntry> entries;
    for (unsigned i = 0; i < 6; ++i)
      entries.push_back({key_of(i), &payloads[i], {DType::F32, EbType::ABS, 1e-3, 128}});
    EXPECT_EQ(cs.put_batch(entries), 6u);
    // Cache tier: every get answers without touching the log.
    for (unsigned i = 0; i < 6; ++i) {
      Bytes out;
      ASSERT_TRUE(cs.get(key_of(i), out)) << i;
      EXPECT_EQ(out, payloads[i]);
    }
    EXPECT_GE(cs.cache().stats().hits, 6u);
    cs.sync();
  }
  // Persistent tier: a fresh ChunkStore (cold cache) still serves every key.
  store::ChunkStore cs(o);
  for (unsigned i = 0; i < 6; ++i) {
    Bytes out;
    ASSERT_TRUE(cs.get(key_of(i), out)) << i;
    EXPECT_EQ(out, payloads[i]);
  }
}
