// Tests for the ingest pipeline — the repo's one multi-field, chunk-parallel
// compression path: byte-identity with the serial compressor at every worker
// count and item size, in-order completion, dedup-probe reuse, group commits,
// the in-flight item bound, per-item errors, unwinding when the caller's
// callback throws, and the audit hook.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/pfpl.hpp"
#include "ingest/pipeline.hpp"
#include "io/raw_file.hpp"
#include "store/store.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

constexpr double kEps = 1e-3;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("pfpl_test_ingest_" + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<float> make_field_values(std::size_t n, unsigned seed) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>((i % 97) * 0.25 + seed);
  return v;
}

Bytes as_bytes(const std::vector<float>& v) {
  const u8* p = reinterpret_cast<const u8*>(v.data());
  return Bytes(p, p + v.size() * sizeof(float));
}

ingest::IngestPipeline::Options base_options() {
  ingest::IngestPipeline::Options o;
  o.dtype = DType::F32;
  o.params.eps = kEps;
  o.threads = 2;
  return o;
}

std::vector<ingest::Item> memory_items(std::size_t count, std::size_t values) {
  std::vector<ingest::Item> items;
  for (std::size_t i = 0; i < count; ++i)
    items.push_back(ingest::Item{"item" + std::to_string(i), "",
                                 as_bytes(make_field_values(values, unsigned(i)))});
  return items;
}

/// The serial reference: what pfpl::compress says the stream must be.
Bytes serial_stream(std::size_t values, unsigned seed) {
  const std::vector<float> v = make_field_values(values, seed);
  pfpl::Params params;
  params.eps = kEps;
  return pfpl::compress(Field(v.data(), v.size()), params);
}

}  // namespace

// ------------------------------------------------------------- byte identity

TEST(IngestPipeline, StreamsByteIdenticalToSerialCompress) {
  const std::size_t kValues = 6000;  // > one chunk, odd tail
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    ingest::IngestPipeline::Options o = base_options();
    o.threads = threads;
    ingest::IngestPipeline pipe(o);
    std::vector<ingest::Result> rs = pipe.run(memory_items(5, kValues));
    ASSERT_EQ(rs.size(), 5u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      EXPECT_FALSE(rs[i].failed) << rs[i].error;
      EXPECT_FALSE(rs[i].cancelled);
      EXPECT_FALSE(rs[i].audited);  // audit is opt-in
      EXPECT_EQ(rs[i].name, "item" + std::to_string(i));
      EXPECT_EQ(rs[i].raw_bytes, kValues * sizeof(float));
      EXPECT_EQ(rs[i].stream, serial_stream(kValues, unsigned(i)))
          << "item " << i << " differs at threads=" << threads;
      EXPECT_EQ(rs[i].header.value_count, kValues);
    }
    const ingest::IngestStats& st = pipe.stats();
    EXPECT_EQ(st.threads, threads);
    EXPECT_EQ(st.files, 5u);
    EXPECT_EQ(st.files_failed, 0u);
    EXPECT_EQ(st.audited, 0u);
    EXPECT_GT(st.chunks, 0u);
    EXPECT_EQ(st.bytes_in, 5u * kValues * sizeof(float));
  }
}

TEST(IngestPipeline, MixedItemSizesKeepTheirBytes) {
  // Zero chunks, a one-value chunk, exactly one chunk, one chunk plus one
  // value and a short tail: each is byte-identical to the serial stream.
  const std::vector<std::size_t> sizes{0, 1, 4096, 4097, 6000};
  for (unsigned threads : {1u, 2u, 8u}) {
    ingest::IngestPipeline::Options o = base_options();
    o.threads = threads;
    ingest::IngestPipeline pipe(o);
    std::vector<ingest::Item> items;
    for (std::size_t i = 0; i < sizes.size(); ++i)
      items.push_back(ingest::Item{"item" + std::to_string(i), "",
                                   as_bytes(make_field_values(sizes[i], unsigned(i)))});
    const std::vector<ingest::Result> rs = pipe.run(std::move(items));
    ASSERT_EQ(rs.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ASSERT_FALSE(rs[i].failed) << rs[i].error;
      EXPECT_EQ(rs[i].stream, serial_stream(sizes[i], unsigned(i)))
          << sizes[i] << " values differ at threads=" << threads;
    }
  }
}

TEST(IngestPipeline, InvalidBoundFailsEachItemWithoutThrowing) {
  ingest::IngestPipeline::Options o = base_options();
  o.params.eps = -1.0;
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs;
  EXPECT_NO_THROW(rs = pipe.run(memory_items(3, 2000)));
  ASSERT_EQ(rs.size(), 3u);
  for (const ingest::Result& r : rs) {
    EXPECT_TRUE(r.failed) << r.name;
    EXPECT_FALSE(r.cancelled);
    EXPECT_FALSE(r.error.empty());
    EXPECT_TRUE(r.stream.empty());
  }
  EXPECT_EQ(pipe.stats().files_failed, 3u);
}

TEST(IngestPipeline, FileItemsMatchMemoryItems) {
  ScratchDir dir("files");
  const std::size_t kValues = 3000;
  std::vector<ingest::Item> items;
  for (unsigned i = 0; i < 3; ++i) {
    const Bytes raw = as_bytes(make_field_values(kValues, i));
    const fs::path p = dir.path() / ("f" + std::to_string(i) + ".raw");
    std::FILE* out = std::fopen(p.string().c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), out), raw.size());
    std::fclose(out);
    items.push_back(ingest::Item{"f" + std::to_string(i), p.string(), {}});
  }
  ingest::IngestPipeline pipe(base_options());
  std::vector<ingest::Result> rs = pipe.run(std::move(items));
  ASSERT_EQ(rs.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_FALSE(rs[i].failed) << rs[i].error;
    EXPECT_EQ(rs[i].raw_bytes, kValues * sizeof(float));
    EXPECT_EQ(rs[i].stream, serial_stream(kValues, i));
  }
}

TEST(IngestPipeline, PathItemsMatchMemoryItems) {
  // A path item is read into memory that is never zero-filled: its stream
  // and content key must equal those of the same bytes handed over in
  // memory. A directory fails its own item with the io message; the rest pack.
  const std::vector<std::size_t> sizes{0, 1, 4096, 4097};
  for (unsigned threads : {1u, 2u}) {
    ScratchDir dir("path_items_" + std::to_string(threads));
    const fs::path subdir = dir.path() / "a_directory";
    fs::create_directories(subdir);
    std::vector<ingest::Item> on_disk, in_memory;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const Bytes raw = as_bytes(make_field_values(sizes[i], unsigned(i)));
      const std::string path = (dir.path() / ("f" + std::to_string(i) + ".raw")).string();
      io::write_file(path, raw.data(), raw.size());
      on_disk.push_back(ingest::Item{"f" + std::to_string(i), path, {}});
      in_memory.push_back(ingest::Item{"f" + std::to_string(i), "", raw});
      if (i == 1) on_disk.push_back(ingest::Item{"dir", subdir.string(), {}});
    }
    auto run = [&](const std::string& tag, std::vector<ingest::Item> items) {
      store::ChunkStore::Options so;
      so.dir = (dir.path() / tag).string();
      store::ChunkStore cs(so);
      ingest::IngestPipeline::Options o = base_options();
      o.threads = threads;
      o.store = &cs;
      ingest::IngestPipeline pipe(o);
      return pipe.run(std::move(items));
    };
    std::vector<ingest::Result> disk = run("store_disk", std::move(on_disk));
    const std::vector<ingest::Result> mem = run("store_mem", std::move(in_memory));
    ASSERT_EQ(disk.size(), sizes.size() + 1);
    const ingest::Result failed = disk[2];
    disk.erase(disk.begin() + 2);
    EXPECT_TRUE(failed.failed);
    EXPECT_NE(failed.error.find("cannot read " + subdir.string()), std::string::npos)
        << failed.error;
    EXPECT_NE(failed.error.find(std::strerror(EISDIR)), std::string::npos) << failed.error;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ASSERT_FALSE(disk[i].failed) << disk[i].error;
      ASSERT_FALSE(mem[i].failed) << mem[i].error;
      EXPECT_FALSE(disk[i].reused);
      EXPECT_EQ(disk[i].raw_bytes, sizes[i] * sizeof(float));
      EXPECT_EQ(disk[i].stream, mem[i].stream) << sizes[i] << " values, threads=" << threads;
      EXPECT_EQ(disk[i].stream, serial_stream(sizes[i], unsigned(i)));
      EXPECT_EQ(disk[i].key, mem[i].key) << sizes[i] << " values, threads=" << threads;
      EXPECT_FALSE(disk[i].key.is_zero());
    }
  }
}

// --------------------------------------------------------- in-order delivery

TEST(IngestPipeline, ProgressFiresInSubmissionOrder) {
  ingest::IngestPipeline::Options o = base_options();
  std::vector<std::size_t> order;
  o.progress = [&](const ingest::Result& r, std::size_t index, std::size_t total) {
    EXPECT_EQ(total, 8u);
    EXPECT_FALSE(r.failed);
    order.push_back(index);
  };
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(memory_items(8, 2000));
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  for (const ingest::Result& r : rs) EXPECT_FALSE(r.failed) << r.error;
}

TEST(IngestPipeline, EmptyRunReturnsEmpty) {
  ingest::IngestPipeline pipe(base_options());
  EXPECT_TRUE(pipe.run({}).empty());
  EXPECT_EQ(pipe.stats().files, 0u);
}

// ----------------------------------------------------------- dedup / batches

TEST(IngestPipeline, DedupProbeReturnsByteIdenticalStreams) {
  ScratchDir dir("dedup");
  store::ChunkStore::Options so;
  so.dir = (dir.path() / "store").string();
  store::ChunkStore cs(so);

  ingest::IngestPipeline::Options o = base_options();
  o.store = &cs;
  ingest::IngestPipeline pipe(o);

  std::vector<ingest::Result> first = pipe.run(memory_items(4, 4000));
  for (const ingest::Result& r : first) ASSERT_FALSE(r.failed) << r.error;
  const ingest::IngestStats st1 = pipe.stats();
  EXPECT_EQ(st1.probe_hits, 0u);
  EXPECT_EQ(st1.probe_misses, 4u);
  EXPECT_EQ(st1.appended, 4u);
  EXPECT_GE(st1.append_batches, 1u);

  // Second pass over identical content: every item is answered by the
  // dedup probe, nothing new is appended, streams are byte-identical.
  std::vector<ingest::Result> second = pipe.run(memory_items(4, 4000));
  const ingest::IngestStats st2 = pipe.stats();
  EXPECT_EQ(st2.probe_hits, 4u);
  EXPECT_EQ(st2.files_reused, 4u);
  EXPECT_EQ(st2.appended, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(second[i].reused);
    EXPECT_EQ(second[i].stream, first[i].stream);
    EXPECT_EQ(second[i].stream, serial_stream(4000, unsigned(i)));
  }
}

TEST(IngestPipeline, AppendBatchingGroupsItems) {
  ScratchDir dir("batch");
  store::ChunkStore::Options so;
  so.dir = (dir.path() / "store").string();
  store::ChunkStore cs(so);

  ingest::IngestPipeline::Options o = base_options();
  o.store = &cs;
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(memory_items(8, 2000));
  for (const ingest::Result& r : rs) ASSERT_FALSE(r.failed) << r.error;
  const ingest::IngestStats& st = pipe.stats();
  EXPECT_EQ(st.appended, 8u);
  // 8 appended chunks in at most 8 group commits; batching must do no worse
  // than one fsync per chunk and the store must agree on the count.
  EXPECT_LE(st.append_batches, 8u);
  EXPECT_GE(st.append_batches, 1u);
  const store::SegmentStore::VerifyReport rep = cs.log()->verify();
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.frames_ok, 8u);
}

TEST(IngestPipeline, StoreFilesArePinned) {
  // The store's on-disk bytes are part of the PFPS format: a fixed set packed
  // into a fresh store (small segments, so it rotates; item 7 repeats item 0,
  // so one frame is deduped) must leave exactly these files, however the
  // write path gets them there.
  ScratchDir dir("pinned");
  const std::string store_dir = (dir.path() / "store").string();
  {
    store::ChunkStore::Options so;
    so.dir = store_dir;
    so.max_segment_bytes = 16 << 10;
    store::ChunkStore cs(so);
    ingest::IngestPipeline::Options o = base_options();
    o.store = &cs;
    ingest::IngestPipeline pipe(o);
    std::vector<ingest::Item> items;
    for (unsigned i = 0; i < 8; ++i)
      items.push_back(ingest::Item{"item" + std::to_string(i), "",
                                   as_bytes(make_field_values(3000 + 1500 * (i % 7), i % 7))});
    for (const ingest::Result& r : pipe.run(std::move(items))) ASSERT_FALSE(r.failed) << r.error;
  }
  std::map<std::string, std::string> digests;
  for (const fs::directory_entry& e : fs::directory_iterator(store_dir)) {
    const Bytes b = io::read_file(e.path().string());
    digests[e.path().filename().string()] = common::hash128(b.data(), b.size()).hex();
  }
  const std::map<std::string, std::string> pinned{
      {"manifest.pfps", "25df8f75e930dd393f1a1d596b1815b4"},
      {"seg-00000001.pfps", "e76c17dae6b1717f0e6ab4c5695702ed"},
      {"seg-00000002.pfps", "1f59ffdc6bf3cc462689f1c4d0ec363e"},
      {"seg-00000003.pfps", "d3964ebedb3467db5c8ed0763646f7d7"},
      {"seg-00000004.pfps", "4bb283cc68fa1ed728d7bb2a0def0653"}};
  EXPECT_EQ(digests, pinned);
}

// ------------------------------------------------------------- backpressure

TEST(IngestPipeline, InflightItemsBoundedByThreads) {
  // At most threads + 1 items are in flight ahead of the caller, so at most
  // that many raw inputs are held at once, whatever the item count.
  const std::size_t kValues = 64 * 1024;  // 256 KiB raw, 16 chunks per item
  const std::size_t item_bytes = kValues * sizeof(float);
  for (unsigned threads : {1u, 2u, 4u}) {
    ingest::IngestPipeline::Options o = base_options();
    o.threads = threads;
    ingest::IngestPipeline pipe(o);
    std::vector<ingest::Result> rs = pipe.run(memory_items(10, kValues));
    for (const ingest::Result& r : rs) ASSERT_FALSE(r.failed) << r.error;
    const ingest::IngestStats& st = pipe.stats();
    EXPECT_GE(st.peak_queue_items, 1u);
    EXPECT_LE(st.peak_queue_items, threads + 1u) << "threads=" << threads;
    EXPECT_LE(st.peak_queue_bytes, (threads + 1u) * item_bytes) << "threads=" << threads;
  }
}

// ------------------------------------------------------------------ errors

TEST(IngestPipeline, SoftErrorContinuesRemainingItems) {
  std::vector<ingest::Item> items = memory_items(4, 2000);
  items[1] = ingest::Item{"missing", "/nonexistent/pfpl-test-input.raw", {}};
  ingest::IngestPipeline pipe(base_options());
  std::vector<ingest::Result> rs = pipe.run(std::move(items));
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_TRUE(rs[1].failed);
  EXPECT_FALSE(rs[1].error.empty());
  for (std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(rs[i].failed) << rs[i].error;
    EXPECT_FALSE(rs[i].cancelled);
    EXPECT_FALSE(rs[i].stream.empty());
  }
  EXPECT_EQ(pipe.stats().files_failed, 1u);
}

TEST(IngestPipeline, PartialScalarFailsItsItem) {
  // 14 bytes are three f32 values and two stray bytes: the item fails with
  // the size in its message instead of dropping the tail, and the rest pack.
  std::vector<ingest::Item> items = memory_items(3, 2000);
  items[1].raw.resize(14);
  ingest::IngestPipeline pipe(base_options());
  const std::vector<ingest::Result> rs = pipe.run(std::move(items));
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_TRUE(rs[1].failed);
  EXPECT_NE(rs[1].error.find("14 bytes"), std::string::npos) << rs[1].error;
  EXPECT_TRUE(rs[1].stream.empty());
  for (std::size_t i : {0u, 2u}) {
    EXPECT_FALSE(rs[i].failed) << rs[i].error;
    EXPECT_EQ(rs[i].stream, serial_stream(2000, unsigned(i)));
  }
  EXPECT_EQ(pipe.stats().files_failed, 1u);
}

TEST(IngestPipeline, ThrowingProgressUnwindsWithoutDeadlock) {
  // The first delivery throws while later items are still being read and
  // encoded: run() must rethrow, after waiting out every pool task that
  // still uses an item's buffers.
  bool throw_once = true;
  ingest::IngestPipeline::Options o = base_options();
  o.threads = 1;
  o.progress = [&](const ingest::Result&, std::size_t, std::size_t) {
    if (throw_once) {
      throw_once = false;
      throw std::runtime_error("progress sink failed");
    }
  };
  ingest::IngestPipeline pipe(o);
  EXPECT_THROW(pipe.run(memory_items(16, 64 * 1024)), std::runtime_error);
  // The same pipeline runs again normally.
  const std::vector<ingest::Result> rs = pipe.run(memory_items(3, 2000));
  ASSERT_EQ(rs.size(), 3u);
  for (std::size_t i = 0; i < rs.size(); ++i)
    EXPECT_EQ(rs[i].stream, serial_stream(2000, unsigned(i)));
}

// ------------------------------------------------------------------- audit

TEST(IngestPipeline, AuditVerifiesEveryStream) {
  ScratchDir dir("audit");
  store::ChunkStore::Options so;
  so.dir = (dir.path() / "store").string();
  store::ChunkStore cs(so);
  ingest::IngestPipeline::Options o = base_options();
  o.store = &cs;
  o.audit = true;
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(memory_items(3, 3000));
  for (const ingest::Result& r : rs) {
    EXPECT_FALSE(r.failed) << r.error;
    EXPECT_TRUE(r.audited);
    EXPECT_EQ(r.audit_violations, 0u);
  }
  EXPECT_EQ(pipe.stats().audited, 3u);
  EXPECT_EQ(pipe.stats().audit_violations, 0u);

  // Reused items are audited too: the probe-hit stream gets the same
  // decompress-and-verify treatment as a freshly encoded one.
  std::vector<ingest::Result> again = pipe.run(memory_items(3, 3000));
  for (const ingest::Result& r : again) {
    EXPECT_TRUE(r.reused);
    EXPECT_TRUE(r.audited);
    EXPECT_EQ(r.audit_violations, 0u);
  }
}

// ------------------------------------------------------------ probe helper

TEST(ProbeCompress, MissThenHit) {
  store::ChunkStore cs(store::ChunkStore::Options{});  // memory-only
  const std::vector<float> v = make_field_values(2000, 7);
  const std::size_t raw_n = v.size() * sizeof(float);

  Bytes stream;
  ingest::ProbeResult miss =
      ingest::probe_compress(cs, v.data(), raw_n, DType::F32, EbType::ABS, kEps, stream);
  EXPECT_FALSE(miss.hit);

  pfpl::Params params;
  params.eps = kEps;
  const Bytes encoded = pfpl::compress(Field(v.data(), v.size()), params);
  cs.put(miss.key, encoded, store::ChunkMeta{DType::F32, EbType::ABS, kEps, raw_n});

  ingest::ProbeResult hit =
      ingest::probe_compress(cs, v.data(), raw_n, DType::F32, EbType::ABS, kEps, stream);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.key, miss.key);
  EXPECT_EQ(stream, encoded);
}
