// Tests for the asynchronous staged ingest pipeline — the repo's one
// multi-field, chunk-parallel driver: byte-identity with the serial
// compressor at every worker count and under a tiny in-flight budget,
// in-order completion, dedup-probe reuse, bounded-queue backpressure (byte
// budget held under a slow consumer), per-item errors, first-error
// cancellation without deadlock, and the audit hook.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/pfpl.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/queue.hpp"
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

TEST(IngestPipeline, TinyInflightBudgetStillDeterministic) {
  // A budget smaller than one chunk admits chunks one at a time (the
  // oversized-acquisition escape hatch); bytes must still be identical.
  const std::size_t kValues = 4096 * 8;
  ingest::IngestPipeline::Options o = base_options();
  o.threads = 4;
  o.max_inflight_bytes = 1024;
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(memory_items(2, kValues));
  ASSERT_EQ(rs.size(), 2u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_FALSE(rs[i].failed) << rs[i].error;
    EXPECT_EQ(rs[i].stream, serial_stream(kValues, unsigned(i)));
  }
  EXPECT_EQ(pipe.stats().chunks, 16u);
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
  ingest::IngestPipeline::Options o = base_options();
  o.read_buffer_bytes = 1024;  // force many buffer seams per file
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(std::move(items));
  ASSERT_EQ(rs.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_FALSE(rs[i].failed) << rs[i].error;
    EXPECT_EQ(rs[i].raw_bytes, kValues * sizeof(float));
    EXPECT_EQ(rs[i].stream, serial_stream(kValues, i));
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
  o.batch_items = 4;
  // Stall the encode stage feed so the append queue accumulates and the
  // greedy batcher actually groups (without it, a fast consumer can drain
  // item-by-item and legitimately produce one batch per item).
  o.stage_cost_us[3] = 2000;
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

// ------------------------------------------------------------- backpressure

TEST(IngestPipeline, ByteBudgetHoldsUnderSlowConsumer) {
  // Append stage stalled 3ms/item via the test hook; reader would otherwise
  // race ahead and buffer the whole input set.
  ::setenv("PFPL_INGEST_TEST_SLOW_STAGE_US", "3000", 1);
  ingest::IngestPipeline::Options o = base_options();
  const std::size_t kValues = 8192;                   // 32 KiB raw per item
  const std::size_t item_bytes = kValues * sizeof(float);
  o.queue_items = 64;                                 // items bound never trips
  o.queue_bytes = 3 * item_bytes;                     // bytes bound does
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(memory_items(10, kValues));
  ::unsetenv("PFPL_INGEST_TEST_SLOW_STAGE_US");
  for (const ingest::Result& r : rs) ASSERT_FALSE(r.failed) << r.error;
  const ingest::IngestStats& st = pipe.stats();
  EXPECT_GT(st.peak_queue_bytes, 0u);
  EXPECT_LE(st.peak_queue_bytes, o.queue_bytes);
  EXPECT_LE(st.peak_queue_items, 3u);
}

TEST(BoundedQueue, AdmitsOneOversizedItemWhenEmpty) {
  ingest::BoundedQueue<int> q(4, 100);
  EXPECT_TRUE(q.push(1, 1000));  // larger than the whole budget, queue empty
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
}

TEST(BoundedQueue, CancelWakesBlockedPusher) {
  ingest::BoundedQueue<int> q(1, 100);
  ASSERT_TRUE(q.push(1, 10));
  std::thread t([&] {
    // Blocks: item bound is full. Must wake with false on cancel, not hang.
    EXPECT_FALSE(q.push(2, 10));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.cancel();
  t.join();
  int v = 0;
  EXPECT_FALSE(q.pop(v));  // cancelled queues drop their contents
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  ingest::BoundedQueue<int> q(8, 1 << 20);
  ASSERT_TRUE(q.push(1, 4));
  ASSERT_TRUE(q.push(2, 4));
  q.close();
  EXPECT_FALSE(q.push(3, 4));
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));
}

// ------------------------------------------------------- error / cancellation

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
  EXPECT_EQ(pipe.stats().files_cancelled, 0u);
}

TEST(IngestPipeline, FailFastCancelsUpstreamWithoutDeadlock) {
  // Item 0 fails in the read stage immediately; with fail_fast every later
  // item must come back `cancelled`, the failing item must keep its real
  // error, and run() must return (no stage may deadlock on a cancelled
  // queue). The slow-append hook widens the window where items would be
  // in-flight if cancellation failed to drop them.
  ::setenv("PFPL_INGEST_TEST_SLOW_STAGE_US", "2000", 1);
  std::vector<ingest::Item> items = memory_items(6, 2000);
  items[0] = ingest::Item{"missing", "/nonexistent/pfpl-test-input.raw", {}};
  ingest::IngestPipeline::Options o = base_options();
  o.fail_fast = true;
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(std::move(items));
  ::unsetenv("PFPL_INGEST_TEST_SLOW_STAGE_US");
  ASSERT_EQ(rs.size(), 6u);
  EXPECT_TRUE(rs[0].failed);
  EXPECT_FALSE(rs[0].cancelled);
  EXPECT_NE(rs[0].error.find("nonexistent"), std::string::npos) << rs[0].error;
  for (std::size_t i = 1; i < rs.size(); ++i) {
    EXPECT_TRUE(rs[i].cancelled) << "item " << i;
    EXPECT_TRUE(rs[i].stream.empty());
    EXPECT_EQ(rs[i].name, "item" + std::to_string(i));  // names survive drops
  }
  EXPECT_EQ(pipe.stats().files_failed, 1u);
  EXPECT_EQ(pipe.stats().files_cancelled, 5u);
}

TEST(IngestPipeline, MidStreamFailFastDeliversEarlierItems) {
  // The bad item sits in the middle: items before it complete normally,
  // items after it are cancelled. Exercises the cancel path while every
  // queue is actively carrying work.
  std::vector<ingest::Item> items = memory_items(8, 2000);
  items[4] = ingest::Item{"missing", "/nonexistent/pfpl-test-input.raw", {}};
  ingest::IngestPipeline::Options o = base_options();
  o.fail_fast = true;
  o.queue_items = 1;  // tight queues: the reader cannot race far ahead
  ingest::IngestPipeline pipe(o);
  std::vector<ingest::Result> rs = pipe.run(std::move(items));
  ASSERT_EQ(rs.size(), 8u);
  int failed = 0, cancelled = 0, completed = 0;
  for (const ingest::Result& r : rs) {
    if (r.failed) ++failed;
    else if (r.cancelled) ++cancelled;
    else {
      ++completed;
      EXPECT_FALSE(r.stream.empty());
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_GE(cancelled, 1);  // at least the items the reader never reached
  EXPECT_EQ(failed + cancelled + completed, 8);
  // Completed items are still byte-identical to the serial compressor.
  for (std::size_t i = 0; i < 4; ++i) {
    if (!rs[i].failed && !rs[i].cancelled) {
      EXPECT_EQ(rs[i].stream, serial_stream(2000, unsigned(i)));
    }
  }
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
