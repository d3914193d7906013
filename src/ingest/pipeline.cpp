#include "ingest/pipeline.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "common/timer.hpp"
#include "core/chunked.hpp"
#include "ingest/queue.hpp"
#include "io/buffered_reader.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "store/store.hpp"
#include "svc/byte_budget.hpp"
#include "svc/thread_pool.hpp"

namespace repro::ingest {
namespace {

/// ingest.* metric handles, resolved once (the registry gates every update
/// while obs is disabled).
struct IngestMetrics {
  obs::Counter& probe_hits;
  obs::Counter& probe_misses;
  obs::Gauge& q_hash_depth;
  obs::Gauge& q_encode_depth;
  obs::Gauge& q_append_depth;
  obs::Histogram& read_us;
  obs::Histogram& hash_us;
  obs::Histogram& encode_us;
  obs::Histogram& append_us;
  obs::Histogram& batch_items;
  static IngestMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static IngestMetrics m{
        r.counter("ingest.probe_hits"),
        r.counter("ingest.probe_misses"),
        r.gauge("ingest.q_hash_depth"),
        r.gauge("ingest.q_encode_depth"),
        r.gauge("ingest.q_append_depth"),
        r.histogram("ingest.read_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.hash_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.encode_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.append_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.append_batch_items", {1, 2, 4, 8, 16, 32, 64, 128})};
    return m;
  }
};

void stage_sleep(u64 us) {
  if (us) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Slow-consumer test hook: PFPL_INGEST_TEST_SLOW_STAGE_US stalls the append
/// stage per item, so upstream queues fill and the byte-budget backpressure
/// test can observe the high-water marks. Read once per run.
u64 slow_stage_us() {
  const char* e = std::getenv("PFPL_INGEST_TEST_SLOW_STAGE_US");
  return e ? std::strtoull(e, nullptr, 10) : 0ull;
}

Field make_field(const Bytes& raw, DType dtype) {
  if (dtype == DType::F32)
    return Field(reinterpret_cast<const float*>(raw.data()), raw.size() / 4);
  return Field(reinterpret_cast<const double*>(raw.data()), raw.size() / 8);
}

}  // namespace

ProbeResult probe_compress(store::ChunkStore& cs, const void* raw, std::size_t n,
                           DType dtype, EbType eb, double eps, Bytes& stream_out) {
  OBS_SPAN("ingest.probe");
  ProbeResult pr;
  pr.key = store::compress_key(raw, n, dtype, eb, eps);
  pr.hit = cs.get(pr.key, stream_out);
  IngestMetrics& m = IngestMetrics::get();
  (pr.hit ? m.probe_hits : m.probe_misses).add(1);
  return pr;
}

/// The unit flowing through the stage queues. Failed items keep flowing —
/// every stage forwards them untouched — so completion order and accounting
/// stay trivially correct.
struct IngestPipeline::Work {
  std::size_t index = 0;
  Item item;
  common::Hash128 key{};
  Bytes stream;
  pfpl::Header header{};
  bool reused = false;
  bool failed = false;
  std::string error;
  bool audited = false;
  u64 audit_violations = 0;

  std::size_t queue_bytes() const { return item.raw.size() + stream.size(); }
  void fail(const std::string& why) {
    failed = true;
    error = why;
  }
};

IngestPipeline::IngestPipeline(const Options& opts)
    : opts_(opts),
      pool_(std::make_unique<svc::ThreadPool>(opts.threads)) {}

IngestPipeline::~IngestPipeline() = default;

unsigned IngestPipeline::threads() const { return pool_->worker_count(); }

std::vector<Result> IngestPipeline::run(std::vector<Item> items) {
  OBS_SPAN("ingest.run");
  Timer wall;
  stats_ = IngestStats{};
  stats_.files = items.size();
  stats_.threads = pool_->worker_count();
  const std::size_t total = items.size();

  std::vector<Result> results(total);
  // unsigned char, not bool: the fail_fast path delivers from a stage thread
  // while the append thread delivers other indices — vector<bool>'s packed
  // bits would make those writes race.
  std::vector<unsigned char> delivered(total, 0);
  // Names are recorded up front: items are moved into the pipeline, and a
  // cancelled item's Work (name included) may be dropped inside a queue.
  for (std::size_t i = 0; i < total; ++i) results[i].name = items[i].name;

  IngestMetrics& im = IngestMetrics::get();
  using WorkPtr = std::unique_ptr<Work>;
  BoundedQueue<WorkPtr> q_hash(opts_.queue_items, opts_.queue_bytes, &im.q_hash_depth);
  BoundedQueue<WorkPtr> q_encode(opts_.queue_items, opts_.queue_bytes,
                                 &im.q_encode_depth);
  BoundedQueue<WorkPtr> q_append(opts_.queue_items, opts_.queue_bytes,
                                 &im.q_append_depth);

  std::atomic<bool> abort{false};
  // First-error cancellation (fail_fast): drop everything still queued
  // upstream and wake any blocked stage. The append queue is NEVER
  // cancelled — the failing item itself still drains through it, so the
  // caller sees the error, and the append thread is the single exit point.
  auto cancel_upstream = [&] {
    abort.store(true, std::memory_order_relaxed);
    q_hash.cancel();
    q_encode.cancel();
  };
  auto on_item_error = [&](Work& w, const std::string& why) {
    w.fail(why);
    if (opts_.fail_fast) cancel_upstream();
  };

  // The single definition of "this item is done": fills the caller-visible
  // Result, the run counters, and fires the progress callback. Normally only
  // the append thread delivers (batch-by-batch, in index order); the
  // fail_fast error path in the read/hash stages delivers the failing item
  // directly — its output queue was just cancelled, so pushing would drop
  // the error on the floor. The mutex keeps the shared counters and the
  // progress callback serialized across those two callers.
  std::mutex deliver_mu;
  auto deliver = [&](WorkPtr w) {
    std::lock_guard<std::mutex> lk(deliver_mu);
    Result& r = results[w->index];
    r.name = std::move(w->item.name);
    r.raw_bytes = w->item.raw.size();
    r.failed = w->failed;
    r.error = std::move(w->error);
    r.reused = w->reused;
    r.audited = w->audited;
    r.audit_violations = w->audit_violations;
    if (!w->failed) {
      r.header = w->header;
      r.stream = std::move(w->stream);
      stats_.bytes_out += r.stream.size();
    }
    stats_.bytes_in += r.raw_bytes;
    if (w->failed) ++stats_.files_failed;
    if (w->reused) ++stats_.files_reused;
    delivered[w->index] = 1;
    if (opts_.progress) opts_.progress(r, w->index, total);
  };

  const u64 slow_us = slow_stage_us();

  // Watchdog slots, one per stage, shared by every pipeline instance (the
  // names are stable and slots are never recycled). Each stage marks itself
  // busy per item — including queue pushes, so a stage wedged on a full
  // queue behind a stuck consumer is flagged too. Inert until armed.
  static const int wd_read = obs::Watchdog::global().register_slot("ingest.read");
  static const int wd_hash = obs::Watchdog::global().register_slot("ingest.hash");
  static const int wd_encode = obs::Watchdog::global().register_slot("ingest.encode");
  static const int wd_append = obs::Watchdog::global().register_slot("ingest.append");

  // ---- stage 1: read -----------------------------------------------------
  std::thread read_thread([&] {
    double stage_ms = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (abort.load(std::memory_order_relaxed)) break;
      obs::StallScope stall(wd_read, i);
      auto w = std::make_unique<Work>();
      w->index = i;
      w->item = std::move(items[i]);
      Timer t;
      if (!w->item.path.empty()) {
        try {
          io::DoubleBufferedReader rd(w->item.path, opts_.read_buffer_bytes);
          for (std::span<const u8> sp = rd.next(); !sp.empty(); sp = rd.next())
            w->item.raw.insert(w->item.raw.end(), sp.begin(), sp.end());
        } catch (const std::exception& e) {
          on_item_error(*w, e.what());
        }
      }
      stage_sleep(opts_.stage_cost_us[0]);
      const double ms = t.seconds() * 1e3;
      stage_ms += ms;
      im.read_us.record(static_cast<u64>(ms * 1e3));
      if (w->failed && opts_.fail_fast) {
        // q_hash was just cancelled by on_item_error; pushing would drop the
        // error. Deliver the failing item directly and stop reading.
        deliver(std::move(w));
        break;
      }
      const std::size_t bytes = w->queue_bytes();
      if (!q_hash.push(std::move(w), bytes)) break;
    }
    q_hash.close();
    stats_.read_ms = stage_ms;  // joined before run() reads stats_
  });

  // ---- stage 2: content hash + dedup probe -------------------------------
  std::thread hash_thread([&] {
    double stage_ms = 0;
    u64 hits = 0, misses = 0;
    WorkPtr w;
    while (q_hash.pop(w)) {
      obs::StallScope stall(wd_hash, w->index);
      if (!w->failed && !abort.load(std::memory_order_relaxed)) {
        Timer t;
        try {
          if (opts_.store) {
            ProbeResult pr =
                probe_compress(*opts_.store, w->item.raw.data(), w->item.raw.size(),
                               opts_.dtype, opts_.params.eb, opts_.params.eps,
                               w->stream);
            w->key = pr.key;
            if (pr.hit) {
              w->reused = true;
              w->header = pfpl::peek_header(w->stream);
              ++hits;
            } else {
              ++misses;
            }
          }
        } catch (const std::exception& e) {
          on_item_error(*w, e.what());
        }
        stage_sleep(opts_.stage_cost_us[1]);
        const double ms = t.seconds() * 1e3;
        stage_ms += ms;
        im.hash_us.record(static_cast<u64>(ms * 1e3));
        if (w->failed && opts_.fail_fast) {
          // Same as the read stage: our output queue is already cancelled.
          deliver(std::move(w));
          break;
        }
      }
      const std::size_t bytes = w->queue_bytes();
      if (!q_encode.push(std::move(w), bytes)) break;
    }
    q_encode.close();
    stats_.hash_ms = stage_ms;
    stats_.probe_hits = hits;
    stats_.probe_misses = misses;
  });

  // ---- stage 3: encode (chunk fan-out on the svc pool) -------------------
  std::thread encode_thread([&] {
    double stage_ms = 0;
    u64 chunks = 0, audited = 0, violations = 0;
    svc::ByteBudget budget(opts_.max_inflight_bytes);
    WorkPtr w;
    while (q_encode.pop(w)) {
      obs::StallScope stall(wd_encode, w->index);
      // After a fail_fast abort, drop unencoded items: forwarding them would
      // deliver them as completed with no stream. Dropped items come back
      // `cancelled`; already-failed items still flow on to report their error.
      if (!w->failed && abort.load(std::memory_order_relaxed)) continue;
      if (!w->failed) {
        Timer t;
        if (!w->reused) {
          // Same plan / per-chunk code / slot-ordered assembly as
          // pfpl::compress — the output is byte-identical to it by
          // construction, whatever order the chunks finish in.
          try {
            const Field field = make_field(w->item.raw, opts_.dtype);
            w->header = pfpl::plan_header(field, opts_.params);
            std::vector<Bytes> payloads(w->header.chunk_count);
            std::vector<u32> sizes(w->header.chunk_count, 0);
            std::vector<std::future<u32>> futures;
            futures.reserve(w->header.chunk_count);
            const pfpl::Executor exec = opts_.params.exec;
            const std::size_t chunk_bytes =
                pfpl::chunk_values(opts_.dtype) * dtype_size(opts_.dtype);
            const pfpl::Header* h = &w->header;
            for (std::size_t c = 0; c < w->header.chunk_count; ++c) {
              budget.acquire(chunk_bytes);
              Bytes* slot = &payloads[c];
              futures.push_back(pool_->submit([&field, h, c, exec, slot, &budget,
                                               chunk_bytes]() -> u32 {
                struct Release {
                  svc::ByteBudget* b;
                  std::size_t n;
                  ~Release() { b->release(n); }
                } release{&budget, chunk_bytes};
                return pfpl::encode_chunk(field, *h, c, exec, *slot);
              }));
              ++chunks;
            }
            try {
              for (std::size_t c = 0; c < futures.size(); ++c)
                sizes[c] = futures[c].get();
              w->stream =
                  pfpl::assemble_stream(w->header, sizes, payloads, exec);
            } catch (...) {
              // Drain remaining futures so no task outlives its slots.
              for (auto& f : futures)
                if (f.valid()) f.wait();
              throw;
            }
          } catch (const std::exception& e) {
            on_item_error(*w, e.what());
          }
        }
        if (!w->failed && opts_.audit) {
          // Audit covers reused streams too: the probe's promise is
          // byte-identity, so a stored stream must satisfy the same bound.
          try {
            const Field field = make_field(w->item.raw, opts_.dtype);
            const std::vector<u8> raw_back =
                pfpl::decompress(w->stream, opts_.params.exec);
            const obs::AuditCase ac = obs::ErrorBoundAuditor::verify_field(
                field, raw_back, opts_.params.eb, opts_.params.eps, "ingest",
                w->item.name, /*seed=*/0, w->stream.size());
            w->audited = true;
            w->audit_violations = ac.violations;
            ++audited;
            violations += ac.violations;
          } catch (const std::exception& e) {
            on_item_error(*w, e.what());
          }
        }
        stage_sleep(opts_.stage_cost_us[2]);
        const double ms = t.seconds() * 1e3;
        stage_ms += ms;
        im.encode_us.record(static_cast<u64>(ms * 1e3));
      }
      const std::size_t bytes = w->queue_bytes();
      if (!q_append.push(std::move(w), bytes)) break;
    }
    q_append.close();
    stats_.encode_ms = stage_ms;
    stats_.chunks = chunks;
    stats_.audited = audited;
    stats_.audit_violations = violations;
  });

  // ---- stage 4: batched append + in-order completion ---------------------
  std::thread append_thread([&] {
    double stage_ms = 0;
    u64 batches = 0, appended = 0;
    std::vector<WorkPtr> batch;
    std::size_t batch_payload = 0;

    auto flush_batch = [&] {
      if (batch.empty()) return;
      Timer t;
      if (opts_.store) {
        std::vector<store::SegmentStore::BatchEntry> entries;
        entries.reserve(batch.size());
        for (const WorkPtr& w : batch)
          if (!w->failed && !w->reused && !w->stream.empty())
            entries.push_back({w->key, &w->stream,
                               store::ChunkMeta{opts_.dtype, opts_.params.eb,
                                                opts_.params.eps,
                                                w->item.raw.size()}});
        if (!entries.empty()) {
          try {
            appended += opts_.store->put_batch(entries);
            ++batches;
            im.batch_items.record(entries.size());
          } catch (const std::exception& e) {
            // Store I/O failure taints the whole group: the streams are
            // still correct, but their durability promise is broken.
            for (WorkPtr& w : batch)
              if (!w->failed && !w->reused) on_item_error(*w, e.what());
          }
        }
      }
      const double ms = t.seconds() * 1e3;
      stage_ms += ms;
      im.append_us.record(static_cast<u64>(ms * 1e3));
      // Completion is delivered batch-by-batch, still in index order (the
      // queues are FIFO and every stage is a single thread).
      for (WorkPtr& w : batch) deliver(std::move(w));
      batch.clear();
      batch_payload = 0;
    };

    WorkPtr w;
    while (q_append.pop(w)) {
      obs::StallScope stall(wd_append, w->index);
      stage_sleep(slow_us);
      stage_sleep(opts_.stage_cost_us[3]);
      batch_payload += w->stream.size();
      batch.push_back(std::move(w));
      // Greedy batching: keep pulling while work is immediately available,
      // cut the group at either batch bound. An idle queue flushes right
      // away so a trickle of items never waits on a half-full batch.
      while (batch.size() < opts_.batch_items && batch_payload < opts_.batch_bytes &&
             q_append.try_pop(w)) {
        stage_sleep(slow_us);
        stage_sleep(opts_.stage_cost_us[3]);
        batch_payload += w->stream.size();
        batch.push_back(std::move(w));
      }
      flush_batch();
    }
    flush_batch();
    stats_.append_ms = stage_ms;
    stats_.append_batches = batches;
    stats_.appended = appended;
  });

  read_thread.join();
  hash_thread.join();
  encode_thread.join();
  append_thread.join();

  // Anything not delivered was dropped by cancellation (or never read
  // because the read loop aborted): mark it so the caller can tell "failed"
  // from "never attempted".
  for (std::size_t i = 0; i < total; ++i) {
    if (delivered[i]) continue;
    results[i].cancelled = true;
    results[i].error = "cancelled after earlier error";
    ++stats_.files_cancelled;
  }

  stats_.peak_queue_bytes = std::max({q_hash.peak_bytes(), q_encode.peak_bytes(),
                                      q_append.peak_bytes()});
  stats_.peak_queue_items = std::max({q_hash.peak_items(), q_encode.peak_items(),
                                      q_append.peak_items()});
  pool_->drain();
  stats_.wall_ms = wall.seconds() * 1e3;
  stats_.publish(obs::MetricsRegistry::global());
  return results;
}

}  // namespace repro::ingest
