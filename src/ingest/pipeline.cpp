#include "ingest/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <stop_token>
#include <thread>
#include <utility>

#include "common/timer.hpp"
#include "core/chunked.hpp"
#include "ingest/queue.hpp"
#include "io/raw_file.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "store/store.hpp"
#include "svc/thread_pool.hpp"

namespace repro::ingest {
namespace {

/// ingest.* metric handles, resolved once (the registry gates every update
/// while obs is disabled).
struct IngestMetrics {
  obs::Histogram& read_us;
  obs::Histogram& hash_us;
  obs::Histogram& encode_us;
  obs::Histogram& append_us;
  obs::Histogram& batch_items;
  static IngestMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static IngestMetrics m{
        r.histogram("ingest.read_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.hash_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.encode_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.append_us", obs::Histogram::default_latency_bounds_us()),
        r.histogram("ingest.append_batch_items", {1, 2, 4, 8, 16, 32, 64, 128})};
    return m;
  }
};

Field make_field(const Bytes& raw, DType dtype) {
  if (dtype == DType::F32)
    return Field(reinterpret_cast<const float*>(raw.data()), raw.size() / 4);
  return Field(reinterpret_cast<const double*>(raw.data()), raw.size() / 8);
}

/// Milliseconds since `t` started; also recorded (in us) into `h`.
double lap_ms(const Timer& t, obs::Histogram& h) {
  const double ms = t.seconds() * 1e3;
  h.record(static_cast<u64>(ms * 1e3));
  return ms;
}

}  // namespace

ProbeResult probe_compress(store::ChunkStore& cs, const void* raw, std::size_t n,
                           DType dtype, EbType eb, double eps, Bytes& stream_out) {
  OBS_SPAN("ingest.probe");
  ProbeResult pr;
  pr.key = store::compress_key(raw, n, dtype, eb, eps);
  pr.hit = cs.get(pr.key, stream_out);
  return pr;
}

/// One in-flight item: its input, the chunk tasks encoding it, and its
/// outcome. The destructor waits for every chunk task still running, so no
/// pool task outlives the raw bytes or payload slots it uses, on any exit
/// path.
struct IngestPipeline::Work {
  std::size_t index = 0;
  Item item;
  u64 raw_bytes = 0;
  common::Hash128 key{};
  pfpl::Header header{};
  std::vector<Bytes> payloads;
  std::vector<std::future<u32>> futures;
  Bytes stream;
  bool reused = false;
  bool failed = false;
  std::string error;
  bool audited = false;
  u64 audit_violations = 0;

  Work() = default;
  Work(const Work&) = delete;
  Work& operator=(const Work&) = delete;
  ~Work() { wait_all(); }

  void wait_all() {
    for (auto& f : futures)
      if (f.valid()) f.wait();
  }
  bool ready() const {
    return std::all_of(futures.begin(), futures.end(), [](const std::future<u32>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
  }
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
  IngestMetrics& im = IngestMetrics::get();

  // Watchdog slots, one per thread, shared by every pipeline instance (the
  // names are stable and slots are never recycled). Inert until armed.
  static const int wd_produce = obs::Watchdog::global().register_slot("ingest.produce");
  static const int wd_commit = obs::Watchdog::global().register_slot("ingest.commit");

  using WorkPtr = std::unique_ptr<Work>;
  BoundedQueue<WorkPtr> inflight(stats_.threads + 1);

  // ---- producer: read, dedup probe, plan, submit every chunk -------------
  // It writes only `items` and these locals, which run() reads after the join.
  double read_ms = 0, hash_ms = 0, plan_ms = 0;
  u64 hits = 0, misses = 0, chunks = 0;
  std::exception_ptr producer_error;
  // If run() leaves early (the progress callback threw), the jthread's
  // destructor requests a stop, which closes the queue so a blocked push
  // returns, then joins before the queue and `items` go away.
  std::jthread producer([&](std::stop_token stop) {
    std::stop_callback close_on_stop(stop, [&] { inflight.close(); });
    try {
      for (std::size_t i = 0; i < total; ++i) {
        obs::StallScope stall(wd_produce, i);
        auto w = std::make_unique<Work>();
        w->index = i;
        w->item = std::move(items[i]);
        try {
          Timer t;
          if (!w->item.path.empty()) w->item.raw = io::read_file(w->item.path);
          w->raw_bytes = w->item.raw.size();
          read_ms += lap_ms(t, im.read_us);
          if (opts_.store) {
            Timer th;
            const ProbeResult pr =
                probe_compress(*opts_.store, w->item.raw.data(), w->raw_bytes,
                               opts_.dtype, opts_.params.eb, opts_.params.eps,
                               w->stream);
            w->key = pr.key;
            w->reused = pr.hit;
            if (pr.hit) w->header = pfpl::peek_header(w->stream);
            ++(pr.hit ? hits : misses);
            hash_ms += lap_ms(th, im.hash_us);
          }
          if (!w->reused) {
            // Same plan and per-chunk code as pfpl::compress; the caller
            // assembles the slots in chunk order.
            Timer tp;
            const Field field = make_field(w->item.raw, opts_.dtype);
            w->header = pfpl::plan_header(field, opts_.params);
            w->payloads.resize(w->header.chunk_count);
            w->futures.reserve(w->header.chunk_count);
            for (std::size_t c = 0; c < w->header.chunk_count; ++c)
              w->futures.push_back(pool_->submit(
                  [field, h = &w->header, c, exec = opts_.params.exec,
                   slot = &w->payloads[c]] {
                    return pfpl::encode_chunk(field, *h, c, exec, *slot);
                  }));
            chunks += w->header.chunk_count;
            plan_ms += tp.seconds() * 1e3;
          }
        } catch (const std::exception& e) {
          w->fail(e.what());
        }
        const std::size_t bytes = w->raw_bytes;
        if (!inflight.push(std::move(w), bytes)) break;
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    inflight.close();
  });

  // ---- caller: commit retired items, then wait for and finish the next ---
  // Only this thread writes stats_ until the producer is joined.
  std::vector<WorkPtr> retired;
  // One group commit for every retired item, then in-order delivery.
  auto commit = [&] {
    if (opts_.store) {
      std::vector<store::SegmentStore::BatchEntry> entries;
      for (const WorkPtr& w : retired)
        if (!w->failed && !w->reused)
          entries.push_back({w->key, &w->stream,
                             store::ChunkMeta{opts_.dtype, opts_.params.eb,
                                              opts_.params.eps, w->raw_bytes}});
      if (!entries.empty()) {
        Timer t;
        try {
          stats_.appended += opts_.store->put_batch(entries);
          ++stats_.append_batches;
          im.batch_items.record(entries.size());
        } catch (const std::exception& e) {
          // A store I/O failure taints the whole group: the streams are
          // still correct, but their durability promise is broken.
          for (WorkPtr& w : retired)
            if (!w->failed && !w->reused) w->fail(e.what());
        }
        stats_.append_ms += lap_ms(t, im.append_us);
      }
    }
    for (WorkPtr& w : retired) {
      Result& r = results[w->index];
      r.name = std::move(w->item.name);
      r.raw_bytes = w->raw_bytes;
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
      if (opts_.progress) opts_.progress(r, w->index, total);
    }
    retired.clear();
  };

  WorkPtr w;
  while (inflight.pop(w)) {
    obs::StallScope stall(wd_commit, w->index);
    if (!retired.empty() && !w->ready()) commit();  // commit before blocking
    Timer t;
    if (!w->failed && !w->reused) {
      try {
        std::vector<u32> sizes(w->futures.size());
        for (std::size_t c = 0; c < sizes.size(); ++c) sizes[c] = w->futures[c].get();
        w->stream =
            pfpl::assemble_stream(w->header, sizes, w->payloads, opts_.params.exec);
      } catch (const std::exception& e) {
        w->fail(e.what());
      }
    }
    if (!w->failed && opts_.audit) {
      // Reused streams are audited too: the probe promises byte-identity,
      // so a stored stream must satisfy the same bound.
      try {
        const std::vector<u8> raw_back = pfpl::decompress(w->stream, opts_.params.exec);
        const obs::AuditCase ac = obs::ErrorBoundAuditor::verify_field(
            make_field(w->item.raw, opts_.dtype), raw_back, opts_.params.eb,
            opts_.params.eps, "ingest", w->item.name, /*seed=*/0, w->stream.size());
        w->audited = true;
        w->audit_violations = ac.violations;
        ++stats_.audited;
        stats_.audit_violations += ac.violations;
      } catch (const std::exception& e) {
        w->fail(e.what());
      }
    }
    // Retired items wait for the next commit holding only their stream.
    w->wait_all();
    w->item.raw = {};
    w->payloads = {};
    stats_.encode_ms += lap_ms(t, im.encode_us);
    retired.push_back(std::move(w));
  }
  commit();
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);

  stats_.read_ms = read_ms;
  stats_.hash_ms = hash_ms;
  stats_.encode_ms += plan_ms;
  stats_.chunks = chunks;
  stats_.probe_hits = hits;
  stats_.probe_misses = misses;
  stats_.peak_queue_bytes = inflight.peak_bytes();
  stats_.peak_queue_items = inflight.peak_items();
  pool_->drain();
  stats_.wall_ms = wall.seconds() * 1e3;
  return results;
}

}  // namespace repro::ingest
