#include "ingest/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "common/timer.hpp"
#include "core/chunked.hpp"
#include "io/raw_file.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

/// Milliseconds since `t` started; also recorded (in us) into `h`.
double lap_ms(const Timer& t, obs::Histogram& h) {
  const double ms = t.seconds() * 1e3;
  h.record(static_cast<u64>(ms * 1e3));
  return ms;
}

/// The pool's worker count for the `threads` option (0 = hardware concurrency).
unsigned worker_count(unsigned threads) {
  return threads ? threads : std::max(1u, std::thread::hardware_concurrency());
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

/// One in-flight item: its input, its chunk slots and its Result. Its
/// prepare task and helper tasks claim chunks from `next_chunk`; the one that
/// drops `live` to zero finishes the item and sets `done`. The caller frees a
/// Work only after `done`, so no task outlives the buffers it uses.
struct IngestPipeline::Work {
  std::size_t index = 0;
  Item item;
  io::FileBuffer file;  ///< a path item's bytes
  Result out;
  Field field;
  std::vector<Bytes> payloads;
  std::vector<u32> sizes;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<unsigned> live{1};  ///< tasks of this item that have not exited
  bool probed = false;
  double read_ms = 0, hash_ms = 0;
  std::atomic<double> encode_ms{0};
  bool done = false;  ///< guarded by run()'s mutex

  void fail(const std::string& why) {
    out.failed = true;
    out.error = why;
  }
};

// Each in-flight item has at most `threads` tasks pending (its prepare task
// and its helpers), and at most threads + 1 items are in flight, so a task's
// own submit never waits on a queue that only the workers drain.
IngestPipeline::IngestPipeline(const Options& opts)
    : opts_(opts),
      pool_(std::make_unique<svc::ThreadPool>(
          worker_count(opts.threads),
          (worker_count(opts.threads) + 1) * worker_count(opts.threads))) {}

IngestPipeline::~IngestPipeline() = default;

unsigned IngestPipeline::threads() const { return pool_->worker_count(); }

std::vector<Result> IngestPipeline::run(std::vector<Item> items) {
  OBS_SPAN("ingest.run");
  Timer wall;
  stats_ = IngestStats{};
  stats_.files = items.size();
  stats_.threads = pool_->worker_count();
  const unsigned threads = stats_.threads;
  const std::size_t total = items.size();
  std::vector<Result> results(total);
  IngestMetrics& im = IngestMetrics::get();

  // `m` guards every Work::done, the raw bytes held by in-flight items and
  // chunk errors; `retired_cv` wakes the caller when an item is done.
  std::mutex m;
  std::condition_variable retired_cv;
  u64 inflight_bytes = 0, peak_bytes = 0;

  // ---- pool tasks: prepare, encode chunks, finish ------------------------
  // The last task of an item assembles it in chunk-slot order (byte-identical
  // to pfpl::compress), optionally audits it and marks it done.
  auto finish = [&](Work& w) {
    Timer t;
    Result& r = w.out;
    try {
      if (!r.failed && !r.reused)
        r.stream = pfpl::assemble_stream(r.header, w.sizes, w.payloads, opts_.params.exec);
      if (!r.failed && opts_.audit) {
        // Reused streams are audited too: the probe promises byte-identity,
        // so a stored stream must satisfy the same bound.
        const std::vector<u8> raw_back = pfpl::decompress(r.stream, opts_.params.exec);
        const obs::AuditCase ac = obs::ErrorBoundAuditor::verify_field(
            w.field, raw_back, opts_.params.eb, opts_.params.eps, "ingest", r.name,
            /*seed=*/0, r.stream.size());
        r.audited = true;
        r.audit_violations = ac.violations;
      }
    } catch (const std::exception& e) {
      w.fail(e.what());
    }
    // A done item waits for its commit holding only its stream.
    w.item.raw = {};
    w.file = {};
    w.payloads = {};
    w.sizes = {};
    w.encode_ms.fetch_add(t.seconds() * 1e3);
    im.encode_us.record(static_cast<u64>(w.encode_ms * 1e3));
    std::lock_guard<std::mutex> lk(m);
    inflight_bytes -= r.raw_bytes;
    w.done = true;
    retired_cv.notify_all();
  };
  auto leave = [&](Work& w) {
    if (w.live.fetch_sub(1) == 1) finish(w);
  };
  // Claim chunk indices until none are left (the paper's dynamic chunk
  // assignment), then leave.
  auto encode = [&](Work& w) {
    Timer t;
    const pfpl::Header& h = w.out.header;
    for (std::size_t c; (c = w.next_chunk.fetch_add(1)) < h.chunk_count;) {
      try {
        w.sizes[c] = pfpl::encode_chunk(w.field, h, c, opts_.params.exec, w.payloads[c]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(m);
        w.fail(e.what());
      }
    }
    w.encode_ms.fetch_add(t.seconds() * 1e3);
    leave(w);
  };
  // An item's first task: read, dedup probe, plan, then fan out to helpers.
  auto prepare = [&](Work& w) {
    Result& r = w.out;
    bool planned = false;
    unsigned unsent = 0;  // helpers counted in `live` but not submitted yet
    try {
      Timer t;
      std::span<const u8> in = w.item.raw;
      if (!w.item.path.empty()) {
        w.file = io::read_file_uninit(w.item.path);
        in = {w.file.data.get(), w.file.size};
      }
      r.raw_bytes = in.size();
      w.read_ms = lap_ms(t, im.read_us);
      {
        std::lock_guard<std::mutex> lk(m);
        inflight_bytes += r.raw_bytes;
        peak_bytes = std::max(peak_bytes, inflight_bytes);
      }
      w.field = raw_field(in.data(), r.raw_bytes, opts_.dtype);
      if (opts_.store) {
        Timer th;
        const ProbeResult pr = probe_compress(*opts_.store, in.data(), r.raw_bytes,
                                              opts_.dtype, opts_.params.eb, opts_.params.eps,
                                              r.stream);
        r.key = pr.key;
        r.reused = pr.hit;
        w.probed = true;
        if (pr.hit) r.header = pfpl::peek_header(r.stream);
        w.hash_ms = lap_ms(th, im.hash_us);
      }
      if (!r.reused) {
        // Same plan and per-chunk code as pfpl::compress.
        Timer tp;
        r.header = pfpl::plan_header(w.field, opts_.params);
        w.payloads.resize(r.header.chunk_count);
        w.sizes.resize(r.header.chunk_count);
        w.encode_ms = tp.seconds() * 1e3;
        planned = true;
        if (r.header.chunk_count > 1)
          unsent = std::min<u32>(threads - 1, r.header.chunk_count - 1);
        w.live += unsent;
        for (; unsent; --unsent) pool_->submit([&encode, &w] { encode(w); });
      }
    } catch (const std::exception& e) {
      w.live -= unsent;
      std::lock_guard<std::mutex> lk(m);
      w.fail(e.what());
    }
    planned ? encode(w) : leave(w);
  };

  // ---- caller: keep the window full, commit retired items in order ------
  using WorkPtr = std::unique_ptr<Work>;
  std::deque<WorkPtr> window;    // submitted, not yet retired; oldest first
  std::vector<WorkPtr> retired;  // done, not yet committed
  // One group commit for every retired item, then in-order delivery.
  auto commit = [&] {
    if (opts_.store) {
      std::vector<store::SegmentStore::BatchEntry> entries;
      for (const WorkPtr& w : retired)
        if (!w->out.failed && !w->out.reused)
          entries.push_back({w->out.key, &w->out.stream,
                             store::ChunkMeta{opts_.dtype, opts_.params.eb,
                                              opts_.params.eps, w->out.raw_bytes}});
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
            if (!w->out.failed && !w->out.reused) w->fail(e.what());
        }
        stats_.append_ms += lap_ms(t, im.append_us);
      }
    }
    for (WorkPtr& w : retired) {
      Result& r = results[w->index] = std::move(w->out);
      if (r.failed) r.stream = {};
      stats_.bytes_in += r.raw_bytes;
      stats_.bytes_out += r.stream.size();
      stats_.read_ms += w->read_ms;
      stats_.hash_ms += w->hash_ms;
      stats_.encode_ms += w->encode_ms;
      if (!r.reused) stats_.chunks += r.header.chunk_count;
      if (w->probed) ++(r.reused ? stats_.probe_hits : stats_.probe_misses);
      if (r.audited) ++stats_.audited;
      stats_.audit_violations += r.audit_violations;
      if (r.failed) ++stats_.files_failed;
      if (r.reused) ++stats_.files_reused;
      if (opts_.progress) opts_.progress(r, w->index, total);
    }
    retired.clear();
  };

  // Declared after everything a task uses: on any exit (the progress
  // callback threw), wait out every task before those locals die. The pool
  // stays usable, unlike after drain(), which would reject a helper submit.
  struct Quiesce {
    svc::ThreadPool& pool;
    ~Quiesce() { pool.wait_idle(); }
  } quiesce{*pool_};

  for (std::size_t next = 0; next < total || !window.empty();) {
    for (; next < total && window.size() <= threads; ++next) {
      auto w = std::make_unique<Work>();
      w->index = next;
      w->item = std::move(items[next]);
      w->out.name = std::move(w->item.name);
      pool_->submit([&prepare, wp = w.get()] { prepare(*wp); });
      window.push_back(std::move(w));
      stats_.peak_queue_items = std::max<u64>(stats_.peak_queue_items, window.size());
    }
    Work& front = *window.front();
    std::unique_lock<std::mutex> lk(m);
    if (!front.done && !retired.empty()) {  // commit before blocking
      lk.unlock();
      commit();
      lk.lock();
    }
    retired_cv.wait(lk, [&] { return front.done; });
    lk.unlock();
    retired.push_back(std::move(window.front()));
    window.pop_front();
  }
  commit();
  stats_.peak_queue_bytes = peak_bytes;
  stats_.wall_ms = wall.seconds() * 1e3;
  return results;
}

}  // namespace repro::ingest
